package results

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenResult builds a fixed synthetic result exercising every cell
// kind, multiple tables, and a series.
func goldenResult() *Result {
	r := New("demo")
	r.Meta.Desc = "golden fixture"
	r.Meta.Seed = 42
	r.Meta.Nodes = 8
	r.Meta.PPN = 2
	r.Meta.Wall = 1500 * time.Millisecond
	r.AddTable("latency", "metric", "value_us").
		Row(String("mean"), Float(12.345, 2)).
		Row(String("p99"), Float(99.5, 1)).
		Row(String("missing"), NA()).
		Row(String("count"), Int(1024))
	r.AddTable("wins", "system", "impact").
		Row(String("slingshot"), Float(1.3, 1)).
		Row(String("aries"), Float(93, 1))
	r.AddSeries(Series{
		Name: "ramp", XUnit: "us", YUnit: "Gb/s",
		Points: []Point{{X: 0, Y: 1.5}, {X: 100, Y: 2.25}, {X: 200, Y: 2.25}},
	})
	return r
}

func TestEncodersGolden(t *testing.T) {
	for _, tc := range []struct {
		format, file string
	}{
		{"table", "golden.txt"},
		{"json", "golden.json"},
		{"csv", "golden.csv"},
	} {
		t.Run(tc.format, func(t *testing.T) {
			enc, err := NewEncoder(tc.format)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := enc.Encode(&buf, goldenResult()); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.format, path, buf.Bytes(), want)
			}
		})
	}
}

func TestEncodeAllJSONArray(t *testing.T) {
	// The JSON shape must not depend on the run count: always an array.
	for _, rs := range [][]*Result{
		nil,
		{goldenResult()},
		{goldenResult(), goldenResult()},
	} {
		var buf bytes.Buffer
		if err := EncodeAll(&buf, "json", rs); err != nil {
			t.Fatal(err)
		}
		s := strings.TrimSpace(buf.String())
		if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
			t.Errorf("%d JSON results should encode as an array, got %.40s...", len(rs), s)
		}
	}
}

func TestValueText(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{String("x"), "x"},
		{Int(-3), "-3"},
		{Float(1.25, 1), "1.2"},
		{Float(1.25, 3), "1.250"},
		{Float(math.NaN(), 2), "N.A."},
		{Float(math.Inf(1), 2), "N.A."},
		{NA(), "N.A."},
	} {
		if got := tc.v.Text(); got != tc.want {
			t.Errorf("Text(%+v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestNaNMarshalsNull(t *testing.T) {
	b, err := Float(math.NaN(), 2).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "null" {
		t.Errorf("NaN marshals to %s, want null", b)
	}
}

func TestValidate(t *testing.T) {
	if err := goldenResult().Validate(); err != nil {
		t.Errorf("golden result invalid: %v", err)
	}
	if err := New("empty").Validate(); err == nil {
		t.Error("empty result should fail validation")
	}
	bad := New("bad")
	bad.AddTable("t", "a", "b").Rows = [][]Value{{String("only-one")}}
	if err := bad.Validate(); err == nil {
		t.Error("ragged row should fail validation")
	}
}

func TestLookupByName(t *testing.T) {
	r := goldenResult()
	wins := r.Table("wins")
	if wins == nil || wins.Name != "wins" {
		t.Fatalf("Table(wins) = %+v", wins)
	}
	if r.Table("nope") != nil {
		t.Error("Table(nope) should be nil")
	}
	if i := wins.Col("impact"); i != 1 {
		t.Errorf("Col(impact) = %d, want 1", i)
	}
	if i := wins.Col("nope"); i != -1 {
		t.Errorf("Col(nope) = %d, want -1", i)
	}
}

func TestRowWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched row width should panic")
		}
	}()
	r := New("x")
	r.AddTable("t", "a", "b").Row(String("only-one"))
}

func TestUnknownFormat(t *testing.T) {
	if _, err := NewEncoder("yaml"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	// The tracked bench baseline is decoded back for regression
	// comparison, so a result must survive encode → decode with every
	// cell's numeric payload (and N.A.-ness) intact.
	r := goldenResult()
	r.Meta.Rev = "abc123def456"
	r.Meta.GoVersion = "go1.24.0"
	var buf bytes.Buffer
	enc, _ := NewEncoder("json")
	if err := enc.Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != r.Meta {
		t.Errorf("meta round trip: got %+v, want %+v", got.Meta, r.Meta)
	}
	if len(got.Tables) != len(r.Tables) {
		t.Fatalf("tables: got %d, want %d", len(got.Tables), len(r.Tables))
	}
	for ti, tb := range r.Tables {
		gt := got.Tables[ti]
		for ri, row := range tb.Rows {
			for ci, want := range row {
				cell := gt.Rows[ri][ci]
				if want.IsNA() != cell.IsNA() {
					t.Errorf("table %d cell (%d,%d): NA mismatch", ti, ri, ci)
					continue
				}
				if want.Kind == KindString && cell.Str != want.Str {
					t.Errorf("cell (%d,%d) = %q, want %q", ri, ci, cell.Str, want.Str)
				}
				wv, wok := want.Float64()
				gv, gok := cell.Float64()
				if wok != gok || wv != gv {
					t.Errorf("cell (%d,%d) value = %v,%v want %v,%v", ri, ci, gv, gok, wv, wok)
				}
			}
		}
	}
}

func TestValueFloat64(t *testing.T) {
	if v, ok := Int(7).Float64(); !ok || v != 7 {
		t.Errorf("Int.Float64 = %v,%v", v, ok)
	}
	if v, ok := Float(2.5, 1).Float64(); !ok || v != 2.5 {
		t.Errorf("Float.Float64 = %v,%v", v, ok)
	}
	if _, ok := NA().Float64(); ok {
		t.Error("NA has a Float64")
	}
	if _, ok := String("x").Float64(); ok {
		t.Error("String has a Float64")
	}
	if _, ok := Float(math.NaN(), 1).Float64(); ok {
		t.Error("NaN float has a Float64")
	}
}
