// Package results defines the uniform structured-result model every
// experiment in the harness returns: a Result carries run metadata
// (experiment name, seed, scale, wall time) plus typed payload tables and
// series with named columns, and pluggable encoders render it as a
// fixed-width text table, JSON, or CSV.
//
// The model exists so that adding an experiment means registering one
// Run function, not inventing another ad-hoc result struct with its own
// String method, and so the CLI and the bench trajectory get
// machine-readable output for free.
package results

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Meta identifies one experiment run.
type Meta struct {
	// Experiment is the registered experiment name (e.g. "fig6").
	Experiment string `json:"experiment"`
	// Desc is the experiment's one-line description.
	Desc string `json:"desc,omitempty"`
	// Seed is the run's RNG seed; runs are deterministic per seed.
	Seed uint64 `json:"seed"`
	// Nodes is the effective experiment node count.
	Nodes int `json:"nodes"`
	// PPN is the effective processes-per-node where applicable.
	PPN int `json:"ppn,omitempty"`
	// Wall is the host wall-clock time the run took.
	Wall time.Duration `json:"wall_ns"`
	// Rev identifies the code revision that produced the result (git
	// SHA), so archived results — the tracked perf baseline above all —
	// are attributable to a commit.
	Rev string `json:"rev,omitempty"`
	// GoVersion is the toolchain the producing binary was built with.
	GoVersion string `json:"go_version,omitempty"`
	// SimlintClean records whether the simlint static-invariant suite
	// (internal/lint) reported zero undirectived diagnostics over the
	// producing tree — i.e. whether the source-level alloc/determinism
	// gate held at generation time. Nil means the check was not run
	// (ordinary experiment results); benchreport stamps it on the perf
	// baseline.
	SimlintClean *bool `json:"simlint_clean,omitempty"`
	// SpineFuncs counts the functions simlint's call-graph analysis
	// proved reachable from the //simlint:hotpath roots at generation
	// time — the audited per-packet code surface the allocs/unit figures
	// below cover. A growing spine with flat allocs is broadening
	// coverage; a shrinking one means hot code fell off the audit.
	// Zero means the check was not run.
	SpineFuncs int `json:"spine_funcs,omitempty"`
}

// Kind discriminates the Value variants.
type Kind uint8

const (
	// KindNA marks a cell with no value (e.g. a workload that cannot run
	// at the cell's node count).
	KindNA Kind = iota
	// KindString is a label cell.
	KindString
	// KindInt is an integer cell.
	KindInt
	// KindFloat is a floating-point cell with a text-rendering precision.
	KindFloat
)

// Value is one typed table cell. Text rendering applies the stored
// precision; JSON and CSV emit the raw value.
type Value struct {
	Kind Kind
	Str  string
	Int  int64
	Num  float64
	// Prec is the number of fractional digits used by the text encoder
	// for KindFloat cells.
	Prec int
}

// String returns a label cell.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Int returns an integer cell.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float returns a numeric cell rendered with prec fractional digits in
// text output.
func Float(v float64, prec int) Value { return Value{Kind: KindFloat, Num: v, Prec: prec} }

// NA returns a not-available cell ("N.A." in text, null in JSON, empty
// in CSV).
func NA() Value { return Value{Kind: KindNA} }

// IsNA reports whether the cell has no value (including NaN floats).
func (v Value) IsNA() bool {
	return v.Kind == KindNA || (v.Kind == KindFloat && (math.IsNaN(v.Num) || math.IsInf(v.Num, 0)))
}

// Text renders the cell for the fixed-width encoder.
func (v Value) Text() string {
	switch {
	case v.IsNA():
		return "N.A."
	case v.Kind == KindString:
		return v.Str
	case v.Kind == KindInt:
		return strconv.FormatInt(v.Int, 10)
	default:
		return strconv.FormatFloat(v.Num, 'f', v.Prec, 64)
	}
}

// csv renders the cell for the CSV encoder: raw full-precision values,
// empty for N.A.
func (v Value) csv() string {
	switch {
	case v.IsNA():
		return ""
	case v.Kind == KindString:
		return v.Str
	case v.Kind == KindInt:
		return strconv.FormatInt(v.Int, 10)
	default:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
}

// MarshalJSON emits the raw value: string, number, or null for N.A.
func (v Value) MarshalJSON() ([]byte, error) {
	switch {
	case v.IsNA():
		return []byte("null"), nil
	case v.Kind == KindString:
		return strconv.AppendQuote(nil, v.Str), nil
	case v.Kind == KindInt:
		return strconv.AppendInt(nil, v.Int, 10), nil
	default:
		return strconv.AppendFloat(nil, v.Num, 'g', -1, 64), nil
	}
}

// UnmarshalJSON is the inverse of MarshalJSON, so archived results (e.g.
// a committed bench baseline) round-trip: null → N.A., quoted → string,
// integral number without exponent/fraction → int, otherwise float.
func (v *Value) UnmarshalJSON(b []byte) error {
	s := string(b)
	switch {
	case s == "null":
		*v = NA()
		return nil
	case len(b) > 0 && b[0] == '"':
		str, err := strconv.Unquote(s)
		if err != nil {
			return fmt.Errorf("results: bad string cell %s: %w", s, err)
		}
		*v = String(str)
		return nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		*v = Int(i)
		return nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("results: bad cell %s: %w", s, err)
	}
	*v = Float(f, -1)
	return nil
}

// Float64 returns the cell's numeric value (int or float kinds) and
// whether it has one.
func (v Value) Float64() (float64, bool) {
	switch {
	case v.IsNA():
		return 0, false
	case v.Kind == KindInt:
		return float64(v.Int), true
	case v.Kind == KindFloat:
		return v.Num, true
	}
	return 0, false
}

// Table is a named grid of typed cells under named columns.
type Table struct {
	Name    string    `json:"name,omitempty"`
	Columns []string  `json:"columns"`
	Rows    [][]Value `json:"rows"`
}

// Row appends one row; the cell count must match the column count.
func (t *Table) Row(cells ...Value) *Table {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("results: table %q row has %d cells, want %d",
			t.Name, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
	return t
}

// Point is one sample of a Series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is a named (x, y) trace, e.g. bandwidth over time.
type Series struct {
	Name   string  `json:"name"`
	XUnit  string  `json:"x_unit,omitempty"`
	YUnit  string  `json:"y_unit,omitempty"`
	Points []Point `json:"points"`
}

// Result is the uniform payload every experiment returns.
type Result struct {
	Meta   Meta     `json:"meta"`
	Tables []*Table `json:"tables,omitempty"`
	Series []Series `json:"series,omitempty"`
}

// New returns an empty result for the named experiment.
func New(experiment string) *Result {
	return &Result{Meta: Meta{Experiment: experiment}}
}

// AddTable appends and returns an empty table with the given columns.
func (r *Result) AddTable(name string, columns ...string) *Table {
	t := &Table{Name: name, Columns: columns}
	r.Tables = append(r.Tables, t)
	return t
}

// AddSeries appends a series to the result.
func (r *Result) AddSeries(s Series) { r.Series = append(r.Series, s) }

// Table returns the first table with the given name, or nil when the
// result has none.
func (r *Result) Table(name string) *Table {
	for _, t := range r.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Col returns the index of the named column, or -1 when the table has
// no such column.
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: every table has columns and
// every row matches its table's width.
func (r *Result) Validate() error {
	if len(r.Tables) == 0 && len(r.Series) == 0 {
		return fmt.Errorf("results: %q has no payload", r.Meta.Experiment)
	}
	for _, t := range r.Tables {
		if len(t.Columns) == 0 {
			return fmt.Errorf("results: table %q has no columns", t.Name)
		}
		for i, row := range t.Rows {
			if len(row) != len(t.Columns) {
				return fmt.Errorf("results: table %q row %d has %d cells, want %d",
					t.Name, i, len(row), len(t.Columns))
			}
		}
	}
	return nil
}
