package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// bucketProfile charges every sample of a gzipped runtime/pprof CPU
// profile to the module of its leaf frame. It returns CPU time per
// module (every sample lands in exactly one bucket, so the buckets sum
// to the profiled total) and the sample count.
func bucketProfile(r io.Reader) (map[string]time.Duration, int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]time.Duration{}
	var samples int64
	for _, s := range p.samples {
		if p.cpuIdx >= len(s.values) || p.countIdx >= len(s.values) {
			return nil, 0, errors.New("CPU profile sample lacks a value")
		}
		mod := "other"
		if len(s.locs) > 0 {
			mod = moduleOf(p.strings[p.funcName[p.locLeaf[s.locs[0]]]])
		}
		out[mod] += time.Duration(s.values[p.cpuIdx])
		samples += s.values[p.countIdx]
	}
	return out, samples, nil
}

// moduleOf maps a profile function name to the repository module that
// owns it. repro/internal/sim/par counts as par, not sim; the Go
// runtime's own packages count as runtime; everything else (the
// standard library, this benchmark) counts as other.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "repro/internal/sim/par":
		return "par"
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, m := range modules {
			if m == mod {
				return m
			}
		}
	}
	return "other"
}

// packageOf is the import path of a Go symbol name such as
// "repro/internal/fabric.(*Switch).forward.func1": everything up to the
// first dot after the last slash. Type arguments ("F[...]") may hold
// slashes of their own, so they are cut first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// profile is the part of a pprof profile.proto the bucketing needs.
type profile struct {
	strings          []string
	funcName         map[uint64]int64  // function id -> name string index
	locLeaf          map[uint64]uint64 // location id -> innermost function id
	samples          []sample
	cpuIdx, countIdx int // value indexes of the cpu/nanoseconds and samples/count types
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

// decodeProfile parses an uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locLeaf: map[uint64]uint64{}, cpuIdx: -1, countIdx: -1}
	var types []int64 // string index of each sample type's name
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(msg, func(num int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					types = append(types, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case fSampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, leaf uint64
			haveLeaf := false
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					// The first line is the innermost of the frames
					// inlined at this location: the leaf.
					if haveLeaf {
						return nil
					}
					haveLeaf = true
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = leaf
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	for i, t := range types {
		if t < 0 || t >= int64(len(p.strings)) {
			return nil, errors.New("decode CPU profile: sample type name out of range")
		}
		switch p.strings[t] {
		case "cpu":
			p.cpuIdx = i
		case "samples":
			p.countIdx = i
		}
	}
	if p.cpuIdx < 0 || p.countIdx < 0 {
		return nil, errors.New("decode CPU profile: no cpu and samples value types")
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("decode CPU profile: function name out of range")
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. f receives the
// value of a varint field, or the payload of a length-delimited one.
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, packed (payload
// of varints) or not (one varint per field occurrence).
func eachVarint(v uint64, packed []byte, yield func(uint64)) error {
	if packed == nil {
		yield(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		packed = packed[n:]
	}
	return nil
}
