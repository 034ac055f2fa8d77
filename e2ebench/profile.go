package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the program's modules, in report order. A CPU sample belongs
// to the innermost frame of one of these packages; helper packages (chem,
// xhash, trace) and the pepscale facade are skipped so their time counts
// toward the layer that called them.
var layers = []string{
	"fasta", "spectrum", "digest", "fragidx", "sortmz", "score", "topk",
	"core", "cluster", "ckpt", "placement", "serve",
}

// Two pseudo-layers close the fold: "bench" is the benchmark's own code
// (input generation, hit checks) and "runtime" takes every sample with no
// layer or benchmark frame (GC workers, the scheduler).
const (
	benchLayer   = "bench"
	runtimeLayer = "runtime"
)

// allLayers is layers plus the two pseudo-layers.
func allLayers() []string { return append(append([]string(nil), layers...), benchLayer, runtimeLayer) }

// layerOf maps a fully qualified function name to its layer, or "" when the
// frame is not a layer boundary (stdlib, runtime, helpers).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "pepscale/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
		if pkg == "synth" {
			return benchLayer
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") {
		return benchLayer
	}
	return ""
}

// cpuProfile is the part of a pprof CPU profile the fold needs: for every
// sample its CPU nanoseconds and its call stack as function names, leaf
// first (inlined frames expanded, innermost first).
type cpuProfile struct {
	samples []cpuSample
	totalNS int64
}

type cpuSample struct {
	ns    int64
	stack []string
}

// fold assigns every sample to exactly one layer and returns nanoseconds
// per layer. The values sum to totalNS exactly: the fold is integer.
func (p *cpuProfile) fold() map[string]int64 {
	out := make(map[string]int64, len(layers)+2)
	for _, s := range p.samples {
		l := runtimeLayer
		for _, fn := range s.stack {
			if x := layerOf(fn); x != "" {
				l = x
				break
			}
		}
		out[l] += s.ns
	}
	return out
}

// inclusiveNS sums the samples whose stack contains fn anywhere.
func (p *cpuProfile) inclusiveNS(fn string) int64 {
	var ns int64
	for _, s := range p.samples {
		for _, f := range s.stack {
			if f == fn {
				ns += s.ns
				break
			}
		}
	}
	return ns
}

// parseCPUProfile decodes the gzipped protobuf runtime/pprof writes. Only
// the fields the fold reads are decoded: sample types, samples,
// locations, functions and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type location struct{ funcs []uint64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeNames []int64
		samples   []rawSample
		locs      = map[uint64]location{}
		funcNames = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var l location
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = l
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The CPU time value is the one whose type is "cpu" (runtime/pprof
	// writes samples/count then cpu/nanoseconds).
	vi := -1
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{samples: make([]cpuSample, 0, len(samples))}
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		cs := cpuSample{ns: s.values[vi]}
		for _, id := range s.locs {
			for _, f := range locs[id].funcs {
				cs.stack = append(cs.stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, cs)
		p.totalNS += cs.ns
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, plus its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
