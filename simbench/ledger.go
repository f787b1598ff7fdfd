package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// profileHz is the CPU sampling rate the traced pass asks for. At the
// default 100 Hz a 10 s pass gives a layer holding 5% of the time only
// ~50 samples. Linux delivers profiling signals on the scheduler tick,
// so a 250 Hz kernel caps the rate near 250 Hz whatever is asked; the
// ledger prints the samples it got.
const profileHz = 1000

// layers names the ledger's modules and the packages folded into each.
// A package under limitsim/internal/ that no layer lists, and any
// standard-library package outside the Go runtime, count as unnamed.
var layers = []struct {
	name string
	pkgs []string
}{
	{"machine", []string{"machine"}},
	{"runner", []string{"runner"}},
	{"cpu", []string{"cpu"}},
	{"isa", []string{"isa"}},
	{"branch", []string{"branch"}},
	{"cache", []string{"cache"}},
	{"tlb", []string{"tlb"}},
	{"mem", []string{"mem"}},
	{"pmu", []string{"pmu"}},
	{"kernel", []string{"kernel"}},
	{"invariant", []string{"invariant"}},
	{"faultinject", []string{"faultinject"}},
	{"telemetry", []string{"telemetry"}},
	{"output", []string{"report", "metrics", "profile", "tabwrite"}},
	{"go", nil}, // the runtime: GC, malloc, maps; see layerOf
}

var layerByPkg = func() map[string]string {
	m := map[string]string{}
	for _, l := range layers {
		for _, p := range l.pkgs {
			m["limitsim/internal/"+p] = l.name
		}
	}
	return m
}()

// layerOf maps a Go package path to its ledger layer, "" if none.
func layerOf(pkg string) string {
	if l, ok := layerByPkg[pkg]; ok {
		return l
	}
	if pkg == "runtime/pprof" {
		return "" // the profiler's own writer, not the runtime
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic" {
		return "go"
	}
	return ""
}

// pkgOf extracts the package path from a symbolized Go function name
// such as "limitsim/internal/cpu.(*Core).StepInto" or
// "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type parameters may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if j := strings.IndexByte(fn[slash+1:], '.'); j >= 0 {
		return fn[:slash+1+j]
	}
	return fn
}

// tracedPass runs the units under spans and a CPU profile at
// profileHz, and returns the pass with the gzipped profile.
func tracedPass(u unitFunc, n int, sp *spans, inject func(int) error, log io.Writer) (pass, []byte, error) {
	var buf bytes.Buffer
	// StartCPUProfile asks for 100 Hz itself; setting the rate first
	// wins, at the price of one runtime warning on standard error.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return pass{}, nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	p := runUnits(u, n, sp, inject, log)
	pprof.StopCPUProfile()
	return p, buf.Bytes(), nil
}

// ledger is a CPU profile's flat time folded by layer.
type ledger struct {
	total   int64
	byLayer map[string]int64 // "" holds the unnamed share
	unnamed map[string]int64 // unnamed samples by package
}

func (l *ledger) pct(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return 100 * float64(l.byLayer[layer]) / float64(l.total)
}

// print writes the ledger as a table, with the largest unnamed
// packages so a growing unnamed share can be traced.
func (l *ledger) print(w io.Writer, wall time.Duration) {
	fmt.Fprintf(w, "CPU profile ledger: %d samples in %.1f s (%d Hz asked)\n", l.total, wall.Seconds(), profileHz)
	for _, ly := range layers {
		fmt.Fprintf(w, "  %-12s %7d  %6.2f%%\n", ly.name, l.byLayer[ly.name], l.pct(ly.name))
	}
	fmt.Fprintf(w, "  %-12s %7d  %6.2f%%\n", "(unnamed)", l.byLayer[""], l.pct(""))
	pkgs := make([]string, 0, len(l.unnamed))
	for p := range l.unnamed {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if l.unnamed[pkgs[i]] != l.unnamed[pkgs[j]] {
			return l.unnamed[pkgs[i]] > l.unnamed[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	for i, p := range pkgs {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "    unnamed %-32s %6d\n", p, l.unnamed[p])
	}
}

// foldProfile decodes a gzipped pprof CPU profile and charges each
// sample to the package of its leaf frame (flat time). With inlining
// the leaf is the innermost inlined function, as in pprof -top.
func foldProfile(gz []byte) (*ledger, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	led := &ledger{byLayer: map[string]int64{}, unnamed: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.locs) == 0 || p.countIdx >= len(s.values) {
			continue
		}
		pkg := "(unknown)"
		if loc, ok := p.locFunc[s.locs[0]]; ok {
			pkg = pkgOf(p.funcName[loc])
		}
		n := s.values[p.countIdx]
		led.total += n
		layer := layerOf(pkg)
		led.byLayer[layer] += n
		if layer == "" {
			led.unnamed[pkg] += n
		}
	}
	return led, nil
}

// profile is the part of a pprof profile.proto the ledger needs.
type profile struct {
	countIdx int // index of the "samples" value
	samples  []sample
	locFunc  map[uint64]uint64 // location id → innermost function id
	funcName map[uint64]string // function id → name
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile protobuf")

// parseProfile decodes the fields of profile.proto that name each
// sample's leaf function. Field numbers follow
// github.com/google/pprof/proto/profile.proto.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	var sampleTypes []uint64 // string-table index of each value's type
	funcNameIdx := map[uint64]uint64{}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return fields(data, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return varints(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined call
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if haveLine {
				p.locFunc[id] = fn
			}
			return err
		case 5: // function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, errProto
		}
		p.funcName[id] = strs[idx]
	}
	p.countIdx = -1
	for i, t := range sampleTypes {
		if t < uint64(len(strs)) && strs[t] == "samples" {
			p.countIdx = i
		}
	}
	if p.countIdx < 0 {
		return nil, errors.New("profile has no samples value")
	}
	return p, nil
}

// fields calls fn for each field of the protobuf message b. Varint and
// fixed-width fields arrive in v; length-delimited ones in data.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, which arrives either as one
// value (v, data == nil) or packed into data.
func varints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		add(x)
		data = data[n:]
	}
	return nil
}
