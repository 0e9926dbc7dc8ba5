package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the layers host CPU is attributed to, in report order.
// runtime_gc and runtime_alloc take samples under the collector and the
// allocator; every other sample goes to the package of its innermost
// frame inside this module; the rest (scheduler, idle, the benchmark's own
// code, packages not listed) is "other".
var cpuModules = []string{"correlation", "policy", "core", "um", "sim", "engine", "chaos",
	"torchalloc", "obs", "supervisor", "journal", "store", "runtime_gc", "runtime_alloc", "other"}

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.sweepone",
	"runtime.(*mspan).sweep", "runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier"}

// moduleOf classifies one sample from its frames, innermost first.
func moduleOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "runtime_alloc"
		}
		if pkg := packageOf(f); strings.HasPrefix(pkg, "deepum/") || pkg == "deepum" {
			return moduleOfPackage(pkg)
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol like
// "deepum/internal/core.(*Driver).fillQueue".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func moduleOfPackage(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "deepum/internal/")
	if !ok {
		return "other"
	}
	switch {
	case rest == "supervisor/journal":
		return "journal"
	case strings.HasPrefix(rest, "policy"):
		return "policy"
	}
	top, _, _ := strings.Cut(rest, "/")
	for _, m := range cpuModules {
		if m == top {
			return m
		}
	}
	return "other"
}

// cpuShares is a CPU profile reduced to sample counts per module.
type cpuShares struct {
	samples  int64
	byModule map[string]int64
}

func (c cpuShares) pct(module string) float64 {
	if c.samples == 0 {
		return 0
	}
	return 100 * float64(c.byModule[module]) / float64(c.samples)
}

// parseCPUProfile decodes a gzipped pprof profile as runtime/pprof writes
// it and attributes each sample to a module. Only the fields needed are
// read: samples (location IDs and values), locations (their line
// entries' function IDs, inlined frames innermost first), functions and
// the string table.
func parseCPUProfile(data []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	out := cpuShares{byModule: map[string]int64{}}
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out.samples += s.count
		out.byModule[moduleOf(frames)] += s.count
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
