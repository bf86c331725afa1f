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

// sharePackages are the prefetch/internal packages a run passes
// through, in report order. runtime_gc and other close the list.
var sharePackages = []string{
	"access", "adaptive", "cache", "core", "eventq", "fleet", "knapsack",
	"multiclient", "netsim", "obs", "predict", "rng", "schedsrv", "stats", "webgraph",
}

// gcFrames mark a sample as garbage-collector work wherever they sit on
// the stack: background and assist marking, sweeping, scavenging and
// write-barrier flushes.
var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.wbBufFlush", "runtime.GC"}

type share struct {
	name  string
	share float64
}

// packageShares splits a CPU profile's time by package. A sample with a
// garbage-collector frame anywhere on its stack counts as runtime_gc.
// Any other sample counts for the innermost prefetch/internal frame on
// its stack, so runtime helpers (memmove, map access, allocation) count
// for the package that called them; samples with no such frame count
// as other.
func packageShares(gz []byte) ([]share, error) {
	prof, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		total += s.value
		byPkg[attribute(prof, s.locations)] += s.value
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	var out []share
	for _, p := range append(append([]string(nil), sharePackages...), "runtime_gc", "other") {
		out = append(out, share{p, float64(byPkg[p]) / float64(total)})
	}
	return out, nil
}

func attribute(prof *profile, locations []uint64) string {
	var frames []string
	for _, id := range locations {
		frames = append(frames, prof.locations[id]...)
	}
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	const prefix = "prefetch/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, p := range sharePackages {
				if p == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

// profile is the part of a pprof profile packageShares needs.
type profile struct {
	samples   []sample
	locations map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes the gzipped protocol-buffer profile that
// runtime/pprof writes (github.com/google/pprof profile.proto). Only
// the fields named below are read.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type loc struct {
		id    uint64
		funcs []uint64
	}
	var (
		samples []sample
		locs    []loc
		funcs   = map[uint64]int64{} // function id → name string index
		strs    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			var values []uint64
			if err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // Sample.location_id
					return appendPacked(&s.locations, v, b)
				case 2: // Sample.value
					return appendPacked(&values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var l loc
			if err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // Location.id
					l.id = v
				case 4: // Location.line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 { // Line.function_id
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs = append(locs, l)
		case 5: // Profile.function
			var id uint64
			var name int64
			if err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locations: map[uint64][]string{}}
	for _, l := range locs {
		for _, f := range l.funcs {
			idx := funcs[f]
			if idx < 0 || idx >= int64(len(strs)) {
				return nil, fmt.Errorf("function %d names string %d of %d", f, idx, len(strs))
			}
			p.locations[l.id] = append(p.locations[l.id], strs[idx])
		}
	}
	return p, nil
}

// walkFields calls fn for each field of a protocol-buffer message:
// varints arrive in v, length-delimited fields in b.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding: one
// value per field, or a packed run in b.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
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
