package main

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes. It decodes only what attributing CPU time to layers needs:
// samples, locations with their (inlined) lines, functions and the string
// table. The standard library's own decoder is internal to it.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one profile sample: function names from the leaf up,
// inlined frames expanded, and its CPU time in nanoseconds.
type stackSample struct {
	frames []string
	ns     int64
}

var errTruncated = errors.New("profile: truncated protobuf")

// pb reads protobuf wire format from a byte slice.
type pb []byte

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*p) == 0 {
			return 0, errTruncated
		}
		b := (*p)[0]
		*p = (*p)[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// field reads the next field's number and wire type.
func (p *pb) field() (int, int, error) {
	k, err := p.varint()
	return int(k >> 3), int(k & 7), err
}

// bytes reads a length-delimited field's payload.
func (p *pb) bytes() (pb, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(*p)) {
		return nil, errTruncated
	}
	b := (*p)[:n]
	*p = (*p)[n:]
	return b, nil
}

func (p *pb) skip(wire int) error {
	var n int
	switch wire {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes()
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	if len(*p) < n {
		return errTruncated
	}
	*p = (*p)[n:]
	return nil
}

// varints reads a repeated integer field, packed (wire type 2) or not.
func (p *pb) varints(wire int, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		v, err := p.varint()
		return append(dst, v), err
	}
	if wire != 2 {
		return dst, fmt.Errorf("profile: repeated integer with wire type %d", wire)
	}
	packed, err := p.bytes()
	if err != nil {
		return dst, err
	}
	for len(packed) > 0 {
		v, err := packed.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// eachField calls f for every field of msg; f must consume the field's
// value or return errSkip.
func eachField(msg pb, f func(num, wire int, p *pb) error) error {
	for len(msg) > 0 {
		num, wire, err := msg.field()
		if err != nil {
			return err
		}
		if err := f(num, wire, &msg); errors.Is(err, errSkip) {
			if err := msg.skip(wire); err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
	}
	return nil
}

var errSkip = errors.New("skip field")

// decodeProfile decodes a gzipped CPU profile into its samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Profile: 1 sample_type, 2 sample, 4 location, 5 function, 6 string_table.
	var sampleTypes, samples, locations, functions []pb
	var strs []string
	err = eachField(pb(raw), func(num, wire int, p *pb) error {
		var dst *[]pb
		switch num {
		case 1:
			dst = &sampleTypes
		case 2:
			dst = &samples
		case 4:
			dst = &locations
		case 5:
			dst = &functions
		case 6:
			b, err := p.bytes()
			strs = append(strs, string(b))
			return err
		default:
			return errSkip
		}
		b, err := p.bytes()
		*dst = append(*dst, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	// ValueType: 1 type. The CPU profile's values are [samples, cpu ns].
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		err := eachField(st, func(num, wire int, p *pb) error {
			if num != 1 {
				return errSkip
			}
			v, err := p.varint()
			if str(v) == "cpu" {
				valueIdx = i
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Function: 1 id, 2 name.
	funcName := make(map[uint64]string, len(functions))
	for _, fn := range functions {
		var id, name uint64
		err := eachField(fn, func(num, wire int, p *pb) error {
			var err error
			switch num {
			case 1:
				id, err = p.varint()
			case 2:
				name, err = p.varint()
			default:
				return errSkip
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		funcName[id] = str(name)
	}

	// Location: 1 id, 4 line (Line: 1 function_id). Lines run from the
	// innermost inlined function out to its caller.
	locFrames := make(map[uint64][]string, len(locations))
	for _, loc := range locations {
		var id uint64
		var frames []string
		err := eachField(loc, func(num, wire int, p *pb) error {
			switch num {
			case 1:
				var err error
				id, err = p.varint()
				return err
			case 4:
				line, err := p.bytes()
				if err != nil {
					return err
				}
				return eachField(line, func(num, wire int, p *pb) error {
					if num != 1 {
						return errSkip
					}
					fid, err := p.varint()
					frames = append(frames, funcName[fid])
					return err
				})
			}
			return errSkip
		})
		if err != nil {
			return nil, err
		}
		locFrames[id] = frames
	}

	// Sample: 1 location_id (leaf first), 2 value.
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var locs, vals []uint64
		err := eachField(s, func(num, wire int, p *pb) error {
			var err error
			switch num {
			case 1:
				locs, err = p.varints(wire, locs)
			case 2:
				vals, err = p.varints(wire, vals)
			default:
				return errSkip
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if valueIdx < 0 || valueIdx >= len(vals) {
			return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(vals), valueIdx)
		}
		var frames []string
		for _, l := range locs {
			frames = append(frames, locFrames[l]...)
		}
		out = append(out, stackSample{frames: frames, ns: int64(vals[valueIdx])})
	}
	return out, nil
}

// Runtime buckets for samples with no simulator or benchmark frame.
const (
	layerGC    = "runtime.gc_s"
	layerSched = "runtime.sched_s"
	layerOther = "runtime.other_s"
)

// layerOf charges a stack to the nearest simulator package from the leaf
// up, so a chansend under proc counts as proc; the benchmark's own code is
// "bench". Stacks with neither are background GC, the scheduler, or other
// runtime work.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "amoebasim/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest + ".self_s"
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "amoebasim/benchmark.") {
			return "bench.self_s"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return layerGC
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.findRunnable":
			return layerSched
		}
	}
	return layerOther
}

// layerSeconds sums sample CPU time per layer, in seconds, and returns the
// profile total alongside.
func layerSeconds(samples []stackSample) (map[string]float64, float64) {
	ns := map[string]int64{}
	var total int64
	for _, s := range samples {
		ns[layerOf(s.frames)] += s.ns
		total += s.ns
	}
	out := make(map[string]float64, len(ns))
	for l, v := range ns {
		out[l] = float64(v) / 1e9
	}
	return out, float64(total) / 1e9
}
