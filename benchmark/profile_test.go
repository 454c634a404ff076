package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"amoebasim/internal/sim"
)

var permSink int

// TestProfileChargesKnownPackage profiles a loop that spends its time in
// internal/sim and checks the decoded profile charges most of it there,
// with every sample in exactly one bucket.
func TestProfileChargesKnownPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(1)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		permSink += r.Perm(4096)[0]
	}
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	layers, total := layerSeconds(samples)
	if total < 0.1 {
		t.Fatalf("profile holds %.3fs of CPU, want most of the 0.5s spin", total)
	}
	var sum float64
	for _, s := range layers {
		sum += s
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %.9fs, profile total %.9fs", sum, total)
	}
	// The race detector's own code has no Go frames, so judge sim's share
	// of the samples charged to any package.
	attributed := total - layers[layerGC] - layers[layerSched] - layers[layerOther]
	if share := layers["sim.self_s"] / attributed; share < 0.9 {
		t.Errorf("sim has %.2f of the %.3fs charged to packages, want >= 0.9; buckets %v", share, attributed, layers)
	}
}

func TestLayerOfBuckets(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chansend", "runtime.chansend1", "amoebasim/internal/proc.(*Thread).park",
			"amoebasim/internal/panda.(*User).Call", "main.runRPCPool.func2.1"}, "proc.self_s"},
		{[]string{"runtime.mapassign_fast64", "amoebasim/internal/flip.WarmRoutes", "main.warmRoutes.func1"}, "flip.self_s"},
		{[]string{"amoebasim/internal/faults/sub.F"}, "faults.self_s"},
		{[]string{"main.(*orderOracle).deliver", "amoebasim/internal/panda.(*userGroup).deliver"}, "bench.self_s"},
		{[]string{"amoebasim/benchmark.refLoop"}, "bench.self_s"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, layerGC},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, layerGC},
		{[]string{"runtime._GC"}, layerGC},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerSched},
		{[]string{"runtime.gogo", "runtime.mcall"}, layerSched},
		{[]string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1"}, layerOther},
		{[]string{"runtime._System"}, layerOther},
		{nil, layerOther},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// pbw is a protobuf writer for building synthetic profiles.
type pbw []byte

func (w *pbw) varint(v uint64) {
	for v >= 0x80 {
		*w = append(*w, byte(v)|0x80)
		v >>= 7
	}
	*w = append(*w, byte(v))
}

func (w *pbw) int(field int, v uint64) { w.varint(uint64(field)<<3 | 0); w.varint(v) }

func (w *pbw) msg(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	*w = append(*w, b...)
}

func (w *pbw) packed(field int, vs ...uint64) {
	var p pbw
	for _, v := range vs {
		p.varint(v)
	}
	w.msg(field, p)
}

// TestDecodeSyntheticProfile covers what runtime/pprof may or may not
// emit for a given profile: unpacked and packed repeated fields, inlined
// lines, skipped fields and the cpu value column.
func TestDecodeSyntheticProfile(t *testing.T) {
	var p pbw
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"amoebasim/internal/sim.(*Rand).Uint64", "amoebasim/internal/sim.(*Rand).Perm", "main.spin"}
	for _, typ := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pbw
		vt.int(1, typ[0])
		vt.int(2, typ[1])
		p.msg(1, vt)
	}
	// Sample 1: one location, unpacked fields. Sample 2: two, packed.
	var s1 pbw
	s1.int(1, 10)
	s1.int(2, 1)
	s1.int(2, 10_000_000)
	p.msg(2, s1)
	var s2 pbw
	s2.packed(1, 10, 20)
	s2.packed(2, 3, 30_000_000)
	p.msg(2, s2)
	// Location 10 inlines Uint64 into Perm; location 20 is main.spin.
	var l10, l20, line pbw
	l10.int(1, 10)
	l10.int(3, 0x1234) // address, skipped
	line.int(1, 1)
	line.int(2, 17)
	l10.msg(4, line)
	line = nil
	line.int(1, 2)
	l10.msg(4, line)
	p.msg(4, l10)
	l20.int(1, 20)
	line = nil
	line.int(1, 3)
	l20.msg(4, line)
	p.msg(4, l20)
	for id, name := range []uint64{5, 6, 7} {
		var f pbw
		f.int(1, uint64(id+1))
		f.int(2, name)
		p.msg(5, f)
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	p.int(10, 123) // duration_nanos, skipped

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{frames: []string{strs[5], strs[6]}, ns: 10_000_000},
		{frames: []string{strs[5], strs[6], strs[7]}, ns: 30_000_000},
	}
	if len(samples) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(want))
	}
	for i := range want {
		if !slices.Equal(samples[i].frames, want[i].frames) || samples[i].ns != want[i].ns {
			t.Errorf("sample %d = %+v, want %+v", i, samples[i], want[i])
		}
	}
	layers, total := layerSeconds(samples)
	if layers["sim.self_s"] != 0.04 || total != 0.04 {
		t.Errorf("layers %v total %v, want all 0.04s in sim", layers, total)
	}

	if _, err := decodeProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
