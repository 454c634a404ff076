package metrics

// Tests and benchmarks for the allocation-free handle-lookup path: the
// hot `name{k=v,...}` key is built in reused scratch and probed with the
// compiler's no-copy map[string] lookup, so re-resolving an existing
// series allocates nothing.

import (
	"testing"
)

// TestLookupCanonicalOrder pins that the scratch-based key builder
// canonicalizes label order exactly like the snapshot does: any
// permutation resolves to the same handle, and the snapshot names the
// one series by its canonical identity.
func TestLookupCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("flip.packets", L("proc", "cpu1"), L("nic", "0"), L("dir", "tx"))
	b := r.Counter("flip.packets", L("dir", "tx"), L("proc", "cpu1"), L("nic", "0"))
	c := r.Counter("flip.packets", L("nic", "0"), L("dir", "tx"), L("proc", "cpu1"))
	if a != b || b != c {
		t.Fatal("label permutations resolved to distinct series")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 {
		t.Fatalf("snapshot has %d counters, want 1", len(snap.Counters))
	}
	s := snap.Counters[0]
	if id, want := string(appendID(nil, s.Name, s.Labels)), "flip.packets{dir=tx,nic=0,proc=cpu1}"; id != want {
		t.Fatalf("ID = %q, want %q", id, want)
	}
}

// TestLookupZeroAlloc: re-resolving an existing single series — the
// path a series made while a run goes takes on each use — must not
// allocate, for counters, gauges and histograms, with and without
// labels.
func TestLookupZeroAlloc(t *testing.T) {
	r := NewRegistry()
	labels := []Label{L("proc", "cpu0"), L("app", "tsp")}
	r.Counter("sim.events", labels...)
	r.Gauge("sim.queue_depth", labels...)
	r.Histogram("rpc.latency", labels...)
	r.Counter("sim.bare")

	if avg := testing.AllocsPerRun(1000, func() {
		r.Counter("sim.events", labels...)
		r.Gauge("sim.queue_depth", labels...)
		r.Histogram("rpc.latency", labels...)
		r.Counter("sim.bare")
	}); avg != 0 {
		t.Fatalf("existing-handle lookup allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestLookupUnsortedZeroAlloc: a lookup whose labels arrive out of
// canonical order must still be allocation-free (the insertion sort works
// in the reused scratch).
func TestLookupUnsortedZeroAlloc(t *testing.T) {
	r := NewRegistry()
	sorted := []Label{L("a", "1"), L("b", "2"), L("c", "3")}
	unsorted := []Label{L("c", "3"), L("a", "1"), L("b", "2")}
	r.Counter("x.y", sorted...)
	if avg := testing.AllocsPerRun(1000, func() {
		r.Counter("x.y", unsorted...)
	}); avg != 0 {
		t.Fatalf("unsorted lookup allocates %.2f objects/op, budget is 0", avg)
	}
}

func BenchmarkLookupExisting(b *testing.B) {
	r := NewRegistry()
	labels := []Label{L("proc", "cpu0"), L("app", "tsp")}
	r.Counter("sim.events", labels...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("sim.events", labels...)
	}
}

func BenchmarkLookupExistingBare(b *testing.B) {
	r := NewRegistry()
	r.Counter("sim.events")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("sim.events")
	}
}
