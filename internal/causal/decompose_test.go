package causal

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"amoebasim/internal/sim"
)

// decomposeScan is the reference decomposition: it clips the spans to the
// [begin, end] window and tests every clipped span against every
// elementary interval between consecutive edges.
func decomposeScan(begin, end sim.Time, raw []span) [sim.NumPhases]int64 {
	var out [sim.NumPhases]int64
	total := int64(end.Sub(begin))
	if total <= 0 {
		return out
	}
	// Clip to the window, as offsets from begin.
	type clipped struct {
		from, to int64
		ph       sim.PhaseID
	}
	spans := make([]clipped, 0, len(raw))
	pts := make([]int64, 0, 2*len(raw)+2)
	pts = append(pts, 0, total)
	for _, s := range raw {
		from, to := int64(s.from.Sub(begin)), int64(s.to.Sub(begin))
		if from < 0 {
			from = 0
		}
		if to > total {
			to = total
		}
		if to <= from {
			continue
		}
		spans = append(spans, clipped{from: from, to: to, ph: s.ph})
		pts = append(pts, from, to)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	// Sweep the elementary intervals between consecutive boundary points;
	// each is covered wholly or not at all by every span.
	for i := 0; i+1 < len(pts); i++ {
		lo, hi := pts[i], pts[i+1]
		if hi == lo {
			continue
		}
		best, bestPrio := sim.PhaseClient, phasePriority[sim.PhaseClient]
		for _, s := range spans {
			if s.from <= lo && s.to >= hi {
				if p := phasePriority[s.ph]; p > bestPrio {
					best, bestPrio = s.ph, p
				}
			}
		}
		out[best] += hi - lo
	}
	return out
}

// randomOp draws an operation window and a span list that mixes every
// shape the sweep must handle: overlapping spans in random order, spans
// clipped at the window's start or end, empty and inverted spans, and
// runs of contiguous spans of one phase, which OpSpan merges. Times lie
// on a coarse grid so that edges often coincide; some windows are empty.
func randomOp(r *rand.Rand) (begin, end sim.Time, spans []span) {
	grid := sim.Time(1 + r.Intn(1000))
	at := func(lo, hi int) sim.Time { return sim.Time(lo+r.Intn(hi-lo+1)) * grid }
	begin = at(0, 50)
	end = begin + at(-2, 60)
	for n := r.Intn(30); len(spans) < n; {
		ph := sim.PhaseID(r.Intn(int(sim.NumPhases)))
		var from, to sim.Time
		switch r.Intn(5) {
		case 0: // anywhere, overlapping whatever else is there
			from = begin + at(-5, 65)
			to = from + at(1, 30)
		case 1: // clipped at the window's start, or wholly before it
			from = begin - at(1, 20)
			to = begin + at(-5, 30)
		case 2: // clipped at the window's end, or wholly after it
			from = end - at(-5, 30)
			to = end + at(1, 20)
		case 3: // empty or inverted
			from = begin + at(-5, 65)
			to = from - at(0, 5)
		case 4: // a run of contiguous pieces of one phase
			from = begin + at(-5, 60)
			for k := 1 + r.Intn(6); k > 0; k-- {
				to = from + at(0, 10)
				spans = append(spans, span{ph: ph, from: from, to: to})
				from = to
			}
			continue
		}
		spans = append(spans, span{ph: ph, from: from, to: to})
	}
	return begin, end, spans
}

// TestDecomposeMatchesScan: the sweep gives bit-identical phase totals to
// the reference scan, both on raw span lists and on operations fed
// through a collector, where OpSpan merges contiguous runs and several
// operations are live at once, their spans interleaved. The collectors
// keep every operation, or recycle records in an 8-operation flight
// recorder.
func TestDecomposeMatchesScan(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 2000
	}
	r := rand.New(rand.NewSource(1))
	var c Collector
	for i := 0; i < ops; i++ {
		begin, end, spans := randomOp(r)
		o := &Op{Begin: begin, End: end, spans: spans}
		c.decompose(o)
		if got, want := o.Decompose(), decomposeScan(begin, end, spans); got != want {
			t.Fatalf("raw op %d: window [%d,%d] spans %v\nsweep %v\nscan  %v", i, begin, end, spans, got, want)
		}
	}

	type pending struct {
		id         uint64
		begin, end sim.Time
		spans      []span
		next       int
	}
	for _, maxOps := range []int{0, 8} {
		c := NewCollector(maxOps)
		var live []*pending
		for id := uint64(1); id <= uint64(ops) || len(live) > 0; {
			if id <= uint64(ops) && (len(live) == 0 || len(live) < 8 && r.Intn(4) == 0) {
				p := &pending{id: id}
				p.begin, p.end, p.spans = randomOp(r)
				c.OpBegin(p.begin, id, "rpc")
				live = append(live, p)
				id++
				continue
			}
			k := r.Intn(len(live))
			p := live[k]
			if p.next < len(p.spans) {
				s := p.spans[p.next]
				c.OpSpan(p.id, s.ph, s.from, s.to)
				p.next++
				continue
			}
			rec := c.live[p.id]
			c.OpEnd(p.end, p.id, false)
			if got, want := rec.Decompose(), decomposeScan(p.begin, p.end, p.spans); got != want {
				t.Fatalf("maxOps %d, op %d: window [%d,%d] spans %v\ncollector %v\nscan      %v",
					maxOps, p.id, p.begin, p.end, p.spans, got, want)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
}

// rpcSpans returns the end of a window that starts at 0 and 59 spans
// shaped like a user-space RPC's: protocol, wire and scheduling intervals
// in time order, each followed by run contiguous 6 µs register-window
// traps. With run 1 no two consecutive spans share a phase; with run 3
// OpSpan merges about half of them, as on the benchmark's observed-1000
// workload.
func rpcSpans(run int) (end sim.Time, spans []span) {
	phases := []sim.PhaseID{sim.PhaseProtoSend, sim.PhaseFrag, sim.PhaseWire, sim.PhaseProtoRecv, sim.PhaseSched}
	var at sim.Time
	next := func(ph sim.PhaseID, d time.Duration) {
		if len(spans) < 59 {
			spans = append(spans, span{ph: ph, from: at, to: at.Add(d)})
			at = at.Add(d)
		}
	}
	for b := 0; len(spans) < 59; b++ {
		next(phases[b%len(phases)], 80*time.Microsecond)
		for k := 0; k < run; k++ {
			next(sim.PhaseCrossing, 6*time.Microsecond)
		}
	}
	return at.Add(10 * time.Microsecond), spans
}

// TestCollectorAllocBudget: once its buffers are warm, a collector that
// keeps every operation spends one allocation per 59-span operation, its
// completed record; a flight recorder that has wrapped reuses the evicted
// record and spends none.
func TestCollectorAllocBudget(t *testing.T) {
	end, spans := rpcSpans(1)
	for _, tc := range []struct {
		maxOps int
		budget float64
	}{{0, 1}, {64, 0}} {
		c := NewCollector(tc.maxOps)
		var id uint64
		op := func() {
			id++
			record(c, id, 0, end, spans)
		}
		for i := 0; i < 128; i++ {
			op()
		}
		if got := testing.AllocsPerRun(1000, op); got > tc.budget {
			t.Errorf("NewCollector(%d): %.2f allocations per 59-span operation, budget %.0f",
				tc.maxOps, got, tc.budget)
		}
	}
}

// BenchmarkCollector traces 59-span operations shaped like observed-1000's
// RPCs through a collector that keeps every completed operation, as a
// traced run does; a fresh collector every 1024 operations bounds the
// benchmark's memory. B/op is what one operation costs and keeps.
func BenchmarkCollector(b *testing.B) {
	end, spans := rpcSpans(3)
	b.ReportAllocs()
	var c *Collector
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			c = NewCollector(0)
		}
		record(c, uint64(i+1), 0, end, spans)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spans)), "ns/span")
}
