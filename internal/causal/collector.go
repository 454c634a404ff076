// Package causal consumes the span/correlation-id stream a simulation
// emits (sim.CausalTracer) and stitches each operation — a p2p RPC, a
// totally-ordered group send, an Orca read or write — into a
// cross-processor critical path with every nanosecond of end-to-end
// latency attributed to a closed set of phases (sim.PhaseID).
//
// Protocol layers emit phase intervals retroactively and independently:
// they may overlap (a receive interrupt on one machine while a frame is
// still serializing toward another), arrive out of order, and extend past
// the operation window. When the operation ends, the resolver clips every
// interval to the operation's [begin, end] window and sweeps it once,
// giving each instant to the highest-priority phase covering it; instants
// no interval claims are the client's own think/queue time. The result is
// an exact partition: the phase durations sum to the end-to-end latency by
// construction, which the artifact gate asserts (conservation). A
// completed operation keeps only those phase totals, not its intervals.
package causal

import (
	"math/bits"
	"slices"
	"sort"

	"amoebasim/internal/sim"
)

// span is one phase-attributed interval of an operation.
type span struct {
	ph       sim.PhaseID
	from, to sim.Time
}

// Op is one stitched operation: its window, outcome, and the phase
// intervals attributed to it, which OpEnd folds into phase totals.
type Op struct {
	ID     uint64
	Kind   string // "rpc", "group", "orca.read", "orca.write"
	Begin  sim.Time
	End    sim.Time
	Failed bool
	phases [sim.NumPhases]int64 // set by OpEnd
	spans  []span               // while live; returned to the collector at OpEnd
}

// Latency is the operation's end-to-end simulated latency.
func (o *Op) Latency() int64 { return int64(o.End.Sub(o.Begin)) }

// Collector implements sim.CausalTracer: it records operations as the
// simulation emits them. With a positive maxOps it is a bounded-memory
// flight recorder: only the most recent maxOps completed operations are
// retained (older ones are dropped and recycled), so a long workload run
// can keep causal tracing on without unbounded growth.
type Collector struct {
	maxOps int
	live   map[uint64]*Op
	last   *Op // the live operation begun or given a span last, if any
	done   []*Op
	start  int // ring start when the flight recorder wrapped
	free   []*Op
	bufs   [][]span // span slices of ended operations, for the next OpBegin
	edges  []int64  // decomposition scratch

	began      int64 // operations begun
	ended      int64 // operations ended
	dropped    int64 // completed operations evicted by the flight recorder
	lateSpans  int64 // intervals for unknown or already-ended operations
	orphanEnds int64 // OpEnd edges with no matching OpBegin
}

var _ sim.CausalTracer = (*Collector)(nil)

// NewCollector creates a collector. maxOps bounds the completed
// operations retained (flight-recorder mode); 0 retains everything.
func NewCollector(maxOps int) *Collector {
	return &Collector{maxOps: maxOps, live: make(map[uint64]*Op)}
}

// OpBegin implements sim.CausalTracer.
func (c *Collector) OpBegin(at sim.Time, op uint64, kind string) {
	c.began++
	rec := c.alloc()
	rec.ID, rec.Kind, rec.Begin = op, kind, at
	rec.End, rec.Failed = at, false
	if n := len(c.bufs); n > 0 {
		rec.spans = c.bufs[n-1]
		c.bufs = c.bufs[:n-1]
	}
	c.live[op] = rec
	c.last = rec
}

// OpEnd implements sim.CausalTracer.
func (c *Collector) OpEnd(at sim.Time, op uint64, failed bool) {
	rec := c.live[op]
	if rec == nil {
		c.orphanEnds++
		return
	}
	c.ended++
	delete(c.live, op)
	if c.last == rec {
		c.last = nil
	}
	rec.End, rec.Failed = at, failed
	c.decompose(rec)
	c.bufs = append(c.bufs, rec.spans[:0])
	rec.spans = nil
	c.retire(rec)
}

// OpSpan implements sim.CausalTracer. Intervals for operations that
// already ended (or never began) are dropped and counted: the
// decomposition window is closed at OpEnd, so a charge that elapses later
// — e.g. protocol cost still pending on a thread when the operation
// completed — is by definition off the critical path. A decomposition
// depends only on the instants each phase covers, so an empty interval is
// dropped and one that continues the previous interval's phase from its
// end extends it. Runs of intervals belong to one operation, so the
// operation of the last one is looked up only when the id changes.
func (c *Collector) OpSpan(op uint64, ph sim.PhaseID, from, to sim.Time) {
	rec := c.last
	if rec == nil || rec.ID != op {
		if rec = c.live[op]; rec == nil {
			c.lateSpans++
			return
		}
		c.last = rec
	}
	if to <= from {
		return
	}
	if n := len(rec.spans); n > 0 && rec.spans[n-1].ph == ph && rec.spans[n-1].to == from {
		rec.spans[n-1].to = to
		return
	}
	rec.spans = append(rec.spans, span{ph: ph, from: from, to: to})
}

func (c *Collector) alloc() *Op {
	if n := len(c.free); n > 0 {
		rec := c.free[n-1]
		c.free = c.free[:n-1]
		return rec
	}
	return &Op{}
}

// retire appends a completed operation, evicting the oldest one when the
// flight recorder is full.
func (c *Collector) retire(rec *Op) {
	if c.maxOps <= 0 || len(c.done) < c.maxOps {
		c.done = append(c.done, rec)
		return
	}
	old := c.done[c.start]
	c.done[c.start] = rec
	c.start = (c.start + 1) % c.maxOps
	c.dropped++
	c.free = append(c.free, old)
}

// Completed returns the retained completed operations, oldest first.
func (c *Collector) Completed() []*Op {
	out := make([]*Op, 0, len(c.done))
	out = append(out, c.done[c.start:]...)
	out = append(out, c.done[:c.start]...)
	return out
}

// Live reports operations begun but not yet ended.
func (c *Collector) Live() int { return len(c.live) }

// Began reports the total operations begun.
func (c *Collector) Began() int64 { return c.began }

// Ended reports the total operations ended.
func (c *Collector) Ended() int64 { return c.ended }

// Dropped reports completed operations evicted by the flight recorder.
func (c *Collector) Dropped() int64 { return c.dropped }

// LateSpans reports intervals that arrived for unknown or already-ended
// operations (dropped from accounting, never silently merged).
func (c *Collector) LateSpans() int64 { return c.lateSpans }

// OrphanEnds reports OpEnd edges with no matching begin.
func (c *Collector) OrphanEnds() int64 { return c.orphanEnds }

// phasePriority resolves overlap: when several intervals cover the same
// instant, the instant belongs to the highest-priority phase. Active
// processing outranks passive states (wire occupancy, queueing, timer
// idle), and the sequencer's own service outranks everything — it is the
// contended resource the paper's §4.3 analysis centers on.
var phasePriority = [sim.NumPhases]int{
	sim.PhaseSeqService: 13,
	sim.PhaseProtoRecv:  12,
	sim.PhaseProtoSend:  11,
	sim.PhaseFrag:       10,
	sim.PhaseDoorbell:   9,
	sim.PhaseCrossing:   8,
	sim.PhaseSched:      7,
	sim.PhaseWire:       6,
	sim.PhaseSeqQueue:   5,
	sim.PhasePollSpin:   4,
	sim.PhaseRecvQueue:  3,
	sim.PhaseRetrans:    2,
	sim.PhaseClient:     1,
}

// byPriority inverts phasePriority.
var byPriority = func() (out [sim.NumPhases]sim.PhaseID) {
	for ph, p := range phasePriority {
		out[p] = sim.PhaseID(ph)
	}
	return out
}()

// edgeShift packs a span edge into one int64 so that edges sort as plain
// integers: the edge's offset from the operation's begin in the high bits,
// then four bits of phase, then 1 for a start and 0 for an end. Offsets
// below 2^58 ns (about nine years) fit.
const edgeShift = 5

var _ [16 - sim.NumPhases]struct{} // phases and priorities fit four bits

// decompose partitions the operation's [begin, end] window over the phase
// set: every instant goes to the highest-priority interval covering it,
// and uncovered instants go to PhaseClient. It sorts the clipped
// intervals' edges and sweeps them once, counting the open intervals of
// each phase; the durations sum exactly to the end-to-end latency
// (conservation by construction).
func (c *Collector) decompose(o *Op) {
	o.phases = [sim.NumPhases]int64{}
	total := o.Latency()
	if total <= 0 {
		return
	}
	edges := c.edges[:0]
	for _, s := range o.spans {
		from := max(int64(s.from.Sub(o.Begin)), 0)
		to := min(int64(s.to.Sub(o.Begin)), total)
		if to > from {
			ph := int64(s.ph) << 1
			edges = append(edges, from<<edgeShift|ph|1, to<<edgeShift|ph)
		}
	}
	slices.Sort(edges)
	var open [sim.NumPhases]int32
	var covered uint16 // bit p set while a phase of priority p is open
	client := uint16(1) << phasePriority[sim.PhaseClient]
	at := int64(0)
	for _, e := range edges {
		if x := e >> edgeShift; x > at {
			o.phases[byPriority[bits.Len16(covered|client)-1]] += x - at
			at = x
		}
		ph := e >> 1 & (1<<(edgeShift-1) - 1)
		if e&1 == 1 {
			if open[ph]++; open[ph] == 1 {
				covered |= 1 << phasePriority[ph]
			}
		} else if open[ph]--; open[ph] == 0 {
			covered &^= 1 << phasePriority[ph]
		}
	}
	o.phases[sim.PhaseClient] += total - at
	c.edges = edges
}

// Decompose returns the operation's phase totals, computed when it ended:
// its [begin, end] window partitioned over the phase set, summing exactly
// to its end-to-end latency.
func (o *Op) Decompose() [sim.NumPhases]int64 { return o.phases }

// Agg is one operation kind's aggregated decomposition: phase sums over
// all successful operations of that kind, conserving totals.
type Agg struct {
	Kind    string
	Ops     int64 // successful operations aggregated
	Failed  int64 // failed operations (excluded from the sums)
	TotalNS int64 // sum of end-to-end latencies
	Phases  [sim.NumPhases]int64
}

// Aggregate groups completed operations by kind and sums their
// decompositions, sorted by kind. Failed operations are counted but not
// decomposed (their window measures the retry budget, not the protocol).
func Aggregate(ops []*Op) []Agg {
	byKind := make(map[string]*Agg)
	var kinds []string
	for _, o := range ops {
		a := byKind[o.Kind]
		if a == nil {
			a = &Agg{Kind: o.Kind}
			byKind[o.Kind] = a
			kinds = append(kinds, o.Kind)
		}
		if o.Failed {
			a.Failed++
			continue
		}
		a.Ops++
		a.TotalNS += o.Latency()
		d := o.Decompose()
		for ph := range d {
			a.Phases[ph] += d[ph]
		}
	}
	sort.Strings(kinds)
	out := make([]Agg, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, *byKind[k])
	}
	return out
}
