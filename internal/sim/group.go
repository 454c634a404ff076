package sim

// Conservative parallel execution for one simulation. A Group owns P
// partition simulators (one per ether segment or switch group) and runs
// them in lookahead windows:
//
//	merge cross-partition outboxes → W = min next event time + lookahead
//	→ every partition executes its events with at < W, in parallel
//	→ repeat
//
// The lookahead is the minimum simulated latency of any cross-partition
// interaction (for ether: the minimum frame transmit time between
// segments, or the switch uplink latency), so an event executing inside
// the window can only schedule cross-partition work at or beyond the
// window edge — no partition can receive an event "from the past", and
// the window executions are independent.
//
// Determinism: cross-partition events carry the sender's (schedule-time,
// partition, sequence) stamps and are merged under the queue's total
// order (at, gat, src, seq), so the pop order of every partition depends
// only on simulation content — never on how many workers run the windows
// or how the Go scheduler interleaves them. A Group run with workers=1
// and workers=N are identical by construction; identity against the
// historical single-queue engine is enforced by the byte-identity gates
// in CI and the bench perf cells.
//
// Memory model: within a window each partition is touched by exactly one
// worker; successive windows are separated by a WaitGroup barrier, and
// the outbox row of a partition is written only by the worker currently
// executing that partition, then read single-threaded at the merge. A
// partition's window is its own bounded event loop (loop.go), run on the
// worker; a simulated thread it activates is a coroutine that runs while
// the worker waits. So at most one goroutine per partition being executed
// is running at once, always on disjoint partition state.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// xevent is one staged cross-partition event, carrying the sender's
// deterministic ordering stamps.
type xevent struct {
	at  Time
	gat Time
	key uint64
	fn  func()
}

// Group coordinates conservative parallel execution of its partition
// simulators. Build one with NewGroup; drive it with Run or RunUntil.
type Group struct {
	parts     []*Sim
	lookahead time.Duration
	workers   int
	outbox    [][][]xevent // [src partition][dst partition]
	stopped   bool
}

// NewGroup binds the partition simulators into a conservative parallel
// group. lookahead must be a lower bound on the simulated latency of any
// cross-partition ScheduleOn (values below 1ns are clamped up, which
// degenerates to running one timestamp per window — correct but slow).
// workers is the number of window-execution goroutines; any value
// produces identical results, and values above len(parts) are clamped.
// A group holds at most 2^16 partitions, the width of src in an event key.
func NewGroup(parts []*Sim, lookahead time.Duration, workers int) *Group {
	if len(parts) > 1<<(64-seqBits) {
		panic(fmt.Sprintf("sim: %d partitions, more than 2^%d", len(parts), 64-seqBits))
	}
	if lookahead < 1 {
		lookahead = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	g := &Group{parts: parts, lookahead: lookahead, workers: workers}
	g.outbox = make([][][]xevent, len(parts))
	for i := range g.outbox {
		g.outbox[i] = make([][]xevent, len(parts))
	}
	for i, p := range parts {
		p.part = int32(i)
		p.group = g
	}
	return g
}

// Parts returns the partition simulators (index = partition id).
func (g *Group) Parts() []*Sim { return g.parts }

// Lookahead returns the conservative window size in simulated time.
func (g *Group) Lookahead() time.Duration { return g.lookahead }

// send stages a cross-partition event from src to dst. It shares src's
// sequence counter with src's local events, so an event's stamps encode
// exactly where in src's execution it was created.
func (g *Group) send(src, dst *Sim, t Time, fn func()) {
	if t < src.now {
		panic(fmt.Sprintf("sim: cross-partition schedule at %v before now %v", t, src.now))
	}
	if fn == nil {
		panic("sim: ScheduleOn with nil callback")
	}
	g.outbox[src.part][dst.part] = append(g.outbox[src.part][dst.part],
		xevent{at: t, gat: src.now, key: src.nextKey(), fn: fn})
}

// merge drains every outbox into the destination queues. Insertion order
// is irrelevant — the queue comparator is a strict total order — so no
// sort is needed for determinism. Each merged event is a heap node of its
// own: only a partition's own consecutive schedules may share a chain.
// Runs single-threaded between windows.
func (g *Group) merge() {
	for si := range g.outbox {
		row := g.outbox[si]
		for di := range row {
			box := row[di]
			if len(box) == 0 {
				continue
			}
			dst := g.parts[di]
			for i := range box {
				x := &box[i]
				if x.at < dst.now {
					// A violated lookahead bound would silently reorder
					// causality; fail loudly instead.
					panic(fmt.Sprintf("sim: lookahead violation: partition %d sent event at %v to partition %d already at %v",
						si, x.at, di, dst.now))
				}
				e := dst.q.alloc()
				e.at = x.at
				e.gat = x.gat
				e.key = x.key
				e.fn = x.fn
				dst.q.push(e)
				*x = xevent{} // drop the fn reference
			}
			row[di] = box[:0]
		}
	}
}

// runWindow executes this partition's events with at < w (half-open so
// an event exactly at the window edge waits for the next merge), leaving
// the clock at the last executed event.
func (s *Sim) runWindow(w Time) { s.drive(w-1, noLimit) }

// runParallel executes one window on every partition, fanning the
// partitions over the worker goroutines. Partitions are claimed through
// an atomic counter; since windows are independent, the claim order
// cannot affect results.
func (g *Group) runParallel(w Time) {
	if g.workers <= 1 {
		for _, p := range g.parts {
			p.runWindow(w)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed any // the first panic of a worker, re-raised here
	for i := 0; i < g.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					if failed == nil {
						failed = v
					}
					mu.Unlock()
				}
			}()
			for {
				k := atomic.AddInt64(&next, 1)
				if k >= int64(len(g.parts)) {
					return
				}
				g.parts[k].runWindow(w)
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
}

// step runs one merge + one lookahead window. limit bounds the window
// when hasLimit is set. It reports whether any partition still had work.
func (g *Group) step(limit Time, hasLimit bool) bool {
	g.merge()
	var minNext Time
	found := false
	for _, p := range g.parts {
		if e := p.q.peekLive(); e != nil && (!found || e.at < minNext) {
			minNext, found = e.at, true
		}
	}
	if !found || (hasLimit && minNext > limit) {
		return false
	}
	w := minNext.Add(g.lookahead)
	if hasLimit && w > limit+1 {
		w = limit + 1 // half-open: still executes events exactly at limit
	}
	g.runParallel(w)
	return true
}

// Run executes windows until every partition's queue is empty or Stop is
// called. Unlike Sim.Stop, a Group stop takes effect at the next window
// barrier, not the next event.
func (g *Group) Run() {
	g.stopped = false
	for !g.stopped && g.step(0, false) {
	}
}

// RunUntil executes events with time ≤ t, then advances every partition's
// clock to t.
func (g *Group) RunUntil(t Time) {
	g.stopped = false
	for !g.stopped && g.step(t, true) {
	}
	for _, p := range g.parts {
		if t > p.now {
			p.now = t
		}
	}
}

// Stop makes Run or RunUntil return at the next window barrier.
func (g *Group) Stop() { g.stopped = true }

// EventsRun reports the total events executed across all partitions.
// Cross-partition sends cost exactly one event in both this engine and
// the single-queue one (the staged event fires once after the merge), so
// the count is engine-independent and safe to regression-gate.
func (g *Group) EventsRun() uint64 {
	var n uint64
	for _, p := range g.parts {
		n += p.EventsRun()
	}
	return n
}

// Pending reports the number of live events queued across all partitions
// plus staged cross-partition events not yet merged.
func (g *Group) Pending() int {
	n := 0
	for _, p := range g.parts {
		n += p.Pending()
	}
	for _, row := range g.outbox {
		for _, box := range row {
			n += len(box)
		}
	}
	return n
}
