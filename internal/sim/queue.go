package sim

// This file is the scheduler's hot path: a 4-ary min-heap of FIFO chains
// of pooled event slots, ordered by (at, gat, src, seq). Each heap node is
// the head of a chain of events that fire one after another:
//
//   - A local schedule (Sim.ScheduleAt) goes behind the previous local
//     schedule when that event is still queued and has the same (at, gat);
//     otherwise it becomes a heap node of its own. Merged cross-partition
//     events (group.go) are always nodes of their own.
//   - Popping a head whose chain continues puts the successor in the root
//     slot with no sift. A broadcast wave — one frame reaching every
//     member of a group at the same instant, then each member's interrupt
//     at the next — is one chain per instant, so it pops without sift
//     work, however deep the queue.
//   - Push and pop sift inline on a []node with no interface
//     conversions (no container/heap). A node keeps its head's at beside
//     the pointer, so a sift reads an event only when two instants tie.
//     A 4-ary layout halves the tree depth of a binary heap; the four
//     children share at most two cache lines.
//   - Fired and canceled events return to a free list and are recycled, so
//     steady-state Schedule/Step allocates nothing. A generation counter
//     on each slot makes a stale handle's Cancel a safe no-op.
//   - Cancel is O(1) lazy deletion: the slot is tombstoned (fn = nil) and
//     skipped when it surfaces at the root. When tombstones outnumber live
//     events the chains are walked, the tombstones dropped and the heads
//     re-heapified, in one O(n) pass.
//   - The heap slice and the free list shrink after bursts, so a long
//     soak does not hold its peak-burst memory for the rest of the run.
//     Both the compaction trigger and the free-list trim count queued
//     events, not heap nodes: one node may hold a whole burst.
//
// Determinism: pop order is exactly ascending (at, gat, src, seq). The
// comparator is a total order ((src, seq) is unique), so any heap shape
// yields the same pop sequence, and lazy deletion and compaction never
// reorder live events. Chains keep that order exactly. Two consecutive
// local schedules share src, and their seqs are adjacent in this queue
// (the seqs in between went to cross-partition sends, which are queued
// elsewhere). Later local schedules carry larger seqs and a gat at least
// as large. So when the two also share (at, gat), no event queued here,
// then or later, can sort strictly between them, and each chain is a
// contiguous run of the total order. Its successor is therefore the
// minimum once its head pops. The gat comparison is what makes this hold
// under partitioned execution: a merged event with the same at and a gat
// between those of two local schedules sorts between them.
//
// gat (generation-at) is the clock value when the event was scheduled and
// src is the scheduling partition. On a lone simulator they are inert:
// src is constant and gat is nondecreasing in seq (the clock never runs
// backwards), so (at, gat, src, seq) sorts exactly like the historical
// (at, seq) and committed baselines are unaffected. Under partitioned
// execution (group.go) they make the pop order independent of worker
// interleaving: a cross-partition event carries the sender's stamps, so
// merged and local events interleave by simulation content alone.

// event is one pooled scheduler slot. fn == nil marks a tombstone (the
// slot was canceled but is still queued); gen increments every time the
// slot is released to the free list, invalidating outstanding handles.
// The slot is 48 bytes, one of the allocator's size classes; one more
// word would put it in the 64-byte class. TestEventSlotBudget keeps it
// there.
type event struct {
	at   Time
	gat  Time   // scheduling-time clock of the source partition
	key  uint64 // src<<seqBits | seq: scheduling partition, then sequence
	gen  uint64
	fn   func()
	next *event // successor in this event's chain; nil off the queue
}

// seqBits is the width of the sequence number in an event key. A
// partition that schedules its 2^48th event panics (nextKey), and a group
// holds at most 2^16 partitions (NewGroup).
const seqBits = 48

// minQueueCap is the capacity floor below which the heap and free list
// are never shrunk, and the queue size below which tombstone compaction
// is not worth a pass.
const minQueueCap = 64

// node is one heap entry: a chain head and the instant it fires at.
type node struct {
	at Time
	e  *event
}

// eventQueue is the pooled 4-ary min-heap of chains. The zero value is
// ready to use.
type eventQueue struct {
	heap   []node // chain heads
	free   []*event
	tail   *event // the owner's last local schedule while it is queued
	queued int    // events queued, tombstones included
	dead   int    // tombstoned events still queued
}

// less orders nodes by their events' (time, schedule-time clock, source
// partition, insertion sequence) so simultaneous events fire in a
// deterministic order that does not depend on how partitions interleave
// on the wall clock. On a lone simulator this degenerates to FIFO (at,
// seq) order.
func less(a, b node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.e.gat != b.e.gat {
		return a.e.gat < b.e.gat
	}
	return a.e.key < b.e.key
}

// nextKey advances s's sequence counter and returns the key of the event
// it numbers.
func (s *Sim) nextKey() uint64 {
	s.seq++
	if s.seq == 1<<seqBits {
		panic("sim: a partition scheduled 2^48 events, more than an event key holds")
	}
	return uint64(s.part)<<seqBits | s.seq
}

// live reports the number of non-tombstoned events queued.
func (q *eventQueue) live() int { return q.queued - q.dead }

// alloc takes a slot from the free list, or mints one.
func (q *eventQueue) alloc() *event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	return &event{}
}

// release invalidates every outstanding handle to e and returns the slot
// to the free list.
func (q *eventQueue) release(e *event) {
	e.gen++
	e.fn = nil
	q.free = append(q.free, e)
}

// pushLocal queues e, which the owning simulator has just scheduled:
// behind its previous local schedule when that one is still queued at the
// same (at, gat), else as a node of its own. The tail's src is always the
// owner's, so it needs no comparison.
func (q *eventQueue) pushLocal(e *event) {
	if t := q.tail; t != nil && t.at == e.at && t.gat == e.gat {
		t.next = e
		q.queued++
	} else {
		q.push(e)
	}
	q.tail = e
}

// push queues e as a heap node of its own, sifting it up from the bottom.
func (q *eventQueue) push(e *event) {
	q.queued++
	x := node{at: e.at, e: e}
	q.heap = append(q.heap, x)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// popMin removes and returns the minimum event, tombstone or not. Its
// successor in the chain, if any, is the new minimum and takes the root
// slot without a sift.
func (q *eventQueue) popMin() *event {
	h := q.heap
	e := h[0].e
	q.queued--
	if nx := e.next; nx != nil {
		e.next = nil
		h[0].e = nx // same at: a chain shares its instant
		return e
	}
	if e == q.tail { // the tail always ends its chain
		q.tail = nil
	}
	n := len(h) - 1
	h[0] = h[n]
	h[n] = node{}
	q.heap = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return e
}

// siftDown restores the heap property from index i toward the leaves.
func (q *eventQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c // minimum of the (up to four) children
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// popLive removes and returns the next live event, releasing any
// tombstones that surface on the way. It returns nil when the queue is
// empty.
func (q *eventQueue) popLive() *event {
	for len(q.heap) > 0 {
		e := q.popMin()
		q.maybeShrink()
		if e.fn == nil {
			q.dead--
			q.release(e)
			continue
		}
		return e
	}
	return nil
}

// peekLive returns the next live event without removing it, draining any
// tombstones at the top. It returns nil when the queue is empty.
func (q *eventQueue) peekLive() *event {
	for len(q.heap) > 0 {
		e := q.heap[0].e
		if e.fn != nil {
			return e
		}
		q.popMin()
		q.dead--
		q.release(e)
	}
	return nil
}

// compact drops every tombstone in one pass over the chains and
// re-heapifies the surviving heads. Called when tombstones outnumber live
// events, so the amortized cost per cancel stays O(1). Survivors keep
// their chain order, and heapify preserves the pop order because the
// comparator is a total order. The tail may have been released, so it is
// cleared: the next local schedule starts a node of its own.
func (q *eventQueue) compact() {
	h := q.heap
	w := 0
	for _, x := range h {
		e := x.e
		var head *event
		link := &head // where the next survivor of this chain goes
		for e != nil {
			nx := e.next
			e.next = nil
			if e.fn == nil {
				q.release(e)
			} else {
				*link = e
				link = &e.next
			}
			e = nx
		}
		if head != nil {
			h[w] = node{at: head.at, e: head}
			w++
		}
	}
	clear(h[w:])
	q.heap = h[:w]
	q.queued -= q.dead
	q.dead = 0
	q.tail = nil
	for i := (w - 2) >> 2; i >= 0; i-- {
		q.siftDown(i)
	}
}

// maybeShrink gives memory back after a burst. When the heap occupies a
// quarter or less of its capacity the backing array is reallocated at
// twice its length. When the free list holds more than twice its limit —
// twice the queued events plus the floor — it is cut back to that limit,
// so a drained 100k-event burst does not pin 100k dead slots, even one
// that sat at a single instant in a single heap node. The 2x and 4x
// hysteresis keeps steady-state traffic from thrashing between grow and
// shrink.
func (q *eventQueue) maybeShrink() {
	if c := cap(q.heap); c > minQueueCap && len(q.heap) <= c/4 {
		nh := make([]node, len(q.heap), max(2*len(q.heap), minQueueCap))
		copy(nh, q.heap)
		q.heap = nh
	}
	if limit := 2*q.queued + minQueueCap; len(q.free) > 2*limit {
		nf := make([]*event, limit)
		copy(nf, q.free[:limit])
		q.free = nf
	}
}
