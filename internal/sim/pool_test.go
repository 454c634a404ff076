package sim

// White-box tests for the event pool and the specialized queue: handle
// staleness across slot recycling, tombstone compaction, capacity shrink
// after bursts, and the guards on the event key.

import (
	"testing"
	"time"
)

// TestStaleCancelDoesNotHitRecycledSlot is the generation-counter
// guarantee: after an event fires, its pooled slot is recycled for the
// next Schedule; canceling through the old handle must not cancel the new
// occupant.
func TestStaleCancelDoesNotHitRecycledSlot(t *testing.T) {
	s := New()
	fn := func() {}
	stale := s.Schedule(time.Microsecond, fn)
	if !s.Step() {
		t.Fatal("first event did not fire")
	}

	fired := false
	fresh := s.Schedule(time.Microsecond, func() { fired = true })
	if fresh.e != stale.e {
		t.Fatalf("free list did not recycle the slot (stale %p, fresh %p)", stale.e, fresh.e)
	}
	if stale.Pending() {
		t.Fatal("stale handle reports Pending after its slot was recycled")
	}
	if s.Cancel(stale) {
		t.Fatal("stale Cancel reported success")
	}
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
	s.Run()
	if !fired {
		t.Fatal("new occupant did not fire")
	}
}

// TestStaleCancelAfterCancel covers the cancel → recycle → stale-cancel
// path (the slot is recycled via the tombstone route, not the fire route).
func TestStaleCancelAfterCancel(t *testing.T) {
	s := New()
	fn := func() {}
	e := s.Schedule(time.Millisecond, fn)
	if !s.Cancel(e) {
		t.Fatal("cancel of a pending event failed")
	}
	if s.Cancel(e) {
		t.Fatal("double cancel reported success")
	}
	s.Run() // drains the tombstone, releasing the slot
	fresh := s.Schedule(time.Millisecond, fn)
	if s.Cancel(e) {
		t.Fatal("stale Cancel reported success after slot recycling")
	}
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed the recycled slot's new occupant")
	}
}

// TestHandleLifecycle pins the Pending/At semantics of a handle through
// its whole life: scheduled → fired, and the zero handle.
func TestHandleLifecycle(t *testing.T) {
	s := New()
	var zero Event
	if zero.Pending() || zero.At() != 0 || s.Cancel(zero) {
		t.Fatal("zero Event must be inert")
	}
	e := s.Schedule(3*time.Microsecond, func() {})
	if !e.Pending() {
		t.Fatal("scheduled event not Pending")
	}
	if e.At() != Time(3*time.Microsecond) {
		t.Fatalf("At = %v, want 3µs", e.At())
	}
	s.Run()
	if e.Pending() || e.At() != 0 {
		t.Fatal("fired event still Pending")
	}
}

// TestCancelInsideOwnCallback: by the time fn runs the event is released,
// so a self-cancel must be a no-op.
func TestCancelInsideOwnCallback(t *testing.T) {
	s := New()
	var e Event
	e = s.Schedule(time.Microsecond, func() {
		if s.Cancel(e) {
			t.Error("Cancel inside own callback reported success")
		}
	})
	s.Run()
}

// TestTombstoneCompaction: canceling more than half the queue compacts it
// in place; survivors still fire in order.
func TestTombstoneCompaction(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, s.Schedule(time.Duration(i)*time.Microsecond, func() {}))
	}
	for i := 0; i < 1000; i += 2 {
		s.Cancel(evs[i])
	}
	// 500 tombstones vs 500 live: one more cancel crosses the half-way
	// mark and must trigger the compaction pass.
	s.Cancel(evs[1])
	if got := s.q.queued; got != 499 {
		t.Fatalf("queue holds %d events after compaction, want 499 live", got)
	}
	if s.q.dead != 0 {
		t.Fatalf("dead = %d after compaction, want 0", s.q.dead)
	}
	if s.Pending() != 499 {
		t.Fatalf("Pending = %d, want 499", s.Pending())
	}
	var last Time = -1
	n := 0
	for s.q.live() > 0 {
		e := s.q.popLive()
		if e.at < last {
			t.Fatalf("pop order regressed after compaction: %v < %v", e.at, last)
		}
		last = e.at
		s.q.release(e)
		n++
	}
	if n != 499 {
		t.Fatalf("drained %d events, want 499", n)
	}
}

// TestTombstoneCompactionSameInstant: compaction walks the chains. Over
// half of a same-instant chain, its head and tail among them, is canceled;
// the survivors fire in FIFO order, and an event scheduled at the same
// instant afterwards fires after them (the released tail must not be
// extended).
func TestTombstoneCompactionSameInstant(t *testing.T) {
	s := New()
	var got []int
	var evs []Event
	const n = 200
	for i := 0; i < n; i++ {
		evs = append(evs, s.Schedule(time.Millisecond, func() { got = append(got, i) }))
	}
	if len(s.q.heap) != 1 {
		t.Fatalf("%d same-instant events took %d heap nodes, want one chain", n, len(s.q.heap))
	}
	canceled := map[int]bool{0: true, n - 1: true}
	s.Cancel(evs[0])
	s.Cancel(evs[n-1])
	for i := 1; s.q.dead > 0 && i < n-1; i += 2 { // the cancel past half-way compacts
		s.Cancel(evs[i])
		canceled[i] = true
	}
	if s.q.dead != 0 || len(canceled) != n/2+1 {
		t.Fatalf("%d of %d events canceled, %d tombstones left: want compaction at the cancel past half-way",
			len(canceled), n, s.q.dead)
	}
	if want := n - len(canceled); s.q.queued != want || s.Pending() != want {
		t.Fatalf("after compaction queued = %d, Pending = %d, want %d", s.q.queued, s.Pending(), want)
	}
	s.Schedule(time.Millisecond, func() { got = append(got, n) })
	s.Run()
	var want []int
	for i := 0; i <= n; i++ {
		if !canceled[i] {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivors fired out of FIFO order at %d: got %v, want %v", i, got, want)
		}
	}
}

// TestQueueShrinksAfterBurst is the unbounded-growth regression test: a
// 100k-event burst must not leave the heap slice or the free list at peak
// capacity once it drains, whether it is spread over 100k instants (100k
// heap nodes) or sits at one (one chain).
func TestQueueShrinksAfterBurst(t *testing.T) {
	const burst = 100_000
	for _, tc := range []struct {
		name   string
		spread time.Duration // between consecutive burst events
	}{{"spread", time.Microsecond}, {"same-instant", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			fn := func() {}
			for i := 0; i < burst; i++ {
				s.Schedule(time.Duration(i)*tc.spread, fn)
			}
			if s.Pending() != burst {
				t.Fatalf("Pending = %d, want %d", s.Pending(), burst)
			}
			if tc.spread > 0 && cap(s.q.heap) < burst {
				t.Fatalf("heap cap %d never reached burst size", cap(s.q.heap))
			}
			s.Run()

			// Steady-state trickle: queue depth 1. Capacity must be back
			// near the floor, not pinned at the 100k peak.
			for i := 0; i < 64; i++ {
				s.Schedule(time.Microsecond, fn)
				s.Step()
			}
			const bound = 4 * minQueueCap
			if c := cap(s.q.heap); c > bound {
				t.Fatalf("heap cap %d after burst drained, want ≤ %d", c, bound)
			}
			if n := len(s.q.free); n > 2*bound {
				t.Fatalf("free list holds %d slots after burst drained, want ≤ %d", n, 2*bound)
			}
		})
	}
}

// TestSeqLimitPanics: an event key holds a 48-bit sequence number, so a
// partition's 2^48th schedule panics rather than wrapping into the src
// bits, whether the event is local or cross-partition.
func TestSeqLimitPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: the 2^48th schedule did not panic", name)
			}
		}()
		fn()
	}
	s := New()
	s.seq = 1<<seqBits - 2
	s.Schedule(0, func() {}) // seq 2^48-1: the last one that fits
	mustPanic("local", func() { s.Schedule(0, func() {}) })

	a, b := New(), New()
	NewGroup([]*Sim{a, b}, time.Microsecond, 1)
	a.seq = 1<<seqBits - 1
	mustPanic("cross-partition", func() { a.ScheduleOn(b, Time(time.Microsecond), func() {}) })
}

// TestNewGroupPartitionLimit: src takes the top 16 bits of an event key,
// so a group of more than 2^16 partitions is refused.
func TestNewGroupPartitionLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup accepted 2^16+1 partitions")
		}
	}()
	NewGroup(make([]*Sim, 1<<16+1), time.Microsecond, 1)
}

// TestRunUntilSkipsHeadTombstones: a canceled event at the head of the
// queue must not make RunUntil execute a later-than-t event or stall.
func TestRunUntilSkipsHeadTombstones(t *testing.T) {
	s := New()
	e := s.Schedule(time.Millisecond, func() { t.Error("canceled event fired") })
	fired := false
	s.Schedule(10*time.Millisecond, func() { fired = true })
	s.Cancel(e)
	s.RunUntil(Time(5 * time.Millisecond))
	if fired {
		t.Fatal("RunUntil executed an event past its horizon")
	}
	if s.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now = %v, want 5ms", s.Now())
	}
	s.Run()
	if !fired {
		t.Fatal("surviving event never fired")
	}
}
