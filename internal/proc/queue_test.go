package proc

import (
	"testing"

	"amoebasim/internal/sim"
)

// testWaiter accepts the items accept does, or every item when accept
// is nil.
type testWaiter[T any] struct {
	accept func(T) bool
}

func (w *testWaiter[T]) Accepts(v T) bool { return w.accept == nil || w.accept(v) }

func isEven(v int) bool { return v%2 == 0 }

// TestQueueServesWaitersInFIFOOrder: arrivals go to the waiters in the
// order they began to wait, and once none waits they are queued.
func TestQueueServesWaitersInFIFOOrder(t *testing.T) {
	var q Queue[int, *testWaiter[int]]
	ws := []*testWaiter[int]{{}, {}, {}}
	for _, w := range ws {
		q.Wait(w)
	}
	for i, want := range ws {
		if w, ok := q.Put(i, sim.Time(i)); !ok || w != want {
			t.Fatalf("Put %d went to waiter %p (ok %v), want %p", i, w, ok, want)
		}
	}
	if w, ok := q.Put(9, 9); ok {
		t.Fatalf("Put with no waiter left went to %p", w)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after one unclaimed Put, want 1", q.Len())
	}
}

// TestQueuePutSkipsRefusingWaiter: an item passes over a waiter that
// refuses it and goes to a later one; the refusing waiter keeps its place
// for the next item it accepts.
func TestQueuePutSkipsRefusingWaiter(t *testing.T) {
	var q Queue[int, *testWaiter[int]]
	even, all := &testWaiter[int]{accept: isEven}, &testWaiter[int]{}
	q.Wait(even)
	q.Wait(all)
	if w, ok := q.Put(3, 0); !ok || w != all {
		t.Fatalf("odd item went to %p (ok %v), want the later waiter %p", w, ok, all)
	}
	if w, ok := q.Put(5, 0); ok {
		t.Fatalf("odd item went to %p, which refuses it", w)
	}
	if w, ok := q.Put(4, 0); !ok || w != even {
		t.Fatalf("even item went to %p (ok %v), want the first waiter %p", w, ok, even)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want the one refused item", q.Len())
	}
}

// TestQueueTakeOldestAccepted: Take returns the oldest item its waiter
// accepts with the instant it was put, and the items it passes over stay
// queued in their order.
func TestQueueTakeOldestAccepted(t *testing.T) {
	var q Queue[int, *testWaiter[int]]
	for v := 1; v <= 5; v++ {
		q.Put(v, sim.Time(10*v))
	}
	take := func(w *testWaiter[int], want int) {
		t.Helper()
		v, at, ok := q.Take(w)
		if !ok || v != want || at != sim.Time(10*want) {
			t.Fatalf("Take = %d at %v (ok %v), want %d at %v", v, at, ok, want, sim.Time(10*want))
		}
	}
	even, all := &testWaiter[int]{accept: isEven}, &testWaiter[int]{}
	take(even, 2)
	take(even, 4)
	if v, _, ok := q.Take(even); ok {
		t.Fatalf("Take returned %d, which its waiter refuses", v)
	}
	for _, v := range []int{1, 3, 5} {
		take(all, v)
	}
	if v, _, ok := q.Take(all); ok {
		t.Fatalf("Take on an empty queue returned %d", v)
	}
}

// TestQueueClearsVacatedSlots: removing an item or a waiter clears the
// slot it vacates, so the backing array keeps neither alive.
func TestQueueClearsVacatedSlots(t *testing.T) {
	var q Queue[*int, *testWaiter[*int]]
	items := []*int{new(int), new(int), new(int)}
	for _, p := range items {
		q.Put(p, 1)
	}
	q.Take(&testWaiter[*int]{accept: func(p *int) bool { return p == items[1] }})
	q.Take(&testWaiter[*int]{})
	for i, it := range q.items[len(q.items):cap(q.items)] {
		if it != (stamped[*int]{}) {
			t.Errorf("item slot %d past the length still holds %v", len(q.items)+i, it)
		}
	}

	q = Queue[*int, *testWaiter[*int]]{}
	ws := make([]*testWaiter[*int], len(items))
	for i := range ws {
		p := items[i]
		ws[i] = &testWaiter[*int]{accept: func(v *int) bool { return v == p }}
		q.Wait(ws[i])
	}
	q.Put(items[1], 1)
	q.Put(items[0], 1)
	for i, w := range q.waiters[len(q.waiters):cap(q.waiters)] {
		if w != nil {
			t.Errorf("waiter slot %d past the length still holds %p", len(q.waiters)+i, w)
		}
	}
}

// TestQueueZeroAlloc: once its slices have grown, a queue hands items
// over and queues them without allocating.
func TestQueueZeroAlloc(t *testing.T) {
	var q Queue[*int, *testWaiter[*int]]
	w, v := &testWaiter[*int]{}, new(int)
	cycle := func() {
		q.Wait(w)
		if got, ok := q.Put(v, 1); !ok || got != w {
			t.Fatal("Put did not hand the item to the waiting waiter")
		}
		q.Put(v, 2)
		if _, _, ok := q.Take(w); !ok {
			t.Fatal("Take found no queued item")
		}
	}
	cycle() // grow the slices
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a Wait/Put/Take cycle allocates %.2f objects, budget is 0", avg)
	}
}
