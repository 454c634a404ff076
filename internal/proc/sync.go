package proc

import (
	"slices"

	"amoebasim/internal/sim"
)

// Mutex is an Amoeba user-level mutex synchronizing the threads of one
// process (one processor). Uncontended lock/unlock is nearly free (a few
// instructions in user space); contention blocks the caller.
type Mutex struct {
	owner   *Thread
	waiters []*Thread
	locks   int64
}

// Lock acquires the mutex, blocking the calling thread if it is held.
func (m *Mutex) Lock(t *Thread) {
	m.locks++
	t.Charge(lockCost)
	t.stats.Locks++
	t.p.stats.Locks++
	if t.p.mx != nil {
		t.p.mx.locks.Inc()
	}
	if m.owner == nil {
		m.owner = t
		return
	}
	m.waiters = append(m.waiters, t)
	t.Block()
}

// Unlock releases the mutex, handing it to the longest-waiting thread.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic("proc: Unlock of mutex not held by caller")
	}
	t.Charge(lockCost)
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[0:copy(m.waiters, m.waiters[1:])]
	m.owner = next
	t.Flush()
	next.Unblock()
}

// Locks reports how many Lock calls the mutex has seen (the paper profiles
// lock-call counts: the user-space implementation does seven times more).
func (m *Mutex) Locks() int64 { return m.locks }

// Cond is a condition variable tied to a Mutex, matching the primitives
// Panda builds on top of Amoeba mutexes.
type Cond struct {
	mu      *Mutex
	waiters []*Thread
}

// NewCond returns a condition variable using mu.
func NewCond(mu *Mutex) *Cond { return &Cond{mu: mu} }

// Wait atomically releases the mutex and blocks until Signal/Broadcast,
// then reacquires the mutex before returning.
func (c *Cond) Wait(t *Thread) {
	c.waiters = append(c.waiters, t)
	c.mu.Unlock(t)
	t.Block()
	c.mu.Lock(t)
}

// Signal wakes one waiter, if any. The caller should hold the mutex.
func (c *Cond) Signal(t *Thread) {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[0:copy(c.waiters, c.waiters[1:])]
	t.Flush()
	w.Unblock()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	ws := c.waiters
	c.waiters = nil
	t.Flush()
	for _, w := range ws {
		w.Unblock()
	}
}

// Semaphore is a counting semaphore used by protocol daemons to wait for
// queued work.
type Semaphore struct {
	count   int
	waiters []*Thread
}

// Down decrements the semaphore, blocking while it is zero.
func (s *Semaphore) Down(t *Thread) {
	if s.count > 0 {
		s.count--
		return
	}
	s.waiters = append(s.waiters, t)
	t.Block()
}

// Up increments the semaphore from thread context, waking one waiter.
func (s *Semaphore) Up(t *Thread) {
	t.Flush()
	s.up()
}

// UpFromDriver increments the semaphore from driver context (an interrupt
// handler or timer event).
func (s *Semaphore) UpFromDriver() { s.up() }

func (s *Semaphore) up() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[0:copy(s.waiters, s.waiters[1:])]
		w.Unblock()
		return
	}
	s.count++
}

// Value returns the current count (waiters imply zero).
func (s *Semaphore) Value() int { return s.count }

// Queue is where an arriving item waits for the thread that takes it,
// or a thread for its item: a FIFO of items, each stamped with its
// arrival instant, and a FIFO of waiters, each owned by its thread and
// reporting by Accepts whether the thread takes an item. A thread takes
// the oldest item its waiter accepts (Take), or else queues the waiter
// (Wait) and blocks in its own frame; an arrival goes to the
// longest-waiting waiter that accepts it (Put), or else joins the items.
// The queue neither blocks nor wakes a thread: the caller of Put wakes
// the waiter's thread in its own way. Removing an item or a waiter
// clears its slot (slices.Delete does), so the backing arrays keep
// neither alive.
type Queue[T any, W interface{ Accepts(T) bool }] struct {
	items   []stamped[T]
	waiters []W
}

type stamped[T any] struct {
	v  T
	at sim.Time
}

// Take removes the oldest item w accepts and returns it with the instant
// it was put; ok is false when the queue holds none.
func (q *Queue[T, W]) Take(w W) (v T, at sim.Time, ok bool) {
	for i, it := range q.items {
		if w.Accepts(it.v) {
			q.items = slices.Delete(q.items, i, i+1)
			return it.v, it.at, true
		}
	}
	return v, 0, false
}

// Wait queues w behind the waiters already there. The caller blocks
// next; the caller of the Put that returns w wakes it.
func (q *Queue[T, W]) Wait(w W) { q.waiters = append(q.waiters, w) }

// Put removes and returns the longest-waiting waiter that accepts v, for
// the caller to hand v to and wake. When none does, Put queues v,
// stamped with now, and ok is false.
func (q *Queue[T, W]) Put(v T, now sim.Time) (w W, ok bool) {
	for i, x := range q.waiters {
		if x.Accepts(v) {
			q.waiters = slices.Delete(q.waiters, i, i+1)
			return x, true
		}
	}
	q.items = append(q.items, stamped[T]{v: v, at: now})
	return w, false
}

// Len reports how many items are queued.
func (q *Queue[T, W]) Len() int { return len(q.items) }
