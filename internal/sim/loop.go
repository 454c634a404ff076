package sim

import "math"

// The event loop. Run, RunUntil, Step and a Group's windows all drive the
// same bounded loop, and it runs only on the goroutine that calls them (a
// Group worker, for a window). Simulated threads (internal/proc) are
// coroutines (coro.go): an event that activates a thread resumes the
// thread's coroutine, which runs the thread's code while the loop's
// goroutine waits, and the event goes on when the thread parks.

// noLimit is the event limit of a loop that is not Step's.
const noLimit = math.MaxUint64

// drive executes events on the calling goroutine until it reaches its
// bound: no live event at or before last, limit events executed in total,
// or Stop.
func (s *Sim) drive(last Time, limit uint64) {
	s.stopped = false
	for !s.stopped && s.events < limit {
		e := s.q.peekLive()
		if e == nil || e.at > last {
			return
		}
		s.q.popMin()
		s.q.maybeShrink()
		s.now = e.at
		fn := e.fn
		s.q.release(e) // recycle before fn runs; fn's own Schedules may reuse it
		s.events++
		fn()
	}
}
