package sim

import "math"

// The event loop and its handoff between goroutines. Run, RunUntil, Step
// and a Group's windows all drive the same bounded loop. Simulated
// threads (internal/proc) are goroutines too, and whichever goroutine
// holds the loop keeps running it: an event that activates a thread hands
// the loop to that thread's goroutine, which runs the thread's code, and
// when the thread parks its goroutine goes on popping events. So an
// activation costs one goroutine switch, not a round trip through the
// goroutine that called Run, and a thread that is activated by an event
// its own goroutine runs costs none. Whichever goroutine reaches the
// loop's bound hands the loop back to the goroutine that called Run.

// noLimit is the event limit of a loop that is not Step's.
const noLimit = math.MaxUint64

// A Runner is a goroutine that can hold a simulator's event loop: the one
// that called Run, RunUntil or Step, or a simulated thread's. Only the
// holder runs; every other runner of the simulator is blocked on its wake
// channel. A Runner must not be copied after first use.
type Runner struct {
	wake    chan struct{}
	resumed bool // the loop was handed to this runner: its loop returns
	exiting bool // set by Exit: hand the loop on without waiting for it back
}

// NewRunner returns a runner for a goroutine that will take the loop with
// Wait, Park and Exit.
func NewRunner() Runner { return Runner{wake: make(chan struct{})} }

// Wait blocks the calling goroutine, whose runner is r, until the loop is
// first handed to it, or until r is closed.
func (r *Runner) Wait() {
	<-r.wake
	r.resumed = false
}

// Close wakes r's goroutine, blocked in Wait or Park, without handing it
// the loop: the call returns at once. It tears down goroutines left
// blocked when a run has ended; the woken goroutine must exit without
// touching the simulator.
func (r *Runner) Close() {
	r.resumed = true
	close(r.wake)
}

// drive runs the loop on the calling goroutine until it reaches its
// bound: no live event at or before last, limit events executed in total,
// or Stop. It re-raises a panic that a thread's goroutine handed over
// with Abort.
func (s *Sim) drive(last Time, limit uint64) {
	s.last, s.limit, s.stopped = last, limit, false
	s.holder = &s.driver
	s.loop(&s.driver)
	if v := s.panicked; v != nil {
		s.panicked = nil
		panic(v)
	}
}

// loop executes events on the calling goroutine, whose runner is me, until
// the loop is handed to me: by an event that resumes me while I hold it
// or after another goroutine took it, or, for the driver, at the bound.
func (s *Sim) loop(me *Runner) {
	for !me.resumed {
		e := s.q.peekLive()
		if e == nil || e.at > s.last || s.events >= s.limit || s.stopped {
			s.Resume(&s.driver)
			continue
		}
		s.q.popMin()
		s.q.maybeShrink()
		s.now = e.at
		fn := e.fn
		s.q.release(e) // recycle before fn runs; fn's own Schedules may reuse it
		s.events++
		fn()
	}
	me.resumed = false
}

// Resume hands the loop to r, whose Wait or Park returns. An event calls
// it as its last action, on the goroutine that holds the loop: that
// goroutine then blocks until the loop is handed back to it, and its own
// loop returns as soon as the event does. If r already holds the loop,
// only the loop returns, with no goroutine switch.
func (s *Sim) Resume(r *Runner) {
	r.resumed = true
	cur := s.holder
	if cur == r {
		return
	}
	s.holder = r
	if cur.exiting {
		cur.resumed = true
		r.wake <- struct{}{}
		return
	}
	r.wake <- struct{}{}
	<-cur.wake
}

// Park runs the loop on the calling goroutine, whose runner r holds it,
// until an event resumes r.
func (s *Sim) Park(r *Runner) {
	if s.holder != r {
		panic("sim: Park from a goroutine that does not hold the event loop")
	}
	s.loop(r)
}

// Exit is Park for a goroutine that is about to exit: it runs the loop
// until it hands the loop to another runner, and returns without waiting
// for it back.
func (s *Sim) Exit(r *Runner) {
	r.exiting = true
	s.Park(r)
}

// Abort hands v, a panic raised on a goroutine other than the driver's
// while it held the loop, to the goroutine that called Run, RunUntil or
// Step, which re-raises it. The calling goroutine must then exit without
// touching the simulator.
func (s *Sim) Abort(v any) {
	d := &s.driver
	s.panicked = v
	d.resumed = true
	s.holder = d
	d.wake <- struct{}{}
}
