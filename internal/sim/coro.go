package sim

// A Coro is a coroutine: a body that runs on a goroutine of its own, but
// only while the goroutine that resumed it waits. Resume runs the body
// until it calls Yield or returns; Yield hands control back to the
// goroutine that called Resume. A simulated thread (internal/proc) is a
// coroutine: the event that activates the thread resumes it and gets
// control back when the thread parks, so the event loop never leaves the
// goroutine that called Run, RunUntil or Step, or the Group worker that
// runs a window.
//
// A panic in the body ends the body and is raised again by the Resume or
// Close that was running it. A Coro's methods must not be called from
// two goroutines at once.
type Coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// NewCoro returns a coroutine that runs body at its first Resume. On Go
// 1.23 and later it is iter.Pull's, which switches goroutines without the
// scheduler (coro_pull.go); before, it is NewChanCoro's.
func NewCoro(body func(c *Coro)) *Coro { return newCoro(body) }

// Resume runs c's body until it yields or returns, and reports whether it
// yielded. Once the body has ended, or c has been closed, Resume returns
// false at once.
func (c *Coro) Resume() bool {
	_, ok := c.next()
	return ok
}

// Yield, called by c's body, hands control back to the goroutine that
// resumed it and waits for the next Resume. It reports false if Close
// woke it instead; the body must then return without touching the
// simulator.
func (c *Coro) Yield() bool { return c.yield(struct{}{}) }

// Close ends c. A body that has yielded is woken with Yield reporting
// false and runs until it returns; a body that never started never runs.
// Close returns once c's goroutine has exited. Closing an ended coroutine
// does nothing.
func (c *Coro) Close() { c.stop() }

// NewChanCoro is NewCoro built from a goroutine and a pair of unbuffered
// channels, for toolchains without iter.Pull: each switch is a channel
// handoff through the Go scheduler. It runs a body exactly as NewCoro's
// does; it is compiled in every build so that tests can run both.
func NewChanCoro(body func(c *Coro)) *Coro {
	var (
		in       = make(chan struct{}) // control passes to the body
		out      = make(chan struct{}) // control passes back from it
		done     bool                  // the body has ended or c is being closed
		panicked any
	)
	c := &Coro{}
	c.yield = func(struct{}) bool {
		if done {
			return false
		}
		out <- struct{}{}
		<-in
		return !done
	}
	go func() {
		<-in
		defer func() {
			panicked = recover()
			done = true
			out <- struct{}{}
		}()
		if !done {
			body(c)
		}
	}()
	c.next = func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		in <- struct{}{}
		<-out
		if panicked != nil {
			panic(panicked)
		}
		return struct{}{}, !done
	}
	c.stop = func() {
		if done {
			return
		}
		done = true
		in <- struct{}{}
		<-out
		if panicked != nil {
			panic(panicked)
		}
	}
	return c
}
