package sim

import (
	"runtime"
	"testing"
	"time"
)

// coroCtors are the coroutine constructors every loop test runs under:
// NewCoro (iter.Pull's on Go 1.23 and later) and the channel-based one.
var coroCtors = []struct {
	name string
	new  func(func(*Coro)) *Coro
}{
	{"default", NewCoro},
	{"chan", NewChanCoro},
}

// forEachCtor runs f as a subtest under each coroutine constructor.
func forEachCtor(t *testing.T, f func(t *testing.T, newCoro func(func(*Coro)) *Coro)) {
	for _, c := range coroCtors {
		t.Run(c.name, func(t *testing.T) { f(t, c.new) })
	}
}

// thread is a minimal simulated thread, shaped like internal/proc's: its
// body is a coroutine that an event resumes, and park yields it until an
// event resumes it again.
type thread struct {
	s  *Sim
	co *Coro
}

func newThread(s *Sim, newCoro func(func(*Coro)) *Coro, body func(th *thread)) *thread {
	th := &thread{s: s}
	th.co = newCoro(func(*Coro) { body(th) })
	return th
}

// park yields the thread; it reports false if the coroutine was closed.
func (th *thread) park() bool { return th.co.Yield() }

// resumeAt schedules an event at t that resumes th.
func (th *thread) resumeAt(t Time) { th.s.ScheduleAt(t, func() { th.co.Resume() }) }

// waitGoroutines fails t unless the number of goroutines falls back to
// want. A coroutine's goroutine that has returned its last control may
// still be on its way out, so it polls for a while.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestStepRunsOneEventAcrossHandoff: a Step whose event hands control to
// a thread's coroutine runs exactly that event. The thread's code runs
// and parks, and the events it scheduled stay queued, so the clock stays
// at the event.
func TestStepRunsOneEventAcrossHandoff(t *testing.T) {
	forEachCtor(t, func(t *testing.T, newCoro func(func(*Coro)) *Coro) {
		s := New()
		var ran []Time
		finished := false
		th := newThread(s, newCoro, func(th *thread) {
			for i := 1; i <= 3; i++ {
				ran = append(ran, s.Now())
				s.Schedule(time.Microsecond, func() { ran = append(ran, s.Now()) })
				th.resumeAt(s.Now().Add(2 * time.Microsecond))
				th.park()
			}
			ran = append(ran, s.Now())
			finished = true
		})
		th.resumeAt(Time(time.Microsecond))
		for steps := 1; ; steps++ {
			n, logged := s.EventsRun(), len(ran)
			if !s.Step() {
				break
			}
			if got := s.EventsRun(); got != n+1 {
				t.Fatalf("step %d ran %d events, want 1", steps, got-n)
			}
			if len(ran) != logged+1 {
				t.Fatalf("step %d ran %d event bodies, want 1", steps, len(ran)-logged)
			}
			if at := ran[logged]; s.Now() != at {
				t.Fatalf("step %d: clock at %v after an event at %v", steps, s.Now(), at)
			}
		}
		if !finished || len(ran) != 7 || s.EventsRun() != 7 {
			t.Fatalf("ran %d bodies in %d events (finished %v), want 7 in 7", len(ran), s.EventsRun(), finished)
		}
		if th.co.Resume() {
			t.Fatal("Resume of an ended coroutine reported a yield")
		}
	})
}

// TestStopFromThreadCode: Stop called by a thread's code makes Run
// return once the thread parks, with the later events still queued.
func TestStopFromThreadCode(t *testing.T) {
	forEachCtor(t, func(t *testing.T, newCoro func(func(*Coro)) *Coro) {
		s := New()
		th := newThread(s, newCoro, func(th *thread) {
			s.Stop()
			th.resumeAt(s.Now().Add(time.Microsecond))
			th.park()
		})
		th.resumeAt(Time(time.Microsecond))
		s.Schedule(5*time.Microsecond, func() {})
		s.Run()
		if s.Now() != Time(time.Microsecond) || s.Pending() != 2 {
			t.Fatalf("Run returned at %v with %d pending, want 1µs with 2", s.Now(), s.Pending())
		}
		s.Run()
		if s.Pending() != 0 || s.Now() != Time(5*time.Microsecond) {
			t.Fatalf("second Run ended at %v with %d pending", s.Now(), s.Pending())
		}
	})
}

// TestThreadPanicReachesCaller: a panic in a thread's code comes back out
// of the Resume that was running it and reaches the caller of Run or
// Step, and the loop runs events again afterwards.
func TestThreadPanicReachesCaller(t *testing.T) {
	forEachCtor(t, func(t *testing.T, newCoro func(func(*Coro)) *Coro) {
		for _, how := range []string{"Run", "Step"} {
			t.Run(how, func(t *testing.T) {
				base := runtime.NumGoroutine()
				s := New()
				th := newThread(s, newCoro, func(th *thread) {
					th.resumeAt(s.Now().Add(time.Microsecond))
					th.park()
					panic("boom")
				})
				th.resumeAt(0)
				got := recovered(func() {
					if how == "Run" {
						s.Run()
						return
					}
					for s.Step() {
					}
				})
				if got != "boom" {
					t.Fatalf("%s raised %v, want boom", how, got)
				}
				if s.Now() != Time(time.Microsecond) {
					t.Fatalf("panic at %v, want 1µs", s.Now())
				}
				if th.co.Resume() {
					t.Fatal("Resume after the panic reported a yield")
				}
				th.co.Close()
				fired := false
				s.Schedule(time.Microsecond, func() { fired = true })
				s.Run()
				if !fired {
					t.Fatal("Run after the panic did not run events")
				}
				waitGoroutines(t, base)
			})
		}
	})
}

// TestThreadPanicReachesGroupRun: with several window workers, a panic in
// a thread that one partition's event resumes reaches the goroutine that
// called Group.Run.
func TestThreadPanicReachesGroupRun(t *testing.T) {
	forEachCtor(t, func(t *testing.T, newCoro func(func(*Coro)) *Coro) {
		parts := []*Sim{New(), New()}
		g := NewGroup(parts, time.Microsecond, 2)
		parts[0].Schedule(time.Microsecond, func() {})
		th := newThread(parts[1], newCoro, func(th *thread) { panic("boom") })
		th.resumeAt(Time(time.Microsecond))
		if got := recovered(g.Run); got != "boom" {
			t.Fatalf("Group.Run raised %v, want boom", got)
		}
	})
}

// TestGroupWorkerPanicReachesRun: with several window workers, a panic in
// one partition's event reaches the goroutine that called Group.Run.
func TestGroupWorkerPanicReachesRun(t *testing.T) {
	parts := []*Sim{New(), New()}
	g := NewGroup(parts, time.Microsecond, 2)
	parts[0].Schedule(time.Microsecond, func() {})
	parts[1].Schedule(time.Microsecond, func() { panic("boom") })
	if got := recovered(g.Run); got != "boom" {
		t.Fatalf("Group.Run raised %v, want boom", got)
	}
}

// TestCloseEndsCoroutine: closing a coroutine ends its goroutine. A parked
// body sees Yield report false and returns, running nothing after it; a
// body that never started never runs; closing twice, or resuming after a
// close, does nothing.
func TestCloseEndsCoroutine(t *testing.T) {
	forEachCtor(t, func(t *testing.T, newCoro func(func(*Coro)) *Coro) {
		base := runtime.NumGoroutine()
		s := New()
		var log []string
		parked := newThread(s, newCoro, func(th *thread) {
			log = append(log, "parked runs")
			if !th.park() {
				log = append(log, "parked closed")
				return
			}
			log = append(log, "parked resumed")
		})
		never := newThread(s, newCoro, func(th *thread) { log = append(log, "never runs") })
		parked.resumeAt(0)
		s.Run()
		parked.co.Close()
		never.co.Close()
		parked.co.Close()
		if parked.co.Resume() || never.co.Resume() {
			t.Fatal("Resume after Close reported a yield")
		}
		if want := []string{"parked runs", "parked closed"}; len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
			t.Fatalf("log %q, want %q", log, want)
		}
		waitGoroutines(t, base)
	})
}
