package sim

import (
	"testing"
	"time"
)

// coro is a minimal simulated thread on the Runner API, shaped like
// internal/proc's threads: its body runs on its own goroutine once an
// event resumes it, park runs the event loop until an event resumes it
// again, and a panic on its goroutine is handed to the driver.
type coro struct {
	s    *Sim
	r    Runner
	done chan struct{}
}

func startCoro(s *Sim, body func(c *coro)) *coro {
	c := &coro{s: s, r: NewRunner(), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer func() {
			if v := recover(); v != nil {
				s.Abort(v)
			}
		}()
		c.r.Wait()
		body(c)
		s.Exit(&c.r)
	}()
	return c
}

func (c *coro) park() { c.s.Park(&c.r) }

// resumeAt schedules an event at t that hands the loop to c.
func (c *coro) resumeAt(t Time) { c.s.ScheduleAt(t, func() { c.s.Resume(&c.r) }) }

// TestStepRunsOneEventAcrossHandoff: a Step whose event hands the loop to
// another goroutine still runs exactly that one event. The goroutine runs
// its code, parks, finds the bound reached and hands the loop back, so
// the events it scheduled stay queued and the clock stays at the event.
func TestStepRunsOneEventAcrossHandoff(t *testing.T) {
	s := New()
	var ran []Time
	c := startCoro(s, func(c *coro) {
		for i := 1; i <= 3; i++ {
			ran = append(ran, s.Now())
			s.Schedule(time.Microsecond, func() { ran = append(ran, s.Now()) })
			c.resumeAt(s.Now().Add(2 * time.Microsecond))
			c.park()
		}
		ran = append(ran, s.Now())
	})
	c.resumeAt(Time(time.Microsecond))
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
	<-c.done
	if len(ran) != 7 || s.EventsRun() != 7 {
		t.Fatalf("ran %d bodies in %d events, want 7 in 7", len(ran), s.EventsRun())
	}
}

// TestStopFromRunnerGoroutine: Stop called by code on another goroutine
// that holds the loop makes Run return once that goroutine parks, with
// the later events still queued.
func TestStopFromRunnerGoroutine(t *testing.T) {
	s := New()
	c := startCoro(s, func(c *coro) {
		s.Stop()
		c.resumeAt(s.Now().Add(time.Microsecond))
		c.park()
	})
	c.resumeAt(Time(time.Microsecond))
	s.Schedule(5*time.Microsecond, func() {})
	s.Run()
	if s.Now() != Time(time.Microsecond) || s.Pending() != 2 {
		t.Fatalf("Run returned at %v with %d pending, want 1µs with 2", s.Now(), s.Pending())
	}
	s.Run()
	<-c.done
	if s.Pending() != 0 || s.Now() != Time(5*time.Microsecond) {
		t.Fatalf("second Run ended at %v with %d pending", s.Now(), s.Pending())
	}
}

// TestAbortReachesDriver: a panic on a goroutine that holds the loop,
// from its own code or from an event it runs while parked, is re-raised
// by the goroutine that called Run, and the next Run works.
func TestAbortReachesDriver(t *testing.T) {
	for _, where := range []string{"code", "event"} {
		t.Run(where, func(t *testing.T) {
			s := New()
			c := startCoro(s, func(c *coro) {
				if where == "code" {
					panic("boom")
				}
				s.Schedule(time.Microsecond, func() { panic("boom") })
				c.park()
			})
			c.resumeAt(0)
			got := func() (v any) {
				defer func() { v = recover() }()
				s.Run()
				return nil
			}()
			if got != "boom" {
				t.Fatalf("Run raised %v, want boom", got)
			}
			<-c.done
			fired := false
			s.Schedule(time.Microsecond, func() { fired = true })
			s.Run()
			if !fired {
				t.Fatal("Run after the panic did not run events")
			}
		})
	}
}

// TestGroupWorkerPanicReachesRun: with several window workers, a panic in
// one partition's event reaches the goroutine that called Group.Run.
func TestGroupWorkerPanicReachesRun(t *testing.T) {
	parts := []*Sim{New(), New()}
	g := NewGroup(parts, time.Microsecond, 2)
	parts[0].Schedule(time.Microsecond, func() {})
	parts[1].Schedule(time.Microsecond, func() { panic("boom") })
	got := func() (v any) {
		defer func() { v = recover() }()
		g.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Group.Run raised %v, want boom", got)
	}
}
