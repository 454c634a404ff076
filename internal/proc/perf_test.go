package proc

import (
	"testing"
	"time"

	"amoebasim/internal/model"
	"amoebasim/internal/sim"
)

// TestComputeDispatchInterruptZeroAlloc: one cycle of the processor's
// event core allocates nothing. The cycle runs an interrupt burst whose
// handler wakes a blocked thread, the dispatch after the switch cost, a
// compute stretched by an interrupt that lands mid-way (suspend and
// resume), an interrupt raised from thread context (a deferred burst
// start) and a sleep: every callback they schedule was bound at New or
// NewThread.
func TestComputeDispatchInterruptZeroAlloc(t *testing.T) {
	s, p := newProc(t)
	preempt := func() { p.Interrupt(5*time.Microsecond, nil) }
	th := p.NewThread("w", PrioNormal, func(th *Thread) {
		for {
			th.Block()
			s.Schedule(50*time.Microsecond, preempt)
			th.Compute(100 * time.Microsecond)
			p.Interrupt(10*time.Microsecond, nil)
			th.Sleep(50 * time.Microsecond)
		}
	})
	s.Run() // the thread blocks
	wake := func() { th.Unblock() }
	cycle := func() {
		p.Interrupt(20*time.Microsecond, wake)
		s.Run()
	}
	cycle() // size the queues
	before := p.Stats()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("compute/dispatch/interrupt cycle allocates %.2f objects/cycle, budget is 0", avg)
	}
	after := p.Stats()
	if after.Preemptions == before.Preemptions || after.ColdDispatches+after.WarmDispatches == before.ColdDispatches+before.WarmDispatches {
		t.Fatalf("cycle missed a path: stats before %+v, after %+v", before, after)
	}
}

// pingPong starts two threads on two processors of s that take turns
// forever: each unblocks the other and blocks, so every activation is one
// dispatch event followed by a handoff of the event loop to the other
// thread's goroutine. Each activation increments *n, and the thread that
// brings *n to stopAt calls s.Stop.
func pingPong(s *sim.Sim, n *int, stopAt *int) (pa, pb *Processor) {
	m := model.Calibrated()
	pa, pb = New(s, m, 0, "cpu0"), New(s, m, 1, "cpu1")
	var a, b *Thread
	turn := func(th, other *Thread) {
		*n++
		if *n == *stopAt {
			s.Stop()
		}
		other.Unblock()
		th.Block()
	}
	a = pa.NewThread("a", PrioNormal, func(th *Thread) {
		for {
			turn(th, b)
		}
	})
	b = pb.NewThread("b", PrioNormal, func(th *Thread) {
		th.Block()
		for {
			turn(th, a)
		}
	})
	return pa, pb
}

// handoffDrivers runs activations until n reaches target, with the event
// loop driven by one Run call or by one Step call per event.
var handoffDrivers = []struct {
	name  string
	drive func(s *sim.Sim, n, stopAt *int, target int)
}{
	{"Run", func(s *sim.Sim, n, stopAt *int, target int) {
		*stopAt = target
		s.Run()
	}},
	{"Step", func(s *sim.Sim, n, stopAt *int, target int) {
		for *n < target {
			s.Step()
		}
	}},
}

// TestThreadHandoffZeroAlloc: handing the event loop from thread to
// thread allocates nothing, whether Run or Step drives the loop.
func TestThreadHandoffZeroAlloc(t *testing.T) {
	for _, d := range handoffDrivers {
		t.Run(d.name, func(t *testing.T) {
			s := sim.New()
			var n, stopAt int
			pa, pb := pingPong(s, &n, &stopAt)
			t.Cleanup(pa.Shutdown)
			t.Cleanup(pb.Shutdown)
			d.drive(s, &n, &stopAt, 10) // start both threads, size the queues
			if avg := testing.AllocsPerRun(100, func() { d.drive(s, &n, &stopAt, n+100) }); avg != 0 {
				t.Fatalf("100 thread handoffs allocate %.2f objects, budget is 0", avg)
			}
		})
	}
}

// BenchmarkThreadHandoff times one thread activation (one op): a
// dispatch event, then a handoff of the event loop to the thread's
// goroutine. Under Run that is one goroutine switch; under Step, which
// takes the loop back after every event, it is two.
func BenchmarkThreadHandoff(b *testing.B) {
	for _, d := range handoffDrivers {
		b.Run(d.name, func(b *testing.B) {
			s := sim.New()
			var n, stopAt int
			pa, pb := pingPong(s, &n, &stopAt)
			defer pa.Shutdown()
			defer pb.Shutdown()
			d.drive(s, &n, &stopAt, 10)
			b.ReportAllocs()
			b.ResetTimer()
			d.drive(s, &n, &stopAt, n+b.N)
		})
	}
}
