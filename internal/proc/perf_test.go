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

// BenchmarkThreadHandoff times one activate → park round trip: the
// event loop resumes a blocked thread's goroutine and waits until it
// parks again, two unbuffered channel operations.
func BenchmarkThreadHandoff(b *testing.B) {
	s := sim.New()
	p := New(s, model.Calibrated(), 0, "cpu0")
	defer p.Shutdown()
	th := p.NewThread("w", PrioNormal, func(th *Thread) {
		for {
			th.Block()
		}
	})
	s.Run() // the thread blocks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.activate(th)
	}
}
