package proc

import (
	"runtime"
	"testing"
	"time"

	"amoebasim/internal/model"
	"amoebasim/internal/sim"
)

// Tests of which goroutine runs the event loop: a thread's goroutine keeps
// running events after the thread parks, and hands the loop back to the
// goroutine that called Run, RunUntil or Step at the loop's bound.

// waitGoroutines fails t unless the number of goroutines falls back to
// want. A goroutine that has closed its thread's Done channel may still be
// on its way out, so it polls for a while.
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

// waitDone fails t unless the goroutines of ths all exit.
func waitDone(t *testing.T, ths ...*Thread) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for _, th := range ths {
		select {
		case <-th.Done():
		case <-timeout:
			t.Fatalf("goroutine of thread %s did not exit", th.Name())
		}
	}
}

// TestStepRunsOneEventWhenThreadActivates: a Step whose event activates a
// thread runs exactly that event. The thread's code runs, the thread
// parks, and its goroutine hands the loop back before the compute-done
// event it scheduled, so the clock stays at the activation.
func TestStepRunsOneEventWhenThreadActivates(t *testing.T) {
	s, p := newProc(t)
	var ran []sim.Time // instants at which thread code or a plain event ran
	p.NewThread("w", PrioNormal, func(th *Thread) {
		for i := 0; i < 3; i++ {
			ran = append(ran, s.Now())
			th.Compute(time.Millisecond)
		}
		ran = append(ran, s.Now())
	})
	for i := 0; i < 3; i++ {
		s.Schedule(time.Duration(2*i+1)*500*time.Microsecond, func() { ran = append(ran, s.Now()) })
	}
	for steps := 1; ; steps++ {
		n, logged := s.EventsRun(), len(ran)
		if !s.Step() {
			break
		}
		if got := s.EventsRun(); got != n+1 {
			t.Fatalf("step %d ran %d events, want 1", steps, got-n)
		}
		if len(ran) > logged+1 {
			t.Fatalf("step %d ran %d event bodies, want at most 1", steps, len(ran)-logged)
		}
		if len(ran) == logged+1 && s.Now() != ran[logged] {
			t.Fatalf("step %d: clock at %v after an event at %v", steps, s.Now(), ran[logged])
		}
	}
	if len(ran) != 7 {
		t.Fatalf("ran %d bodies, want 7", len(ran))
	}
}

// TestStopFromThreadCode: Stop called by a thread makes Run return once
// that thread parks, not after the events its goroutine would run next.
func TestStopFromThreadCode(t *testing.T) {
	s, p := newProc(t)
	var stopAt sim.Time
	th := p.NewThread("w", PrioNormal, func(th *Thread) {
		th.Compute(time.Millisecond)
		stopAt = s.Now()
		s.Stop()
		th.Compute(time.Millisecond)
	})
	s.Run()
	if stopAt == 0 || s.Now() != stopAt || th.Finished() {
		t.Fatalf("Run returned at %v (stop at %v, finished %v), want at the stop", s.Now(), stopAt, th.Finished())
	}
	s.Run()
	if !th.Finished() || s.Now() != stopAt.Add(time.Millisecond) {
		t.Fatalf("second Run ended at %v, finished %v", s.Now(), th.Finished())
	}
}

// TestFinishedThreadsReleaseGoroutines: once Run has let every thread
// finish, no goroutine is left behind, with no Shutdown.
func TestFinishedThreadsReleaseGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := sim.New()
	m := model.Calibrated()
	pa, pb := New(s, m, 0, "cpu0"), New(s, m, 1, "cpu1")
	waiter := pa.NewThread("waiter", PrioNormal, func(th *Thread) { th.Block() })
	ths := []*Thread{waiter}
	for i := 0; i < 4; i++ {
		ths = append(ths, pb.NewThread("w", PrioNormal, func(th *Thread) {
			th.Compute(time.Duration(i+1) * time.Millisecond)
			th.Sleep(time.Millisecond)
		}))
	}
	ths = append(ths, pb.NewThread("waker", PrioNormal, func(th *Thread) {
		th.Compute(10 * time.Millisecond)
		waiter.Unblock()
	}))
	s.Run()
	for _, th := range ths {
		if !th.Finished() {
			t.Fatalf("thread %s did not finish", th.Name())
		}
	}
	waitDone(t, ths...)
	waitGoroutines(t, base)
}

// TestShutdownReleasesGoroutines: Shutdown ends the goroutine of every
// thread a run left unfinished: blocked, computing, sleeping, preempted,
// or never started.
func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := sim.New()
	m := model.Calibrated()
	var procs []*Processor
	for i := 0; i < 4; i++ {
		procs = append(procs, New(s, m, i, "cpu"))
	}
	ths := []*Thread{
		procs[0].NewThread("blocked", PrioNormal, func(th *Thread) { th.Block() }),
		procs[1].NewThread("computing", PrioNormal, func(th *Thread) { th.Compute(time.Second) }),
		procs[2].NewThread("preempted", PrioNormal, func(th *Thread) { th.Compute(time.Second) }),
		procs[3].NewThread("sleeping", PrioNormal, func(th *Thread) { th.Sleep(time.Second) }),
	}
	s.Schedule(5*time.Millisecond, func() { procs[2].Interrupt(time.Millisecond, nil) })
	s.RunUntil(sim.Time(5*time.Millisecond + 500*time.Microsecond)) // mid-interrupt
	ths = append(ths, procs[0].NewThread("never-started", PrioNormal, func(th *Thread) {
		t.Error("never-started thread ran")
	}))
	for _, p := range procs {
		p.Shutdown()
	}
	waitDone(t, ths...)
	waitGoroutines(t, base)
}

// TestFinishedThreadsAreDropped: a processor keeps only its unfinished
// threads. 20,000 threads run to completion on one processor leave none
// behind, while the ones still blocked stay until Shutdown ends them.
func TestFinishedThreadsAreDropped(t *testing.T) {
	base := runtime.NumGoroutine()
	s := sim.New()
	p := New(s, model.Calibrated(), 0, "cpu0")
	var blocked []*Thread
	for i := 0; i < 20000; i++ {
		p.NewThread("request", PrioNormal, func(th *Thread) { th.Compute(time.Microsecond) })
		if i%5000 == 0 {
			blocked = append(blocked, p.NewThread("blocked", PrioNormal, func(th *Thread) { th.Block() }))
		}
	}
	s.Run()
	if got := p.Stats().ThreadsDone; got != 20000 {
		t.Fatalf("%d threads finished, want 20000", got)
	}
	if len(p.threads) != len(blocked) {
		t.Fatalf("processor keeps %d threads after 20000 finished, want the %d blocked ones", len(p.threads), len(blocked))
	}
	for i, th := range p.threads {
		if th.Finished() || th.slot != i {
			t.Fatalf("thread %q at slot %d: finished %v, slot field %d", th.name, i, th.Finished(), th.slot)
		}
	}
	p.Shutdown()
	waitDone(t, blocked...)
	waitGoroutines(t, base)
}

// TestEventPanicWhileThreadComputesReachesRun: while a thread computes,
// its goroutine runs the event loop, so an event that panics panics on
// that goroutine. The panic reaches the goroutine that called Run, and
// Shutdown then ends every thread goroutine.
func TestEventPanicWhileThreadComputesReachesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	s := sim.New()
	p := New(s, model.Calibrated(), 0, "cpu0")
	worker := p.NewThread("worker", PrioNormal, func(th *Thread) { th.Compute(10 * time.Millisecond) })
	idle := p.NewThread("idle", PrioNormal, func(th *Thread) { th.Block() })
	s.Schedule(5*time.Millisecond, func() { panic("boom") })
	got := func() (v any) {
		defer func() { v = recover() }()
		s.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run raised %v, want boom", got)
	}
	if s.Now() != sim.Time(5*time.Millisecond) {
		t.Fatalf("panic at %v, want 5ms", s.Now())
	}
	p.Shutdown()
	waitDone(t, worker, idle)
	waitGoroutines(t, base)
}

// TestThreadPanicReachesRun: a panic in a thread's own code reaches the
// goroutine that called Run, as a panic in an event would.
func TestThreadPanicReachesRun(t *testing.T) {
	s, p := newProc(t)
	p.NewThread("bad", PrioNormal, func(th *Thread) {
		th.Compute(time.Millisecond)
		panic("boom")
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		s.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run raised %v, want boom", got)
	}
}
