package bench

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// TestRunPoolOrderAndCoverage: results come back in job-list order for
// any worker count, and every job runs exactly once.
func TestRunPoolOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 20
		var ran [n]atomic.Int32
		jobs := make([]Job, n)
		for i := range jobs {
			i := i
			jobs[i] = Job{Name: string(rune('a' + i)), Run: func() error {
				ran[i].Add(1)
				return nil
			}}
		}
		results := RunPool(jobs, workers)
		if len(results) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), n)
		}
		for i, r := range results {
			if r.Name != jobs[i].Name {
				t.Errorf("workers=%d: result %d is %q, want %q", workers, i, r.Name, jobs[i].Name)
			}
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
		if err := PoolErrors(results); err != nil {
			t.Errorf("workers=%d: unexpected error: %v", workers, err)
		}
	}
}

// TestRunPoolFailureIsolation: a failed job is reported by name and does
// not stop the rest of the sweep.
func TestRunPoolFailureIsolation(t *testing.T) {
	boom := errors.New("boom")
	var survivors atomic.Int32
	jobs := []Job{
		{Name: "ok-1", Run: func() error { survivors.Add(1); return nil }},
		{Name: "bad-cell", Run: func() error { return boom }},
		{Name: "ok-2", Run: func() error { survivors.Add(1); return nil }},
	}
	results := RunPool(jobs, 2)
	if survivors.Load() != 2 {
		t.Errorf("survivors = %d, want 2", survivors.Load())
	}
	err := PoolErrors(results)
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error should wrap the job failure: %v", err)
	}
	if !strings.Contains(err.Error(), "job bad-cell") {
		t.Errorf("error should name the failed job: %v", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs should not carry errors: %+v", results)
	}
}

// TestRunPoolRecoversPanic: a panicking job (harness bug) becomes a
// per-job failure instead of killing the whole sweep.
func TestRunPoolRecoversPanic(t *testing.T) {
	jobs := []Job{
		{Name: "panicky", Run: func() error { panic("kaboom") }},
		{Name: "fine", Run: func() error { return nil }},
	}
	results := RunPool(jobs, 1)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "kaboom") {
		t.Errorf("panic not converted to error: %+v", results[0])
	}
	if results[1].Err != nil {
		t.Errorf("second job should have run cleanly: %v", results[1].Err)
	}
}

// TestRunJobThreadPanic: a panic in a simulated thread's code runs on the
// thread's goroutine, not the job's. It still becomes the job's error,
// and the job's deferred Shutdown ends the thread goroutines.
func TestRunJobThreadPanic(t *testing.T) {
	res := runJob(Job{Name: "thread-panic", Run: func() error {
		s := sim.New()
		p := proc.New(s, model.Calibrated(), 0, "cpu0")
		defer p.Shutdown()
		p.NewThread("bystander", proc.PrioNormal, func(th *proc.Thread) { th.Block() })
		p.NewThread("buggy", proc.PrioNormal, func(th *proc.Thread) {
			th.Compute(time.Millisecond)
			panic("kaboom")
		})
		s.Run()
		return nil
	}})
	if res.Err == nil {
		t.Fatal("thread panic not reported")
	}
	if msg := res.Err.Error(); !strings.Contains(msg, "job thread-panic") || !strings.Contains(msg, "kaboom") {
		t.Errorf("error should name the job and the panic: %v", res.Err)
	}
}
