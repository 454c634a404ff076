package orca_test

import (
	"runtime"
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/orca"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// semType is a counting semaphore as an Orca object: "down" waits until
// the count is positive and takes one, "up" adds one. Neither takes an
// argument nor returns a result, so an invocation boxes nothing.
func semType() *orca.ObjType {
	return orca.NewType("sem",
		&orca.OpDef{
			Name:  "down",
			Guard: func(s orca.State) bool { return *s.(*int) > 0 },
			Apply: func(t *proc.Thread, s orca.State, args any) (any, int) {
				*s.(*int)--
				return nil, 0
			},
		},
		&orca.OpDef{
			Name: "up",
			Apply: func(t *proc.Thread, s orca.State, args any) (any, int) {
				*s.(*int)++
				return nil, 0
			},
		},
	)
}

// invocationShapes are the three ways an Orca invocation completes
// through the runtime, as TestOrcaInvocationAllocBudget and
// BenchmarkOrcaInvoke drive them.
var invocationShapes = []string{"local-guarded", "replicated-write", "remote-guarded"}

// warmInvocation builds one invocation shape on a 2-processor user-space
// cluster. It returns invoke, which completes one more invocation of the
// shape and runs the cluster past it, and invoked, which counts the
// invocations of the shape so far:
//
//   - local-guarded: a thread on processor 0 invokes "down" on an object
//     it owns and blocks on the guard; each invoke has another thread
//     there write "up", whose continuation wakes it. invoked counts the
//     owner's blocked operations.
//   - replicated-write: processor 1 writes "up" on a replicated object;
//     the write completes when the group delivers it back (onGroup).
//     invoked counts the writer's broadcasts.
//   - remote-guarded: processor 1 invokes "down" on an object processor 0
//     owns; the owner parks it as a continuation until each invoke has a
//     thread there write "up", which replies. invoked counts the owner's
//     blocked operations.
func warmInvocation(tb testing.TB, shape string) (invoke func(), invoked func() int64) {
	tb.Helper()
	c, err := cluster.New(cluster.Config{Procs: 2, Mode: panda.UserSpace, Group: shape == "replicated-write", Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Shutdown)
	pg := orca.NewProgram(c.Transports, c.Procs)
	mk := func() orca.State { return new(int) }
	var next proc.Semaphore
	loop := func(rt *orca.Runtime, h orca.Handle, op string, wait, stop bool) {
		rt.Go(op, func(th *proc.Thread) {
			for {
				if wait {
					next.Down(th)
				}
				if _, _, err := rt.Invoke(th, h, op, nil, 0); err != nil {
					tb.Error(err)
					return
				}
				if stop {
					c.Sim.Stop()
				}
			}
		})
	}
	run := c.Run
	switch shape {
	case "local-guarded":
		h := pg.DeclareOwned("sem", semType(), 0, mk)
		loop(pg.Runtime(0), h, "down", false, false)
		loop(pg.Runtime(0), h, "up", true, false)
		invoked = func() int64 { _, _, _, _, b := pg.Runtime(0).ObjectStats(h); return b }
	case "replicated-write":
		h := pg.DeclareReplicated("sem", semType(), mk)
		loop(pg.Runtime(1), h, "up", true, true)
		invoked = func() int64 { _, _, b, _, _ := pg.Runtime(1).ObjectStats(h); return b }
	case "remote-guarded":
		h := pg.DeclareOwned("sem", semType(), 0, mk)
		loop(pg.Runtime(1), h, "down", false, false)
		loop(pg.Runtime(0), h, "up", true, false)
		invoked = func() int64 { _, _, _, _, b := pg.Runtime(0).ObjectStats(h); return b }
		// Run long enough for the reply and the next request to land,
		// well inside the request's retransmission timeout.
		run = func() { c.RunUntil(c.Sim.Now().Add(10 * time.Millisecond)) }
	default:
		tb.Fatalf("unknown invocation shape %q", shape)
	}
	run() // the guarded invoker blocks
	return func() {
		next.UpFromDriver()
		run()
	}, invoked
}

// TestOrcaInvocationAllocBudget: once warm, the Orca runtime allocates no
// record of its own to block or complete an invocation. A continuation is
// a value in its object's queue, an invocation record comes from the
// runtime's free list, and a replicated write completes through a method,
// not a closure. The budgets are the measured values: what is left is
// the remote invocation's request wire, and for the replicated write its
// broadcast wire and what a user-space group send allocates
// (TestWarmGroupSendBudget). The runtime's own records took 4, 4 and 2
// more objects: an invocation record, its semaphore's waiter slice, a
// continuation and its completion closure, or per member a closure.
func TestOrcaInvocationAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := map[string]float64{
		"local-guarded":    0,
		"replicated-write": 5,
		"remote-guarded":   1,
	}
	for _, shape := range invocationShapes {
		t.Run(shape, func(t *testing.T) {
			invoke, invoked := warmInvocation(t, shape)
			for i := 0; i < 20; i++ {
				invoke() // warm the runtime, the transport and the queues
			}
			got := testing.AllocsPerRun(200, invoke)
			// AllocsPerRun invokes once more than it measures, and the
			// guarded shapes block once more when set up.
			want := int64(20 + 201)
			if shape != "replicated-write" {
				want++
			}
			if n := invoked(); n != want {
				t.Fatalf("%s: %d invocations of the measured shape, want %d", shape, n, want)
			}
			t.Logf("%s: %.2f allocations per warm invocation", shape, got)
			if got > budget[shape] {
				t.Fatalf("%s: a warm invocation allocates %.2f objects, budget is %.0f",
					shape, got, budget[shape])
			}
		})
	}
}

// BenchmarkOrcaInvoke reports the host cost of one warm invocation of
// each shape, cluster run included.
func BenchmarkOrcaInvoke(b *testing.B) {
	for _, shape := range invocationShapes {
		b.Run(shape, func(b *testing.B) {
			invoke, _ := warmInvocation(b, shape)
			for i := 0; i < 20; i++ {
				invoke()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				invoke()
			}
		})
	}
}
