package panda_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/faults"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// rpcRun is what a closed-loop RPC run produced, call by call: sum folds
// every call's client, index, latency, error and reply check into one
// FNV-1a hash.
type rpcRun struct {
	ok, failed int
	end        time.Duration
	sum        uint64
}

func (r rpcRun) String() string {
	return fmt.Sprintf("{ok: %d, failed: %d, end: %d, sum: %#x}", r.ok, r.failed, r.end, r.sum)
}

// closedLoopRPC runs two clients, on processors 1 and 2, that each make
// 40 calls back to back to an echo server on processor 0, with request
// sizes from 0 to two fragments. When slow is set, the server answers
// every fifth request from a thread of its own after a delay of 90 to
// 112 ms, around the client's 100 ms retransmission timeout, and one
// request only after 15 s, when its client has long given up on it. It
// fails the test if a request runs the handler twice or a call returns
// another call's reply.
func closedLoopRPC(t *testing.T, cfg cluster.Config, slow bool) rpcRun {
	t.Helper()
	cfg.Procs = 3
	c := newCluster(t, cfg)
	srv := c.Transports[0]
	served := map[int]int{}
	srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, size int) {
		id := req.(int)
		served[id]++
		if served[id] > 1 {
			t.Errorf("request %d ran the handler %d times", id, served[id])
		}
		if !slow || id%5 != 2 {
			srv.Reply(th, ctx, req, size)
			return
		}
		d := time.Duration(90+id%23) * time.Millisecond
		if id == 1007 {
			d = 11950 * time.Millisecond
		}
		c.Procs[0].NewThread("deferred-reply", proc.PrioNormal, func(th *proc.Thread) {
			th.Sleep(d)
			srv.Reply(th, ctx, req, size)
		})
	})
	var run rpcRun
	h := fnv.New64a()
	for cl := 1; cl <= 2; cl++ {
		cl := cl
		c.Procs[cl].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
			for i := 0; i < 40; i++ {
				id := cl*1000 + i
				size := (i * 397) % 3000
				start := c.Sim.Now()
				reply, n, err := c.Transports[cl].Call(th, 0, id, size)
				lat := c.Sim.Now().Sub(start)
				good := err == nil && reply == id && n == size
				if err == nil && !good {
					t.Errorf("call %d returned reply %v/%d, want %d/%d", id, reply, n, id, size)
				}
				if err == nil {
					run.ok++
				} else {
					run.failed++
				}
				fmt.Fprintf(h, "%d %d %d %t %t;", cl, i, lat, err != nil, good)
			}
		})
	}
	c.Run()
	if cfg.LossRate > 0 && c.Net.Dropped() == 0 {
		t.Fatal("the loss injector dropped nothing")
	}
	run.end = time.Duration(c.Sim.Now())
	run.sum = h.Sum64()
	return run
}

// TestRPCLossAndDuplicationResults pins, in every placement, the call by
// call results of a closed-loop RPC run under 20% frame loss, under a
// fault hook that duplicates 25% of the frames and holds 30% back by up
// to 3 ms, and against a server that answers late. The values were
// recorded before the send side of an RPC recycled its records and
// wires: a wire reused while a copy of its message is still travelling,
// or a server context reused while its request is still in service,
// changes them.
func TestRPCLossAndDuplicationResults(t *testing.T) {
	want := map[string]rpcRun{
		"kernel-space/loss": {ok: 80, failed: 0, end: 24579301000, sum: 0x3e169e949d444199},
		"kernel-space/dup":  {ok: 80, failed: 0, end: 263952650, sum: 0x40177fe1b7952551},
		"kernel-space/slow": {ok: 79, failed: 1, end: 12756855660, sum: 0x1d3d08314b523241},
		"user-space/loss":   {ok: 80, failed: 0, end: 21086361290, sum: 0x7d479f7087c847b6},
		"user-space/dup":    {ok: 80, failed: 0, end: 356835570, sum: 0xcfccace8a4549d56},
		"user-space/slow":   {ok: 79, failed: 1, end: 12867637460, sum: 0x18e28d1dfee6a0ca},
		"bypass/loss":       {ok: 80, failed: 0, end: 7523400400, sum: 0xbb24de18fa817885},
		"bypass/dup":        {ok: 80, failed: 0, end: 324241600, sum: 0xe000d8f644add982},
		"bypass/slow":       {ok: 79, failed: 1, end: 12820127600, sum: 0x3d93965ad1f665f1},
	}
	for _, mode := range panda.AllModes() {
		for _, sc := range []string{"loss", "dup", "slow"} {
			name := mode.String() + "/" + sc
			t.Run(name, func(t *testing.T) {
				cfg := cluster.Config{Mode: mode, Seed: 11}
				switch sc {
				case "loss":
					cfg.LossRate = 0.2
				case "dup":
					// A reordered duplicate can arrive after its message's
					// receiver has answered it.
					cfg.Faults = &faults.Scenario{
						Dups:     []faults.Duplication{{Window: faults.Window{Until: time.Minute}, Rate: 0.25}},
						Reorders: []faults.Reorder{{Window: faults.Window{Until: time.Minute}, Rate: 0.3, MaxDelay: 3 * time.Millisecond}},
					}
				}
				got := closedLoopRPC(t, cfg, sc == "slow")
				if got != want[name] {
					t.Errorf("got %v, want %v", got, want[name])
				}
			})
		}
	}
}

// TestStaleReplyKeepsAtMostOnce: a handler that answers after its client
// gave up, and after the channel's next request was answered, must not
// make that next request run again. The client gives up on call a, whose
// handler keeps its context. Call b is answered at once, but its reply is
// lost: b's handler takes the client's interface down for 50 ms. a's
// handler replies 10 ms later. The client's retransmission of b must get
// b's cached reply, not run b's handler a second time.
func TestStaleReplyKeepsAtMostOnce(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			srv := c.Transports[0]
			cli := rpcNIC(c, 1)
			var held *panda.RPCContext
			served := map[string]int{}
			srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, size int) {
				served[req.(string)]++
				switch {
				case req == "a":
					held = ctx // answered only after the client gave up
				case served["b"] == 1:
					cli.SetDown(true)
					c.Sim.Schedule(50*time.Millisecond, func() { cli.SetDown(false) })
					srv.Reply(th, ctx, req, size)
					c.Procs[0].NewThread("late-reply", proc.PrioNormal, func(th *proc.Thread) {
						th.Sleep(10 * time.Millisecond)
						srv.Reply(th, held, "a", 1)
					})
				default:
					srv.Reply(th, ctx, req, size)
				}
			})
			var errA, errB error
			var replyB any
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				_, _, errA = c.Transports[1].Call(th, 0, "a", 1)
				replyB, _, errB = c.Transports[1].Call(th, 0, "b", 1)
			})
			c.Run()
			if errA == nil {
				t.Fatal("call a succeeded, but its handler held its reply past the retry budget")
			}
			if errB != nil || replyB != "b" {
				t.Fatalf("call b returned %v, %v; want its own reply", replyB, errB)
			}
			if served["b"] != 1 {
				t.Fatalf("b's handler ran %d times, want 1 (at-most-once)", served["b"])
			}
		})
	}
}
