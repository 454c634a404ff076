package panda_test

import (
	"runtime"
	"testing"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// TestUntracedHookArgsBudget: with no tracer installed, a warm null RPC
// allocates as much past sequence number 256 as before it, in user space
// and in bypass. The RPC's trace and span hooks take the sequence number
// as an argument of fmt's ...any, which boxes it on the heap once it is
// 256 or more; the untraced path must not reach the call at all. Each
// call here runs until its reply's explicit acknowledgement has gone out,
// and that acknowledgement allocates its wire and nothing else: the
// channel binds the helper thread's action once.
func TestUntracedHookArgsBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range []panda.Mode{panda.UserSpace, panda.Bypass} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			echoServer(c.Transports[0])
			var next proc.Semaphore
			var calls int
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				for {
					next.Down(th)
					if _, _, err := c.Transports[1].Call(th, 0, nil, 0); err != nil {
						t.Error(err)
						return
					}
					calls++
				}
			})
			call := func() {
				next.UpFromDriver()
				c.Run()
			}
			for calls < 20 {
				call() // warm the pools and queues
			}
			low := testing.AllocsPerRun(100, call) // calls 21 to 121, one to warm up
			for calls < 300 {
				call()
			}
			high := testing.AllocsPerRun(100, call) // calls 301 to 401
			if calls != 401 {
				t.Fatalf("client made %d calls, want 401", calls)
			}
			if high > low {
				t.Fatalf("an untraced null RPC allocates %.2f objects past seqno 256 and %.2f before it, budget is no more",
					high, low)
			}
			if low > 1 {
				t.Fatalf("a warm null RPC ending in an explicit ack allocates %.2f objects, budget is 1 (the ACK wire)", low)
			}
		})
	}
}
