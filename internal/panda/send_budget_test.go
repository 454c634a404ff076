package panda_test

import (
	"runtime"
	"testing"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// warmRPC drives back-to-back null RPCs from processor 1 to an echo
// server on processor 0 of a 2-processor cluster: call makes one more
// call and runs the cluster until it has returned. The run stops there,
// so the next call finds the previous reply's acknowledgement pending and
// piggybacks it, as a client that calls in a loop does.
func warmRPC(tb testing.TB, mode panda.Mode) (call func(), calls *int) {
	tb.Helper()
	c, err := cluster.New(cluster.Config{Procs: 2, Mode: mode, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Shutdown)
	echoServer(c.Transports[0])
	var next proc.Semaphore
	n := new(int)
	c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		for {
			next.Down(th)
			if _, _, err := c.Transports[1].Call(th, 0, nil, 0); err != nil {
				tb.Error(err)
				return
			}
			*n++
			c.Sim.Stop()
		}
	})
	return func() {
		next.UpFromDriver()
		c.Run()
	}, n
}

// TestWarmRPCAllocBudget: once its channel is warm, a null RPC allocates
// no host object in user space or bypass. The call record, the timer
// callbacks and the server context live on the channel, and the request
// and reply wires are reused once their receiver has provably consumed
// them. FLIP packets and bypass frame descriptors go back to a free list
// once their receiver has read them. What is left is the wire of kernel
// space's explicit ACK, the third message of its 3-way protocol.
func TestWarmRPCAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := map[panda.Mode]float64{
		panda.KernelSpace: 1,
		panda.UserSpace:   0,
		panda.Bypass:      0,
	}
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			call, calls := warmRPC(t, mode)
			for *calls < 20 {
				call() // warm the channel, the pools and the queues
			}
			got := testing.AllocsPerRun(200, call)
			if *calls != 221 {
				t.Fatalf("client made %d calls, want 221", *calls)
			}
			t.Logf("%s: %.2f allocations per warm null RPC", mode, got)
			if got > budget[mode] {
				t.Fatalf("%s: a warm null RPC allocates %.2f objects, budget is %.0f",
					mode, got, budget[mode])
			}
		})
	}
}

// BenchmarkWarmRPC reports the host cost of one warm null RPC in each
// placement, cluster run included.
func BenchmarkWarmRPC(b *testing.B) {
	for _, mode := range panda.AllModes() {
		b.Run(mode.String(), func(b *testing.B) {
			call, calls := warmRPC(b, mode)
			for *calls < 20 {
				call()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}

// warmGroupSend drives back-to-back group sends from processor 1, a
// member that is not the sequencer, in a 2-processor group: send makes
// one more send and runs the cluster until it has returned.
func warmGroupSend(tb testing.TB, mode panda.Mode) (send func(), sends *int) {
	tb.Helper()
	c, err := cluster.New(cluster.Config{Procs: 2, Mode: mode, Group: true, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Shutdown)
	var next proc.Semaphore
	n := new(int)
	c.Procs[1].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
		for {
			next.Down(th)
			if err := c.Transports[1].GroupSend(th, nil, 0); err != nil {
				tb.Error(err)
				return
			}
			*n++
			c.Sim.Stop()
		}
	})
	return func() {
		next.UpFromDriver()
		c.Run()
	}, n
}

// TestWarmGroupSendBudget: a warm group send from a member that is not
// the sequencer takes its send record from a pool and arms its
// retransmission timer with the callback the record keeps, so no
// placement allocates a send record or a timer closure per send (8, 7
// and 7 objects per send before, in kernel space, user space and
// bypass). The budgets are what a send still allocates, request and
// sequencer wires and history included, which this test does not pin
// further. The request's FLIP packet, or under bypass its queue-pair
// descriptor, comes back to the free list the stacks on one simulator
// share, so the next request reuses it.
func TestWarmGroupSendBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := map[panda.Mode]float64{
		panda.KernelSpace: 4,
		panda.UserSpace:   4,
		panda.Bypass:      4,
	}
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			send, sends := warmGroupSend(t, mode)
			for *sends < 20 {
				send()
			}
			got := testing.AllocsPerRun(200, send)
			if *sends != 221 {
				t.Fatalf("sender made %d sends, want 221", *sends)
			}
			t.Logf("%s: %.2f allocations per warm group send", mode, got)
			if got > budget[mode] {
				t.Fatalf("%s: a warm group send allocates %.2f objects, budget is %.0f",
					mode, got, budget[mode])
			}
		})
	}
}

// TestWatchdogTickBudget: a sequencer whose watchdog probes a member
// that cannot answer allocates, per tick, only the probe it sends: the
// SYNC wire and the packet, or under bypass the descriptor, that the
// member's dark interface never hands back to its free list. The tick
// posts one bound probe with the number of stragglers it queued on a
// buffer the sequencer keeps (before, each tick allocated a closure and
// a straggler slice in user space and bypass, and the slice in kernel
// space).
func TestWatchdogTickBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const budget = 2
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 3, Mode: mode, Group: true, WarmRoutes: true})
			rpcNIC(c, 2).SetDown(true)
			c.Procs[1].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
				if err := c.Transports[1].GroupSend(th, nil, 0); err != nil {
					t.Error(err)
				}
			})
			tick := func() { c.RunUntil(c.Sim.Now().Add(c.Model.RetransTimeout)) }
			for i := 0; i < 10; i++ {
				tick() // the send, the first probes and member 1's report
			}
			dropped := c.Net.Dropped()
			got := testing.AllocsPerRun(50, tick)
			if probes := c.Net.Dropped() - dropped; probes != 51 {
				t.Fatalf("%d probes reached the dark member in 51 ticks, want 51", probes)
			}
			t.Logf("%s: %.2f allocations per watchdog tick", mode, got)
			if got > budget {
				t.Fatalf("%s: a watchdog tick allocates %.2f objects, budget is %d", mode, got, budget)
			}
		})
	}
}
