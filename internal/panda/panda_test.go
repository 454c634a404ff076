package panda_test

import (
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/ether"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

func newCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// rpcNIC returns the interface that carries processor i's Panda traffic:
// NIC i, its kernel's FLIP NIC or, under bypass, its queue pair.
func rpcNIC(c *cluster.Cluster, i int) *ether.NIC { return c.Net.NIC(i) }

// echoServer installs an RPC handler that replies with the request.
func echoServer(tr panda.Transport) {
	tr.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, size int) {
		tr.Reply(t, ctx, req, size)
	})
}

func TestRPCRoundTripBothModes(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			echoServer(c.Transports[0])
			var reply any
			var size int
			var err error
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				reply, size, err = c.Transports[1].Call(th, 0, "hello", 128)
			})
			c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if reply != "hello" || size != 128 {
				t.Fatalf("reply = %v/%d", reply, size)
			}
		})
	}
}

// nullRPCLatency measures the average null-RPC latency for a mode.
func nullRPCLatency(t *testing.T, mode panda.Mode) time.Duration {
	t.Helper()
	c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
	echoServer(c.Transports[0])
	const rounds = 20
	var total time.Duration
	c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		if _, _, err := c.Transports[1].Call(th, 0, nil, 0); err != nil {
			t.Error(err)
			return
		}
		start := c.Sim.Now()
		for i := 0; i < rounds; i++ {
			if _, _, err := c.Transports[1].Call(th, 0, nil, 0); err != nil {
				t.Error(err)
				return
			}
		}
		total = c.Sim.Now().Sub(start)
	})
	c.Run()
	return total / rounds
}

func TestUserSpaceRPCSlowerThanKernelByPaperGap(t *testing.T) {
	kern := nullRPCLatency(t, panda.KernelSpace)
	user := nullRPCLatency(t, panda.UserSpace)
	gap := user - kern
	t.Logf("null RPC: kernel=%v user=%v gap=%v", kern, user, gap)
	if gap <= 0 {
		t.Fatalf("user-space RPC (%v) should be slower than kernel-space (%v)", user, kern)
	}
	// Paper: ~0.3 ms gap (1.57 vs 1.27). Accept 0.15–0.6 ms.
	if gap < 150*time.Microsecond || gap > 600*time.Microsecond {
		t.Fatalf("gap = %v, want ≈300µs", gap)
	}
}

func TestRPCPiggybackAckAvoidsExplicitAck(t *testing.T) {
	for _, mode := range []panda.Mode{panda.UserSpace, panda.Bypass} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			echoServer(c.Transports[0])
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				for i := 0; i < 10; i++ {
					if _, _, err := c.Transports[1].Call(th, 0, nil, 0); err != nil {
						t.Error(err)
						return
					}
				}
			})
			// Stop after the calls complete but before the last call's
			// AckDelay (100 ms) fires.
			c.RunUntil(sim.Time(60 * time.Millisecond))
			framesBeforeAck := c.Net.SegmentFrames(0)
			c.Run()
			framesAfter := c.Net.SegmentFrames(0)
			// Back-to-back calls piggyback acks: 2 frames per RPC while the
			// loop runs (plus locate overhead in user space), then exactly
			// one explicit ack for the final reply after the AckDelay.
			if framesAfter-framesBeforeAck != 1 {
				t.Fatalf("expected exactly 1 trailing explicit ack frame, got %d",
					framesAfter-framesBeforeAck)
			}
			// 10 RPCs ≈ 20 data frames + two locate pairs (one per
			// direction) + the final ack.
			if framesAfter > 26 {
				t.Fatalf("too many frames (%d); piggybacking is not working", framesAfter)
			}
		})
	}
}

func TestRPCAsyncReplyFromOtherThreadUserSpace(t *testing.T) {
	for _, mode := range []panda.Mode{panda.UserSpace, panda.Bypass} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			tr := c.Transports[0]
			// The handler queues a continuation; a separate thread replies
			// later (pan_rpc_reply's asynchronous transmission).
			var pending *panda.RPCContext
			tr.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, size int) {
				pending = ctx // continuation: no reply yet
			})
			var replier *proc.Thread
			replier = c.Procs[0].NewThread("mutator", proc.PrioNormal, func(th *proc.Thread) {
				th.Block() // woken once the request has arrived
				tr.Reply(th, pending, "late", 10)
			})
			done := false
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				reply, _, err := c.Transports[1].Call(th, 0, "q", 10)
				if err != nil || reply != "late" {
					t.Errorf("reply=%v err=%v", reply, err)
				}
				done = true
			})
			c.Sim.Schedule(50*time.Millisecond, func() { replier.Unblock() })
			c.Run()
			if !done {
				t.Fatal("client never completed")
			}
		})
	}
}

func TestRPCAsyncReplyKernelSpaceWorkaround(t *testing.T) {
	c := newCluster(t, cluster.Config{Procs: 2, Mode: panda.KernelSpace})
	tr := c.Transports[0]
	var pending *panda.RPCContext
	tr.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, size int) {
		pending = ctx
	})
	var replier *proc.Thread
	replier = c.Procs[0].NewThread("mutator", proc.PrioNormal, func(th *proc.Thread) {
		th.Block()
		tr.Reply(th, pending, "relayed", 10)
	})
	before := c.Procs[0].Stats()
	done := false
	c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		reply, _, err := c.Transports[1].Call(th, 0, "q", 10)
		if err != nil || reply != "relayed" {
			t.Errorf("reply=%v err=%v", reply, err)
		}
		done = true
	})
	c.Sim.Schedule(50*time.Millisecond, func() { replier.Unblock() })
	c.Run()
	if !done {
		t.Fatal("client never completed")
	}
	// The workaround must have context-switched back to the daemon that
	// accepted the request so it could issue put_reply.
	after := c.Procs[0].Stats()
	if after.CtxSwitches <= before.CtxSwitches {
		t.Fatal("expected extra context switch for the put_reply relay")
	}
}

func TestRPCUnderLossBothModes(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode, LossRate: 0.15, Seed: 3})
			served := 0
			c.Transports[0].HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, size int) {
				served++
				c.Transports[0].Reply(th, ctx, req, size)
			})
			completed := 0
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				for i := 0; i < 15; i++ {
					reply, _, err := c.Transports[1].Call(th, 0, i, 1000)
					if err != nil {
						t.Errorf("call %d: %v", i, err)
						return
					}
					if reply != i {
						t.Errorf("call %d: reply %v", i, reply)
						return
					}
					completed++
				}
			})
			c.Run()
			if completed != 15 {
				t.Fatalf("completed %d/15", completed)
			}
			if served != 15 {
				t.Fatalf("served %d requests, want exactly 15 (at-most-once)", served)
			}
			if c.Net.Dropped() == 0 {
				t.Fatal("loss injector inactive; test vacuous")
			}
		})
	}
}

func groupTotalOrderCheck(t *testing.T, mode panda.Mode, procs, perSender int, loss float64) {
	t.Helper()
	c := newCluster(t, cluster.Config{Procs: procs, Mode: mode, Group: true, LossRate: loss, Seed: 7})
	received := make([][]int, procs)
	for i := 0; i < procs; i++ {
		i := i
		c.Transports[i].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
			v, ok := payload.(int)
			if !ok {
				t.Error("bad payload")
				return
			}
			received[i] = append(received[i], v)
		})
	}
	for s := 0; s < procs; s++ {
		s := s
		tr := c.Transports[s]
		c.Procs[s].NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
			for j := 0; j < perSender; j++ {
				if err := tr.GroupSend(th, s*1000+j, 100); err != nil {
					t.Errorf("sender %d msg %d: %v", s, j, err)
					return
				}
			}
		})
	}
	c.Run()
	want := procs * perSender
	for i := 0; i < procs; i++ {
		if len(received[i]) != want {
			t.Fatalf("member %d received %d/%d", i, len(received[i]), want)
		}
	}
	for i := 1; i < procs; i++ {
		for j := range received[0] {
			if received[i][j] != received[0][j] {
				t.Fatalf("total order violated at member %d index %d", i, j)
			}
		}
	}
}

func TestGroupTotalOrderBothModes(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			groupTotalOrderCheck(t, mode, 3, 8, 0)
		})
	}
}

func TestGroupTotalOrderUnderLossBothModes(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			groupTotalOrderCheck(t, mode, 4, 6, 0.08)
		})
	}
}

// TestGroupLargeMessagesBBMethod: 8000-byte messages, above BBThreshold,
// reach every member in kernel space and user space, which send them by
// the BB method, and under bypass, which sends them by PB.
func TestGroupLargeMessagesBBMethod(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 3, Mode: mode, Group: true})
			got := make([]int, 3)
			for i := 0; i < 3; i++ {
				i := i
				c.Transports[i].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
					if size != 8000 {
						t.Errorf("size = %d", size)
					}
					got[i]++
				})
			}
			tr := c.Transports[1]
			c.Procs[1].NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
				for j := 0; j < 3; j++ {
					if err := tr.GroupSend(th, j, 8000); err != nil {
						t.Error(err)
						return
					}
				}
			})
			c.Run()
			for i := 0; i < 3; i++ {
				if got[i] != 3 {
					t.Fatalf("member %d delivered %d/3", i, got[i])
				}
			}
		})
	}
}

func TestGroupNullLatencyGap(t *testing.T) {
	latency := func(mode panda.Mode) time.Duration {
		c := newCluster(t, cluster.Config{Procs: 2, Mode: mode, Group: true})
		const rounds = 20
		var total time.Duration
		tr := c.Transports[1] // non-sequencer member sends
		c.Procs[1].NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
			if err := tr.GroupSend(th, nil, 0); err != nil {
				t.Error(err)
				return
			}
			start := c.Sim.Now()
			for i := 0; i < rounds; i++ {
				if err := tr.GroupSend(th, nil, 0); err != nil {
					t.Error(err)
					return
				}
			}
			total = c.Sim.Now().Sub(start)
		})
		c.Run()
		return total / rounds
	}
	kern := latency(panda.KernelSpace)
	user := latency(panda.UserSpace)
	gap := user - kern
	t.Logf("null group: kernel=%v user=%v gap=%v", kern, user, gap)
	if gap <= 0 {
		t.Fatalf("user-space group (%v) should be slower than kernel-space (%v)", user, kern)
	}
	// Paper: ~0.23 ms gap (1.67 vs 1.44). Accept 0.1–0.45 ms.
	if gap < 100*time.Microsecond || gap > 450*time.Microsecond {
		t.Fatalf("gap = %v, want ≈230µs", gap)
	}
}

func TestDedicatedSequencerFasterGroupLatency(t *testing.T) {
	latency := func(dedicated bool) time.Duration {
		c := newCluster(t, cluster.Config{
			Procs: 2, Mode: panda.UserSpace, Group: true,
			DedicatedSequencer: dedicated,
		})
		const rounds = 20
		var total time.Duration
		tr := c.Transports[1]
		c.Procs[1].NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
			if err := tr.GroupSend(th, nil, 0); err != nil {
				t.Error(err)
				return
			}
			start := c.Sim.Now()
			for i := 0; i < rounds; i++ {
				if err := tr.GroupSend(th, nil, 0); err != nil {
					t.Error(err)
					return
				}
			}
			total = c.Sim.Now().Sub(start)
		})
		c.Run()
		return total / rounds
	}
	member := latency(false)
	dedicated := latency(true)
	improvement := member - dedicated
	t.Logf("group latency: member-seq=%v dedicated-seq=%v improvement=%v", member, dedicated, improvement)
	// Paper §3.2/§5: a dedicated sequencer reduces group latency by
	// ~50µs (warm context, 60µs vs 110µs dispatch).
	if improvement < 20*time.Microsecond || improvement > 150*time.Microsecond {
		t.Fatalf("improvement = %v, want ≈50µs", improvement)
	}
}

func TestNonblockingBroadcastExtension(t *testing.T) {
	c := newCluster(t, cluster.Config{Procs: 3, Mode: panda.UserSpace, Group: true})
	nb, ok := c.Transports[1].(panda.NonblockingSender)
	if !ok {
		t.Fatal("user-space transport must support nonblocking sends")
	}
	received := make([][]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		c.Transports[i].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
			received[i] = append(received[i], payload.(int))
		})
	}
	const n = 50
	var sendElapsed time.Duration
	c.Procs[1].NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
		start := c.Sim.Now()
		for j := 0; j < n; j++ {
			if err := nb.GroupSendNB(th, j, 100); err != nil {
				t.Error(err)
				return
			}
		}
		sendElapsed = c.Sim.Now().Sub(start)
	})
	c.Run()
	for i := 0; i < 3; i++ {
		if len(received[i]) != n {
			t.Fatalf("member %d received %d/%d", i, len(received[i]), n)
		}
		for j, v := range received[i] {
			if v != j {
				t.Fatalf("member %d: order broken at %d: %v", i, j, received[i][:j+1])
			}
		}
	}
	// Nonblocking sends must not pay the sequencer round trip each time:
	// 50 sends far faster than 50 × null group latency (~1.7ms).
	if sendElapsed > 40*time.Millisecond {
		t.Fatalf("nonblocking sends took %v; they appear to block", sendElapsed)
	}
}

func TestGroupThroughputSaturatesEthernetBothModes(t *testing.T) {
	// Paper Table 2: group throughput 941 KB/s for both implementations
	// (Ethernet saturation with 8000-byte messages).
	for _, mode := range []panda.Mode{panda.KernelSpace, panda.UserSpace} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 4, Mode: mode, Group: true})
			var delivered int64
			c.Transports[0].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
				delivered += int64(size)
			})
			for s := 1; s < 4; s++ {
				tr := c.Transports[s]
				c.Procs[s].NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
					for {
						if err := tr.GroupSend(th, nil, 8000); err != nil {
							return
						}
					}
				})
			}
			c.RunUntil(sim.Time(2 * time.Second))
			rate := float64(delivered) / 2 // bytes/s
			t.Logf("%v group throughput: %.0f KB/s", mode, rate/1000)
			if rate < 600e3 || rate > 1250e3 {
				t.Fatalf("group throughput %.0f KB/s, want near saturation (~941 KB/s)", rate/1000)
			}
		})
	}
}

func TestSystemLayerUnicastLatency(t *testing.T) {
	// Table 1's unicast column: Panda system-layer pingpong, user space.
	c := newCluster(t, cluster.Config{Procs: 2, Mode: panda.UserSpace})
	u0, ok0 := c.Transports[0].(*panda.User)
	u1, ok1 := c.Transports[1].(*panda.User)
	if !ok0 || !ok1 {
		t.Fatal("user transports expected")
	}
	// Echo from within the upcall (no context switching overhead).
	u0.HandleRaw(func(th *proc.Thread, from int, payload any, size int) {
		u0.SystemSend(th, from, payload, size, false)
	})
	const rounds = 20
	var total time.Duration
	done := make(chan struct{})
	var start sim.Time
	count := 0
	var pinger *proc.Thread
	u1.HandleRaw(func(th *proc.Thread, from int, payload any, size int) {
		count++
		if count == 1 {
			start = c.Sim.Now()
		}
		if count <= rounds {
			u1.SystemSend(th, from, payload, size, false)
			return
		}
		total = c.Sim.Now().Sub(start)
		close(done)
	})
	pinger = c.Procs[1].NewThread("pinger", proc.PrioNormal, func(th *proc.Thread) {
		u1.SystemSend(th, 0, nil, 0, false)
	})
	_ = pinger
	c.Run()
	select {
	case <-done:
	default:
		t.Fatal("pingpong never completed")
	}
	oneWay := total / (2 * rounds)
	t.Logf("system-layer null unicast one-way: %v", oneWay)
	// Paper Table 1: 0.53 ms. Accept a band.
	if oneWay < 300*time.Microsecond || oneWay > 800*time.Microsecond {
		t.Fatalf("unicast latency %v, want ≈530µs", oneWay)
	}
}
