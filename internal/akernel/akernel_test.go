package akernel

import (
	"testing"
	"time"

	"amoebasim/internal/ether"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

type rig struct {
	sim     *sim.Sim
	net     *ether.Network
	kernels []*Kernel
}

func newRig(t *testing.T, n int, segments int) *rig {
	return newRigSeeded(t, n, segments, 1)
}

func newRigSeeded(t *testing.T, n int, segments int, seed uint64) *rig {
	t.Helper()
	s := sim.New()
	m := model.Calibrated()
	net := ether.New(s, m, segments, seed)
	r := &rig{sim: s, net: net}
	for i := 0; i < n; i++ {
		p := proc.New(s, m, i, "cpu")
		k, err := New(p, net, i%segments)
		if err != nil {
			t.Fatal(err)
		}
		r.kernels = append(r.kernels, k)
	}
	t.Cleanup(func() {
		for _, k := range r.kernels {
			k.Processor().Shutdown()
		}
	})
	return r
}

func TestRPCBasicRoundTrip(t *testing.T) {
	r := newRig(t, 2, 1)
	const port Port = 1
	server, client := r.kernels[0], r.kernels[1]

	server.Processor().NewThread("server", proc.PrioDaemon, func(th *proc.Thread) {
		req := new(Request)
		server.GetRequest(th, port, req)
		if req.Payload != "ping" || req.Size != 100 {
			t.Errorf("bad request: %+v", req)
		}
		server.PutReply(th, req, "pong", 50)
	})

	var reply any
	var size int
	var err error
	client.Processor().NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		reply, size, err = client.Trans(th, port, "ping", 100)
	})
	r.sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reply != "pong" || size != 50 {
		t.Fatalf("reply = %v/%d", reply, size)
	}
}

func TestRPCNullLatencyBand(t *testing.T) {
	r := newRig(t, 2, 1)
	const port Port = 1
	server, client := r.kernels[0], r.kernels[1]
	server.Processor().NewThread("server", proc.PrioDaemon, func(th *proc.Thread) {
		for {
			req := new(Request)
			server.GetRequest(th, port, req)
			server.PutReply(th, req, nil, 0)
		}
	})
	const rounds = 10
	var total time.Duration
	client.Processor().NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		// Warm up (locate etc.).
		if _, _, err := client.Trans(th, port, nil, 0); err != nil {
			t.Error(err)
			return
		}
		start := r.sim.Now()
		for i := 0; i < rounds; i++ {
			if _, _, err := client.Trans(th, port, nil, 0); err != nil {
				t.Error(err)
				return
			}
		}
		total = r.sim.Now().Sub(start)
	})
	r.sim.Run()
	avg := total / rounds
	// Paper Table 1: kernel-space null RPC = 1.27 ms. This test only
	// checks sanity; the calibrated value is asserted in the top-level
	// benchmark/calibration tests once the full stack is assembled.
	if avg < 300*time.Microsecond || avg > 2500*time.Microsecond {
		t.Fatalf("null RPC latency = %v, want ≈1.27ms", avg)
	}
}

func TestRPCServerThreadBinding(t *testing.T) {
	r := newRig(t, 2, 1)
	const port Port = 9
	server, client := r.kernels[0], r.kernels[1]

	reqCh := make(chan *Request, 1)
	server.Processor().NewThread("accepter", proc.PrioDaemon, func(th *proc.Thread) {
		req := new(Request)
		server.GetRequest(th, port, req)
		reqCh <- req
		th.Block() // keep the accepter alive but idle
	})
	panicked := make(chan bool, 1)
	server.Processor().NewThread("other", proc.PrioDaemon, func(th *proc.Thread) {
		th.Sleep(50 * time.Millisecond)
		req := <-reqCh
		defer func() { panicked <- recover() != nil }()
		server.PutReply(th, req, nil, 0) // must panic: wrong thread
	})
	client.Processor().NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		_, _, _ = client.Trans(th, port, nil, 0)
	})
	r.sim.RunUntil(sim.Time(2 * time.Second))
	select {
	case ok := <-panicked:
		if !ok {
			t.Fatal("PutReply from wrong thread did not panic")
		}
	default:
		t.Fatal("other thread never attempted PutReply")
	}
}

func TestRPCSurvivesPacketLoss(t *testing.T) {
	r := newRig(t, 2, 1)
	r.net.SetLossRate(0.15)
	const port Port = 2
	server, client := r.kernels[0], r.kernels[1]
	served := 0
	server.Processor().NewThread("server", proc.PrioDaemon, func(th *proc.Thread) {
		for {
			req := new(Request)
			server.GetRequest(th, port, req)
			served++
			server.PutReply(th, req, req.Payload, req.Size)
		}
	})
	completed := 0
	client.Processor().NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		for i := 0; i < 20; i++ {
			reply, size, err := client.Trans(th, port, i, 2000)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if reply != i || size != 2000 {
				t.Errorf("call %d: got %v/%d", i, reply, size)
				return
			}
			completed++
		}
	})
	r.sim.Run()
	if completed != 20 {
		t.Fatalf("completed %d/20 calls under loss", completed)
	}
	if r.net.Dropped() == 0 {
		t.Fatal("loss injector did not drop anything; test is vacuous")
	}
}

func TestRPCAtMostOnceUnderLoss(t *testing.T) {
	r := newRig(t, 2, 1)
	// Drop enough to force request retransmissions.
	r.net.SetLossRate(0.25)
	const port Port = 3
	server, client := r.kernels[0], r.kernels[1]
	executions := make(map[int]int)
	server.Processor().NewThread("server", proc.PrioDaemon, func(th *proc.Thread) {
		for {
			req := new(Request)
			server.GetRequest(th, port, req)
			if id, ok := req.Payload.(int); ok {
				executions[id]++
			}
			server.PutReply(th, req, nil, 0)
		}
	})
	client.Processor().NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		for i := 0; i < 15; i++ {
			if _, _, err := client.Trans(th, port, i, 500); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
	})
	r.sim.Run()
	for id, n := range executions {
		if n != 1 {
			t.Fatalf("request %d executed %d times, want exactly once", id, n)
		}
	}
	if len(executions) != 15 {
		t.Fatalf("executed %d distinct requests, want 15", len(executions))
	}
}

func TestGroupBasicTotalOrder(t *testing.T) {
	r := newRig(t, 3, 1)
	const gid GroupID = 1
	members := []int{0, 1, 2}
	for _, k := range r.kernels {
		if err := k.GroupConfigure(gid, members, 0); err != nil {
			t.Fatal(err)
		}
	}
	const perSender = 10
	received := make([][]int, 3)
	for i, k := range r.kernels {
		i, k := i, k
		k.Processor().NewThread("recv", proc.PrioDaemon, func(th *proc.Thread) {
			for len(received[i]) < 2*perSender {
				d, err := k.GrpReceive(th, gid)
				if err != nil {
					t.Error(err)
					return
				}
				v, ok := d.Payload.(int)
				if !ok {
					t.Error("bad payload")
					return
				}
				received[i] = append(received[i], v)
			}
		})
	}
	// Kernels 1 and 2 send concurrently.
	for s := 1; s <= 2; s++ {
		s := s
		k := r.kernels[s]
		k.Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
			for j := 0; j < perSender; j++ {
				if err := k.GrpSend(th, gid, s*1000+j, 100); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.sim.Run()
	for i := 0; i < 3; i++ {
		if len(received[i]) != 2*perSender {
			t.Fatalf("member %d received %d, want %d", i, len(received[i]), 2*perSender)
		}
	}
	for i := 1; i < 3; i++ {
		for j := range received[0] {
			if received[i][j] != received[0][j] {
				t.Fatalf("total order violated at %d: member %d saw %v, member 0 saw %v",
					j, i, received[i], received[0])
			}
		}
	}
}

func TestGroupSenderBlocksUntilOwnDelivery(t *testing.T) {
	r := newRig(t, 2, 1)
	const gid GroupID = 2
	for _, k := range r.kernels {
		if err := k.GroupConfigure(gid, []int{0, 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var sendDone sim.Time
	var delivered sim.Time
	k1 := r.kernels[1]
	k1.Processor().NewThread("recv", proc.PrioDaemon, func(th *proc.Thread) {
		if _, err := k1.GrpReceive(th, gid); err != nil {
			t.Error(err)
		}
		delivered = r.sim.Now()
	})
	k1.Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
		if err := k1.GrpSend(th, gid, "x", 10); err != nil {
			t.Error(err)
		}
		sendDone = r.sim.Now()
	})
	r.sim.Run()
	if sendDone == 0 || delivered == 0 {
		t.Fatal("send or delivery missing")
	}
	// The send completes only after the sequencer round trip: at least
	// two wire crossings.
	if sendDone < sim.Time(500*time.Microsecond) {
		t.Fatalf("send completed suspiciously fast: %v", sendDone)
	}
}

func TestGroupLargeMessageUsesBBMethod(t *testing.T) {
	r := newRig(t, 3, 1)
	const gid GroupID = 3
	for _, k := range r.kernels {
		if err := k.GroupConfigure(gid, []int{0, 1, 2}, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]any, 3)
	for i, k := range r.kernels {
		i, k := i, k
		k.Processor().NewThread("recv", proc.PrioDaemon, func(th *proc.Thread) {
			d, err := k.GrpReceive(th, gid)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = d.Payload
		})
	}
	k2 := r.kernels[2]
	k2.Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
		if err := k2.GrpSend(th, gid, "big", 8000); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	for i := 0; i < 3; i++ {
		if got[i] != "big" {
			t.Fatalf("member %d got %v", i, got[i])
		}
	}
}

func TestGroupTotalOrderUnderLoss(t *testing.T) {
	r := newRig(t, 4, 1)
	r.net.SetLossRate(0.10)
	const gid GroupID = 4
	members := []int{0, 1, 2, 3}
	for _, k := range r.kernels {
		if err := k.GroupConfigure(gid, members, 0); err != nil {
			t.Fatal(err)
		}
	}
	const perSender = 8
	const senders = 3
	received := make([][]int, 4)
	for i, k := range r.kernels {
		i, k := i, k
		k.Processor().NewThread("recv", proc.PrioDaemon, func(th *proc.Thread) {
			for len(received[i]) < senders*perSender {
				d, err := k.GrpReceive(th, gid)
				if err != nil {
					t.Error(err)
					return
				}
				received[i] = append(received[i], d.Payload.(int))
			}
		})
	}
	for s := 1; s <= senders; s++ {
		s := s
		k := r.kernels[s]
		k.Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
			for j := 0; j < perSender; j++ {
				if err := k.GrpSend(th, gid, s*1000+j, 200); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.sim.Run()
	if r.net.Dropped() == 0 {
		t.Fatal("no packets dropped; loss test is vacuous")
	}
	for i := 0; i < 4; i++ {
		if len(received[i]) != senders*perSender {
			t.Fatalf("member %d received %d/%d", i, len(received[i]), senders*perSender)
		}
	}
	for i := 1; i < 4; i++ {
		for j := range received[0] {
			if received[i][j] != received[0][j] {
				t.Fatalf("total order violated under loss (member %d, index %d)", i, j)
			}
		}
	}
	// FIFO per sender must also hold.
	for i := 0; i < 4; i++ {
		last := map[int]int{}
		for _, v := range received[i] {
			s := v / 1000
			if prev, ok := last[s]; ok && v <= prev {
				t.Fatalf("per-sender FIFO violated at member %d: %d after %d", i, v, prev)
			}
			last[s] = v
		}
	}
}

func TestGroupHistoryTrimming(t *testing.T) {
	r := newRig(t, 2, 1)
	const gid GroupID = 5
	for _, k := range r.kernels {
		if err := k.GroupConfigure(gid, []int{0, 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Drain deliveries on both members.
	for _, k := range r.kernels {
		k := k
		k.Processor().NewThread("recv", proc.PrioDaemon, func(th *proc.Thread) {
			for {
				if _, err := k.GrpReceive(th, gid); err != nil {
					return
				}
			}
		})
	}
	k1 := r.kernels[1]
	const total = 300 // well past GroupHistory (128)
	k1.Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
		for j := 0; j < total; j++ {
			if err := k1.GrpSend(th, gid, j, 50); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.sim.Run()
	seqMember := r.kernels[0].grp[gid]
	if len(seqMember.history) > 2*model.Calibrated().GroupHistory {
		t.Fatalf("history grew unboundedly: %d entries", len(seqMember.history))
	}
	if r.kernels[0].GrpDelivered(gid) != total || r.kernels[1].GrpDelivered(gid) != total {
		t.Fatalf("delivered %d/%d, want %d", r.kernels[0].GrpDelivered(gid), r.kernels[1].GrpDelivered(gid), total)
	}
}

func TestGroupCrossSegment(t *testing.T) {
	r := newRig(t, 4, 2) // two segments, two kernels each
	const gid GroupID = 6
	members := []int{0, 1, 2, 3}
	for _, k := range r.kernels {
		if err := k.GroupConfigure(gid, members, 0); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int, 4)
	for i, k := range r.kernels {
		i, k := i, k
		k.Processor().NewThread("recv", proc.PrioDaemon, func(th *proc.Thread) {
			for counts[i] < 1 {
				if _, err := k.GrpReceive(th, gid); err != nil {
					t.Error(err)
					return
				}
				counts[i]++
			}
		})
	}
	k3 := r.kernels[3]
	k3.Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
		if err := k3.GrpSend(th, gid, "cross", 100); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("member %d received %d", i, c)
		}
	}
}

func TestGroupErrorsForNonMember(t *testing.T) {
	r := newRig(t, 2, 1)
	k := r.kernels[0]
	k.Processor().NewThread("x", proc.PrioNormal, func(th *proc.Thread) {
		if err := k.GrpSend(th, 42, nil, 0); err == nil {
			t.Error("GrpSend on unconfigured group should fail")
		}
		if _, err := k.GrpReceive(th, 42); err == nil {
			t.Error("GrpReceive on unconfigured group should fail")
		}
	})
	r.sim.Run()
}
