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
	t.Helper()
	s := sim.New()
	m := model.Calibrated()
	net := ether.New(s, m, segments, 1)
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
