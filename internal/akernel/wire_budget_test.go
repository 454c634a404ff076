package akernel

import (
	"testing"

	"amoebasim/internal/proc"
)

// TestRPCWireBudget pins the kernel RPC's 3-way frame budget: after the
// locate handshakes, each null RPC costs exactly three frames (request,
// reply, explicit acknowledgement). This is a regression test for a bug
// where the acknowledgement was addressed to port 0 and leaked an endless
// stream of locate broadcasts.
func TestRPCWireBudget(t *testing.T) {
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
	const warmup, rounds = 2, 10
	var framesAfterWarmup int64
	client.Processor().NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		for i := 0; i < warmup; i++ {
			if _, _, err := client.Trans(th, port, nil, 0); err != nil {
				t.Error(err)
				return
			}
		}
		framesAfterWarmup = r.net.SegmentFrames(0)
		for i := 0; i < rounds; i++ {
			if _, _, err := client.Trans(th, port, nil, 0); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.sim.Run()
	perRPC := (r.net.SegmentFrames(0) - framesAfterWarmup) / rounds
	if perRPC != 3 {
		t.Fatalf("frames per null RPC = %d, want exactly 3 (REQ, REP, ACK)", perRPC)
	}
}
