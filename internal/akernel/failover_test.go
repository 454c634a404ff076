package akernel

import (
	"testing"
	"time"

	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// TestRPCRouteFailover reproduces the stale-route-cache bug: a server
// crashes (NIC down) and the service reappears on another board. The
// client's kernel has the dead board cached as the route for the port, so
// retransmissions must invalidate the route and re-locate — with the cache
// left in place every retry goes to the dead NIC and the call fails. In
// the warm row the dead board's route comes from the shared directory
// flip.WarmRoutes installs, not from a locate: the first call needs no
// locate, and invalidating the directory route must still force the one
// that finds the new server.
func TestRPCRouteFailover(t *testing.T) {
	for _, tc := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm-routes", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3, 1)
			const port Port = 7
			k0, k1, client := r.kernels[0], r.kernels[1], r.kernels[2]
			locates := &locateCounter{}
			r.sim.SetTracer(locates)

			serve := func(k *Kernel, name string) func(*proc.Thread) {
				return func(th *proc.Thread) {
					for {
						req := new(Request)
						k.GetRequest(th, port, req)
						k.PutReply(th, req, name, 8)
					}
				}
			}
			// Only k0 serves the port at first; k1 takes over 500 ms in.
			k0.Processor().NewThread("srv0", proc.PrioDaemon, serve(k0, "k0"))
			k1.Processor().NewThread("srv1", proc.PrioDaemon, func(th *proc.Thread) {
				th.Sleep(500 * time.Millisecond)
				serve(k1, "k1")(th)
			})
			if tc.warm {
				// k0 registers the port in its first GetRequest.
				r.sim.RunUntil(sim.Time(time.Millisecond))
				stacks := make([]*flip.Stack, len(r.kernels))
				for i, k := range r.kernels {
					stacks[i] = k.FLIP()
				}
				flip.WarmRoutes(stacks)
			}

			var rep1, rep2 any
			var err1, err2 error
			var firstLocates int
			client.Processor().NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				rep1, _, err1 = client.Trans(th, port, "a", 10)
				firstLocates = locates.n
				// k0 dies with the client's route cache pointing at it.
				r.net.NIC(0).SetDown(true)
				rep2, _, err2 = client.Trans(th, port, "b", 10)
			})
			r.sim.Run()

			if err1 != nil || rep1 != "k0" {
				t.Fatalf("first call: reply=%v err=%v, want k0", rep1, err1)
			}
			if err2 != nil {
				t.Fatalf("call after failover: %v (stale route cache never invalidated?)", err2)
			}
			if rep2 != "k1" {
				t.Fatalf("call after failover answered by %v, want k1", rep2)
			}
			if tc.warm && firstLocates != 0 {
				t.Fatalf("first call over a warm route sent %d locates, want 0", firstLocates)
			}
			if firstLocates == 0 && !tc.warm {
				t.Fatal("first call over a cold route sent no locate")
			}
			if locates.n == firstLocates {
				t.Fatal("failover found the new server without a locate")
			}
		})
	}
}

// locateCounter is a tracer that counts FLIP locate broadcasts.
type locateCounter struct{ n int }

func (c *locateCounter) Trace(_ sim.Time, _, kind, _ string) {
	if kind == "flip.locate" {
		c.n++
	}
}

func (c *locateCounter) TraceSpan(sim.Time, sim.Phase, uint64, string, string, string) {}
