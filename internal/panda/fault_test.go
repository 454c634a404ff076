package panda_test

import (
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// TestRPCToDeadHostFailsCleanly: a call to a machine whose interface is
// down must return an error after the retransmission budget, not hang.
func TestRPCToDeadHostFailsCleanly(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			echoServer(c.Transports[0])
			rpcNIC(c, 0).SetDown(true)
			var callErr error
			returned := false
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				_, _, callErr = c.Transports[1].Call(th, 0, "hello", 100)
				returned = true
			})
			c.Run()
			if !returned {
				t.Fatal("call never returned")
			}
			if callErr == nil {
				t.Fatal("call to dead host should fail")
			}
		})
	}
}

// TestRPCSurvivesTransientOutage: the server machine goes down briefly and
// comes back; retransmission completes the call exactly once.
func TestRPCSurvivesTransientOutage(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			served := 0
			srv := c.Transports[0]
			srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, n int) {
				served++
				srv.Reply(th, ctx, req, n)
			})
			nic := rpcNIC(c, 0)
			nic.SetDown(true)
			c.Sim.Schedule(350*time.Millisecond, func() { nic.SetDown(false) })
			var reply any
			var callErr error
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				reply, _, callErr = c.Transports[1].Call(th, 0, "persist", 64)
			})
			c.Run()
			if callErr != nil {
				t.Fatalf("call failed despite recovery: %v", callErr)
			}
			if reply != "persist" || served != 1 {
				t.Fatalf("reply=%v served=%d", reply, served)
			}
		})
	}
}

// TestGroupRecoversFromMemberOutage: a member misses broadcasts while its
// interface is down, then catches up through the sequencer's history
// (watchdog probe + suffix retransmission).
func TestGroupRecoversFromMemberOutage(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 3, Mode: mode, Group: true})
			received := make([][]int, 3)
			for i := 0; i < 3; i++ {
				i := i
				c.Transports[i].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, n int) {
					received[i] = append(received[i], payload.(int))
				})
			}
			// Member 2 is dark during the first half of the traffic.
			nic := rpcNIC(c, 2)
			nic.SetDown(true)
			c.Sim.Schedule(250*time.Millisecond, func() { nic.SetDown(false) })

			tr := c.Transports[1]
			c.Procs[1].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
				for j := 0; j < 10; j++ {
					if err := tr.GroupSend(th, j, 100); err != nil {
						t.Errorf("send %d: %v", j, err)
						return
					}
					th.Sleep(40 * time.Millisecond)
				}
			})
			c.RunUntil(sim.Time(10 * time.Second))
			for i := 0; i < 3; i++ {
				if len(received[i]) != 10 {
					t.Fatalf("member %d received %d/10", i, len(received[i]))
				}
				for j, v := range received[i] {
					if v != j {
						t.Fatalf("member %d out of order at %d: %v", i, j, received[i])
					}
				}
			}
		})
	}
}
