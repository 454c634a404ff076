package panda_test

import (
	"strings"
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/faults"
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

// callTimes runs one client on processor 1 calling processor 0 in a
// closed loop until until, and returns the instant each call completed.
func callTimes(t *testing.T, c *cluster.Cluster, until time.Duration) []sim.Time {
	t.Helper()
	echoServer(c.Transports[0])
	var done []sim.Time
	c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		for c.Sim.Now() < sim.Time(until) {
			if _, _, err := c.Transports[1].Call(th, 0, "ping", 64); err == nil {
				done = append(done, c.Sim.Now())
			}
		}
	})
	c.RunUntil(sim.Time(until + 2*time.Second))
	return done
}

// TestNICFlapStopsServerInEveryPlacement: while nic-flap holds processor
// 0's interface down (200-700 ms), no call to it completes, in any
// placement: the fault downs the interface that carries the placement's
// traffic. Calls complete before the outage and again after it.
func TestNICFlapStopsServerInEveryPlacement(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{
				Procs: 4, Segments: 2, Mode: mode, Seed: 5, FaultScenario: "nic-flap",
			})
			var before, during, after int
			for _, at := range callTimes(t, c, 1500*time.Millisecond) {
				switch {
				case at < sim.Time(200*time.Millisecond):
					before++
				case at < sim.Time(210*time.Millisecond):
					// A reply already on the wire may still land.
				case at < sim.Time(700*time.Millisecond):
					during++
				default:
					after++
				}
			}
			if before == 0 || after == 0 || during != 0 {
				t.Fatalf("calls completed: %d before the outage, %d during it, %d after it; want some, none, some",
					before, during, after)
			}
		})
	}
}

// TestNICEventPastPoolIgnored: a fault NIC event naming a processor the
// pool does not have is ignored in every placement. It must not down
// another processor's interface.
func TestNICEventPastPoolIgnored(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			const procs = 2
			c := newCluster(t, cluster.Config{
				Procs: procs, Mode: mode, Seed: 5, Metrics: true,
				Faults: &faults.Scenario{Name: "past-pool", NICEvents: []faults.NICEvent{
					{Proc: procs, At: 100 * time.Millisecond, Down: true},
				}},
			})
			calls := len(callTimes(t, c, 600*time.Millisecond))
			var events, retrans int64
			for _, s := range c.Metrics.Snapshot().Counters {
				switch {
				case s.Name == "faults.nic_events":
					events += s.Value
				case strings.HasSuffix(s.Name, ".rpc_retransmissions"):
					retrans += s.Value
				}
			}
			if calls == 0 || events != 0 || retrans != 0 {
				t.Fatalf("%d calls, %d NIC events applied, %d retransmissions; want calls, no events, no retransmissions",
					calls, events, retrans)
			}
		})
	}
}
