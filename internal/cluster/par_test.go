package cluster

import (
	"fmt"
	"testing"
	"time"

	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// parFingerprint runs a fixed cross-segment unicast RPC workload and
// returns a deterministic digest of everything an artifact could record:
// per-client completed calls and accumulated latency, the final clock,
// and the total scheduler events executed.
func parFingerprint(t *testing.T, cfg Config, window time.Duration) string {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Shutdown()

	for i := 0; i < cfg.Procs; i++ {
		srv := c.Transports[i]
		srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
			srv.Reply(th, ctx, nil, 0)
		})
	}
	// Client on each processor of the upper half calls the same-index
	// server in the lower half — every call crosses segments, and starts
	// are staggered so no two partitions act at the same instant.
	nclients := cfg.Procs / 2
	ops := make([]int, nclients)
	lat := make([]time.Duration, nclients)
	for i := 0; i < nclients; i++ {
		i := i
		cl := c.Transports[nclients+i]
		c.Procs[nclients+i].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
			th.Sleep(time.Duration(i) * 13 * time.Microsecond)
			for {
				start := th.Proc().Sim().Now()
				if _, _, err := cl.Call(th, i, nil, 128); err != nil {
					return
				}
				ops[i]++
				lat[i] += th.Proc().Sim().Now().Sub(start)
			}
		})
	}
	c.RunUntil(sim.Time(window))

	fp := fmt.Sprintf("now=%v events=%d\n", c.Sim.Now(), c.EventsRun())
	for i := range ops {
		fp += fmt.Sprintf("client%d ops=%d lat=%v\n", i, ops[i], lat[i])
	}
	return fp
}

// TestParByteIdenticalToSequential: the partitioned conservative engine
// produces exactly the fingerprint of the proven single-queue engine —
// same per-client results, same final clock, same event count — for both
// the flat (partition per segment) and hierarchical (partition per
// switch group) topologies, at several worker counts.
func TestParByteIdenticalToSequential(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"flat-4seg", Config{Procs: 32, Mode: panda.UserSpace, WarmRoutes: true}},
		{"hier-8seg-fanin2", Config{Procs: 32, Mode: panda.UserSpace, WarmRoutes: true,
			Topology: Topology{Segments: 8, SwitchFanIn: 2}}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			seq := parFingerprint(t, sh.cfg, 20*time.Millisecond)
			for _, par := range []int{2, 4} {
				cfg := sh.cfg
				cfg.Par = par
				got := parFingerprint(t, cfg, 20*time.Millisecond)
				if got != seq {
					t.Errorf("par=%d diverged from sequential:\n--- sequential ---\n%s--- par=%d ---\n%s", par, seq, par, got)
				}
			}
		})
	}
}

// TestParWithFaultsFallsBackIdentical: a fault-injected configuration
// takes the documented single-queue fallback, and requesting -par there
// changes nothing — the whole artifact surface stays byte-identical.
func TestParWithFaultsFallsBackIdentical(t *testing.T) {
	base := Config{Procs: 16, Mode: panda.UserSpace, WarmRoutes: true, FaultScenario: "burst-loss"}
	seq := parFingerprint(t, base, 20*time.Millisecond)
	cfg := base
	cfg.Par = 4
	got := parFingerprint(t, cfg, 20*time.Millisecond)
	if got != seq {
		t.Errorf("par=4 under faults diverged from sequential:\n--- sequential ---\n%s--- par=4 ---\n%s", seq, got)
	}
}

// TestParEngagesOnlyWhenSafe: configurations whose interactions don't
// all flow through ether frames (groups, metrics, faults, loss) fall
// back to the single-queue engine even with Par set, as documented.
func TestParEngagesOnlyWhenSafe(t *testing.T) {
	mk := func(mut func(*Config)) *Cluster {
		cfg := Config{Procs: 16, Mode: panda.UserSpace, Par: 4, WarmRoutes: true}
		mut(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(c.Shutdown)
		return c
	}
	if c := mk(func(*Config) {}); c.Par == nil || c.Partitions() != 2 {
		t.Errorf("plain unicast pool: want partitioned engine with 2 partitions, got Par=%v parts=%d", c.Par, c.Partitions())
	}
	for name, mut := range map[string]func(*Config){
		"group":   func(c *Config) { c.Group = true },
		"metrics": func(c *Config) { c.Metrics = true },
		"faults":  func(c *Config) { c.FaultScenario = "burst-loss" },
		"loss":    func(c *Config) { c.LossRate = 0.01 },
		"par1":    func(c *Config) { c.Par = 1 },
		"one-seg": func(c *Config) { c.Segments = 1 },
	} {
		if c := mk(mut); c.Par != nil {
			t.Errorf("%s: want single-queue fallback, got partitioned engine", name)
		}
	}
}
