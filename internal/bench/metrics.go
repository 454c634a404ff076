package bench

import (
	"fmt"
	"io"

	"amoebasim/internal/cluster"
	"amoebasim/internal/metrics"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// ModeObservability is the metrics appendix for one Panda implementation:
// a fixed mixed workload (small and fragmented RPCs plus ordered group
// sends) run with the registry attached, snapshotted after the run.
type ModeObservability struct {
	Mode    string           `json:"mode"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// ObservabilityRun executes the mixed workload on a 2-processor group
// cluster in the given mode and returns the per-layer metrics snapshot.
// The simulation is deterministic, so equal seeds produce byte-identical
// snapshots.
func ObservabilityRun(mode panda.Mode, seed uint64) (ModeObservability, error) {
	c, err := newCluster(cluster.Config{
		Procs: 2, Mode: mode, Group: true, Seed: seed, Metrics: true,
	})
	if err != nil {
		return ModeObservability{}, err
	}
	defer c.Shutdown()
	srv := c.Transports[0]
	srv.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
		srv.Reply(t, ctx, nil, 0)
	})
	c.Procs[1].NewThread("client", proc.PrioNormal, func(t *proc.Thread) {
		for i := 0; i < defaultRounds; i++ {
			if _, _, err := c.Transports[1].Call(t, 0, nil, 0); err != nil {
				return
			}
			// Large enough to fragment, exercising the FLIP layer.
			if _, _, err := c.Transports[1].Call(t, 0, nil, 4096); err != nil {
				return
			}
			if err := c.Transports[1].GroupSend(t, nil, 0); err != nil {
				return
			}
		}
	})
	c.Run()
	return ModeObservability{Mode: mode.String(), Metrics: c.Metrics.Snapshot()}, nil
}

// ObservabilityAppendix runs the workload in every implementation.
func ObservabilityAppendix(seed uint64) ([]ModeObservability, error) {
	var runs []ModeObservability
	for _, mode := range panda.AllModes() {
		run, err := ObservabilityRun(mode, seed)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// PrintObservability renders per-layer metric tables for each mode.
func PrintObservability(w io.Writer, runs []ModeObservability) error {
	for i, run := range runs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== metrics, %s ===\n", run.Mode)
		if err := run.Metrics.WriteTable(w); err != nil {
			return err
		}
	}
	return nil
}
