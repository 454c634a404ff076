package cluster

import (
	"testing"

	"amoebasim/internal/panda"
)

// registrationAllocBudget caps the heap objects that turning metrics on
// adds to building a cluster, per processor. Each layer registers its
// series as one pointer-free struct (proc, flip, akernel and user-space
// panda: four objects per processor), and the registry appends one
// record per struct to slices that grow by doubling.
const registrationAllocBudget = 8

// TestMetricsRegistrationBudget holds the set-up cost of the metrics
// registry: a 256-processor user-space cluster built with Metrics on may
// allocate at most registrationAllocBudget objects per processor more
// than the same cluster built with it off.
func TestMetricsRegistrationBudget(t *testing.T) {
	const procs = 256
	build := func(on bool) float64 {
		cfg := Config{Procs: procs, Mode: panda.UserSpace, Seed: 5, Metrics: on}
		return testing.AllocsPerRun(3, func() {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Shutdown()
		})
	}
	off, on := build(false), build(true)
	if extra := (on - off) / procs; extra > registrationAllocBudget {
		t.Fatalf("metrics add %.1f objects per processor to cluster.New (%.0f on, %.0f off), budget %d",
			extra, on, off, registrationAllocBudget)
	}
}
