package bench

import (
	"fmt"
	"io"
	"time"

	"amoebasim/internal/apps"
	"amoebasim/internal/cluster"
	"amoebasim/internal/faults"
	"amoebasim/internal/metrics"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// Fault-soak geometry: four workers over two Ethernet segments, so the
// partition scenarios actually have an inter-switch link to sever.
const (
	soakProcs    = 4
	soakSegments = 2
)

// soakRecovery is how far past the scenario horizon the RPC workload keeps
// running, so the post-fault recovery path is exercised, not just assumed.
const soakRecovery = 200 * time.Millisecond

// soakMinRounds is the per-client floor on echo rounds, for scenarios whose
// schedule is empty under the soak geometry.
const soakMinRounds = 10

// FaultSoakResult is one RPC soak run under a fault scenario: a verified
// echo workload on every client plus ordered group sends, driven past the
// scenario horizon.
type FaultSoakResult struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`

	// Workload outcome. Mismatches and Unrecovered must be zero for the
	// run to count as correct; CallErrors counts protocol-level give-ups
	// that the app-level retry then recovered.
	Calls       int `json:"calls"`
	GroupSends  int `json:"group_sends"`
	CallErrors  int `json:"call_errors"`
	Mismatches  int `json:"mismatches"`
	Unrecovered int `json:"unrecovered"`

	// Injector activity, proof the scenario actually did something.
	DropsBurst     int64 `json:"drops_burst"`
	DropsPartition int64 `json:"drops_partition"`
	Dups           int64 `json:"dups"`
	Delays         int64 `json:"delays"`
	NetDrops       int64 `json:"net_drops"`

	Elapsed time.Duration    `json:"elapsed"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// RunFaultSoakRPC runs the echo + group-send soak workload under the named
// scenario in the given mode. Deterministic: equal seeds give a
// byte-identical Metrics snapshot and equal Elapsed.
func RunFaultSoakRPC(scenario string, mode panda.Mode, workSeed, faultSeed uint64) (FaultSoakResult, error) {
	sc, err := faults.Build(scenario, faults.Shape{Procs: soakProcs, Segments: soakSegments})
	if err != nil {
		return FaultSoakResult{}, err
	}
	c, err := cluster.New(cluster.Config{
		Procs: soakProcs, Segments: soakSegments, Mode: mode, Group: true,
		Seed: workSeed, Faults: sc, FaultSeed: faultSeed, Metrics: true,
	})
	if err != nil {
		return FaultSoakResult{}, err
	}
	defer c.Shutdown()

	res := FaultSoakResult{Scenario: scenario, Mode: mode.String()}
	end := sc.Horizon() + soakRecovery

	srv := c.Transports[0]
	srv.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
		srv.Reply(t, ctx, req, sz) // echo
	})

	for id := 1; id < soakProcs; id++ {
		id := id
		tr := c.Transports[id]
		c.Procs[id].NewThread(fmt.Sprintf("soak-%d", id), proc.PrioNormal, func(t *proc.Thread) {
			for round := 0; round < soakMinRounds || c.Sim.Now() < sim.Time(end); round++ {
				want := int64(id)<<32 | int64(round)
				size := 64
				if round%5 == 4 {
					size = 4096 // fragment, exercising FLIP reassembly
				}
				ok := false
				for attempt := 0; attempt < 3; attempt++ {
					rep, _, err := tr.Call(t, 0, want, size)
					if err != nil {
						res.CallErrors++
						continue
					}
					if got, _ := rep.(int64); got != want {
						res.Mismatches++
					}
					ok = true
					break
				}
				if !ok {
					res.Unrecovered++
					return
				}
				res.Calls++
				if round%4 == 3 {
					if err := tr.GroupSend(t, want, 32); err != nil {
						res.Unrecovered++
						return
					}
					res.GroupSends++
				}
			}
		})
	}
	c.Run()

	res.DropsBurst, res.DropsPartition, res.Dups, res.Delays = c.Faults.Stats()
	res.NetDrops = c.Net.Dropped()
	res.Elapsed = c.Sim.Now().Duration()
	res.Metrics = c.Metrics.Snapshot()
	return res, nil
}

// RunFaultSoakApps runs every test-scale Orca application under the named
// scenario and checks each answer against a clean (fault-free) run of the
// same app, mode and seed. It returns the faulted results; any wrong
// answer or aborted run is an error.
func RunFaultSoakApps(scenario string, mode panda.Mode, workSeed, faultSeed uint64) ([]apps.Result, error) {
	var out []apps.Result
	for _, app := range apps.TestScale() {
		clean, err := apps.RunApp(app, cluster.Config{
			Procs: soakProcs, Segments: soakSegments, Mode: mode, Seed: workSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("faultsoak: clean run of %s: %w", app.Name(), err)
		}
		faulted, err := apps.RunApp(app, cluster.Config{
			Procs: soakProcs, Segments: soakSegments, Mode: mode, Seed: workSeed,
			FaultScenario: scenario, FaultSeed: faultSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("faultsoak: %s under %s: %w", app.Name(), scenario, err)
		}
		if faulted.Answer != clean.Answer {
			return nil, fmt.Errorf("faultsoak: %s under %s: answer %d, want %d",
				app.Name(), scenario, faulted.Answer, clean.Answer)
		}
		out = append(out, faulted)
	}
	return out, nil
}

// FaultSoakRun is one scenario x mode soak: the verified RPC workload
// plus every test-scale Orca application.
type FaultSoakRun struct {
	Scenario string
	Mode     panda.Mode
	RPC      FaultSoakResult
	Apps     []apps.Result
}

// FaultSoakSweep fans the scenario x implementation soak matrix out over
// the worker pool and returns the runs in deterministic (scenario-major,
// then panda.AllModes) order. Each soak owns its clusters, so results
// are identical for any worker count.
func FaultSoakSweep(scenarios []string, workSeed, faultSeed uint64, workers int) ([]FaultSoakRun, error) {
	modes := panda.AllModes()
	runs := make([]FaultSoakRun, 0, len(scenarios)*len(modes))
	for _, n := range scenarios {
		for _, mode := range modes {
			runs = append(runs, FaultSoakRun{Scenario: n, Mode: mode})
		}
	}
	jobs := make([]Job, len(runs))
	for i := range runs {
		r := &runs[i]
		jobs[i] = Job{
			Name: fmt.Sprintf("faults/%s/%s", r.Scenario, r.Mode),
			Run: func() error {
				rpc, err := RunFaultSoakRPC(r.Scenario, r.Mode, workSeed, faultSeed)
				if err != nil {
					return err
				}
				appRes, err := RunFaultSoakApps(r.Scenario, r.Mode, workSeed, faultSeed)
				if err != nil {
					return err
				}
				r.RPC, r.Apps = rpc, appRes
				return nil
			},
		}
	}
	if err := PoolErrors(RunPool(jobs, workers)); err != nil {
		return nil, err
	}
	return runs, nil
}

// PrintFaultSoak renders one soak result as a short report.
func PrintFaultSoak(w io.Writer, res FaultSoakResult) {
	fmt.Fprintf(w, "=== fault soak: %s, %s ===\n", res.Scenario, res.Mode)
	fmt.Fprintf(w, "calls %d (errors retried %d, mismatches %d, unrecovered %d), group sends %d\n",
		res.Calls, res.CallErrors, res.Mismatches, res.Unrecovered, res.GroupSends)
	fmt.Fprintf(w, "injected: %d burst drops, %d partition drops, %d dups, %d delays (%d total net drops)\n",
		res.DropsBurst, res.DropsPartition, res.Dups, res.Delays, res.NetDrops)
	fmt.Fprintf(w, "elapsed %v\n", res.Elapsed)
}
