// Command amoebasim regenerates the paper's results on the simulated
// Amoeba pool:
//
//	amoebasim -table 1          Table 1 (communication latencies)
//	amoebasim -table 2          Table 2 (communication throughputs)
//	amoebasim -table 3          Table 3 (Orca applications; -scale quick|paper)
//	amoebasim -decompose        §4.2/§4.3 per-operation cost accounting
//	amoebasim -trace            protocol timeline of one null RPC per mode
//	amoebasim -sweep latency    CSV latency-vs-size sweep (plottable)
//	amoebasim -sweep speedup    CSV speedup curve for one app (-apps, -scale)
//	amoebasim -metrics          per-layer metrics tables for all three implementations
//	amoebasim -metrics-json F   machine-readable metrics appendix to file F
//	amoebasim -trace-json F     null-RPC span timelines as JSON to file F
//	amoebasim -faults S         fault-injection soak under scenario S (list|all|name)
//	amoebasim -fault-seed N     fault-schedule seed (default: derived from -seed)
//	amoebasim -jobs N           worker-pool width for sweeps (default: NumCPU)
//	amoebasim -bench-json F     full Table 1-3 sweep to BENCH artifact F ("auto": BENCH_<date>.json)
//	amoebasim -baseline F       zero-drift gate: compare the run's artifact of F's kind against F
//	                            (alone: the BENCH sweep)
//	amoebasim -wall-budget D    fail if the run's host wall-clock exceeds D
//	amoebasim -decomp-json F    causal latency decomposition to DECOMP artifact F ("auto": DECOMP_<date>.json)
//	amoebasim -chrome-trace F   Chrome trace-event JSON (Perfetto-loadable) of a traced run to F
//	amoebasim -trace-cap N      trace ring-buffer capacity in events (default 65536)
//	amoebasim -workload open    latency-vs-offered-load curves for all three modes
//	amoebasim -load L1,L2,...   offered loads in ops/sec (default 400,1300,2400)
//	amoebasim -clients N        client-population size (default 2x workers)
//	amoebasim -mix M            op mix: rpc, group, orca, mixed or "op=w,..." (default group)
//	amoebasim -dist D           message sizes: fixed:N or uniform:LO-HI (default fixed:256)
//	amoebasim -knee             bisect to each mode's saturation point (default true)
//	amoebasim -seq-shards N     shard the groups across N sequencer processors (default 1)
//	amoebasim -wl-segments N    Ethernet segment count for the workload cluster (default auto)
//	amoebasim -wl-fanin N       switch fan-in: segments per switch group (default 0: flat)
//	amoebasim -workload-json F  workload curves as a JSON artifact ("auto": WORKLOAD_<date>.json)
//	amoebasim -scalability      knee-vs-cluster-size sweep across sequencer strategies
//	amoebasim -scalability-json F  scalability sweep as a JSON artifact ("auto": SCALE_<date>.json)
//	amoebasim -perf             single-run performance cells (events/sec)
//	amoebasim -par N            partitioned-engine worker count for -perf (default 1)
//	amoebasim -perf-json F      perf cells as a PERF artifact ("auto": PERF_<date>.json)
//	amoebasim -cpuprofile F     write a pprof CPU profile of the run to F
//	amoebasim -memprofile F     write a pprof heap profile at exit to F
//	amoebasim -all              everything
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"amoebasim/internal/apps"
	"amoebasim/internal/bench"
	"amoebasim/internal/bypass"
	"amoebasim/internal/causal"
	"amoebasim/internal/cluster"
	"amoebasim/internal/faults"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/trace"
	"amoebasim/internal/workload"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate a paper table (1, 2 or 3)")
		decompose  = flag.Bool("decompose", false, "print the §4.2/§4.3 per-operation decomposition")
		traceFlag  = flag.Bool("trace", false, "print the protocol timeline of one null RPC per implementation")
		sweep      = flag.String("sweep", "", "emit a CSV sweep: latency or speedup")
		all        = flag.Bool("all", false, "regenerate everything")
		scale      = flag.String("scale", "paper", "table 3 problem scale: paper or quick")
		appsFlag   = flag.String("apps", "", "comma-separated subset of apps for table 3 (tsp,asp,ab,rl,sor,leq)")
		procsFlag  = flag.String("procs", "", "comma-separated processor counts for table 3 (default 1,8,16,32)")
		seed       = flag.Uint64("seed", 5, "workload seed")
		metricsF   = flag.Bool("metrics", false, "print per-layer metrics tables for all three implementations")
		metricsJ   = flag.String("metrics-json", "", "write the metrics appendix as JSON to this file")
		traceJ     = flag.String("trace-json", "", "write the null-RPC span timelines as JSON to this file")
		faultsF    = flag.String("faults", "", "run the fault-injection soak: a scenario name, 'all', or 'list'")
		faultSeed  = flag.Uint64("fault-seed", 0, "fault-schedule seed (0: derived from -seed)")
		jobs       = flag.Int("jobs", bench.DefaultWorkers(), "worker-pool width for parallel sweeps")
		benchJSON  = flag.String("bench-json", "", "run the full Table 1-3 sweep and write the BENCH artifact here ('auto': BENCH_<date>.json)")
		baseline   = flag.String("baseline", "", "compare the run's artifact of this file's kind against it, zero drift tolerance (alone: run the BENCH sweep)")
		wallBudget = flag.Duration("wall-budget", 0, "fail if the run's host wall-clock exceeds this duration (0: no check)")
		workloadF  = flag.String("workload", "", "run the workload engine: open (offered-load curves) or closed (population with think time)")
		loads      = flag.String("load", "", "comma-separated open-loop offered loads in ops/sec (default 400,1300,2400)")
		clients    = flag.Int("clients", 0, "workload client-population size (default 2x workers)")
		mixFlag    = flag.String("mix", "group", "workload op mix: rpc, group, orca, mixed, or an op=weight list")
		distFlag   = flag.String("dist", "fixed:256", "workload message-size distribution: fixed:N or uniform:LO-HI")
		arrival    = flag.String("arrival", "poisson", "workload arrival process: poisson, uniform, fixed, gamma:K or weibull:K (K = shape; K<1 is heavy-tailed)")
		classesF   = flag.String("classes", "", "multi-tenant population: 'name:key=val,...;name:...' or @file.json (keys: clients, load, mix, dist, arrival, think, slo, shape)")
		shapeFlag  = flag.String("shape", "", "modulate offered load over time: bursty[:PERIOD[:DUTY[:AMP]]] or diurnal[:PERIOD[:AMP]] (classes without their own shape inherit it)")
		recTrace   = flag.String("record-trace", "", "record the first workload cell's generated op stream to this TRACE_*.json ('auto': TRACE_<date>.json)")
		repTrace   = flag.String("replay-trace", "", "replay a recorded TRACE_*.json instead of generating arrivals: one paired point per mode over identical arrivals")
		think      = flag.Duration("think", 0, "closed-loop mean think time (default 2ms)")
		wlProcs    = flag.Int("wl-procs", 0, "workload worker-pool size (default 4)")
		wlWindow   = flag.Duration("wl-window", 0, "workload measurement window in simulated time (default 400ms)")
		wlWarmup   = flag.Duration("wl-warmup", 0, "workload warmup before measurement (default window/4)")
		knee       = flag.Bool("knee", true, "with -workload open: bisect to each mode's saturation point")
		seqShards  = flag.Int("seq-shards", 0, "shard the communication groups across this many sequencer processors (default 1)")
		wlSegments = flag.Int("wl-segments", 0, "Ethernet segment count for the workload cluster (0: one segment per 8 processors)")
		wlFanIn    = flag.Int("wl-fanin", 0, "switch fan-in (segments per switch group) for a hierarchical topology (0: flat)")
		workloadJ  = flag.String("workload-json", "", "write the workload curves as a JSON artifact ('auto': WORKLOAD_<date>.json)")
		scalab     = flag.Bool("scalability", false, "run the knee-vs-cluster-size sweep across sequencer strategies")
		scalabJ    = flag.String("scalability-json", "", "write the scalability sweep as a JSON artifact ('auto': SCALE_<date>.json)")
		decompJSON = flag.String("decomp-json", "", "write the causal latency-decomposition artifact here ('auto': DECOMP_<date>.json)")
		chromeTr   = flag.String("chrome-trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of a traced run to this file")
		traceCap   = flag.Int("trace-cap", 0, "trace ring-buffer capacity in events (0: 65536 default)")
		wlDecomp   = flag.Bool("wl-decomp", false, "with -workload: collect per-phase latency breakdowns at each load point")
		dispatchF  = flag.String("dispatch", "poll", "bypass receive dispatch mode: poll, interrupt or hybrid (other implementations ignore it)")
		par        = flag.Int("par", 1, "partitioned-engine worker count for single-run parallel execution (<=1: single-queue engine)")
		perfF      = flag.Bool("perf", false, "run the single-run performance cells (events/sec at -par workers)")
		perfJSON   = flag.String("perf-json", "", "write the perf cells as a PERF artifact ('auto': PERF_<date>.json)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	// Profiling teardown must run on every exit path, so the flag
	// families dispatch through a closure that returns instead of
	// exiting. builds names the artifact kinds the selected family
	// returns, so that a -baseline of another kind is refused before the
	// run starts.
	disp, err := bypass.ParseDispatch(*dispatchF)
	var builds []string
	dispatch := func() ([]artifact, error) {
		return nil, run(*table, *decompose, *traceFlag, *all, *sweep, *scale, *appsFlag, *procsFlag, *seed, *metricsF, *metricsJ, *traceJ, *chromeTr, *traceCap, *jobs)
	}
	switch {
	case *perfF || *perfJSON != "":
		builds = []string{"PERF"}
		dispatch = func() ([]artifact, error) { return runPerf(*par, *seed) }
	case *scalab || *scalabJ != "":
		builds = []string{"SCALE"}
		dispatch = func() ([]artifact, error) {
			return runScalability(*mixFlag, *distFlag, *wlWindow, *wlFanIn, disp, *seed, *jobs)
		}
	case *workloadF != "" || *workloadJ != "" || *repTrace != "" || *recTrace != "":
		builds = []string{"WORKLOAD"}
		if *decompJSON != "" {
			builds = []string{"DECOMP", "WORKLOAD"}
		}
		dispatch = func() ([]artifact, error) {
			return runWorkload(workloadArgs{
				loop: *workloadF, loads: *loads, clients: *clients, mix: *mixFlag,
				dist: *distFlag, arrival: *arrival, think: *think, procs: *wlProcs,
				window: *wlWindow, warmup: *wlWarmup, knee: *knee,
				seed: *seed, jobs: *jobs,
				seqShards: *seqShards, segments: *wlSegments, fanIn: *wlFanIn,
				classes: *classesF, shape: *shapeFlag, dispatch: disp,
				recordTrace: *recTrace, replayTrace: *repTrace,
				decomp: *wlDecomp || *decompJSON != "", decompArtifact: *decompJSON != "",
			})
		}
	case *faultsF != "":
		dispatch = func() ([]artifact, error) { return nil, runFaults(*faultsF, *seed, *faultSeed, *jobs) }
	case *decompJSON != "":
		builds = []string{"DECOMP"}
		dispatch = func() ([]artifact, error) { return runDecomp(*seed, *jobs) }
	case *benchJSON != "" || *baseline != "":
		builds = []string{"BENCH"}
		dispatch = func() ([]artifact, error) { return runBenchSweep(*scale, *appsFlag, *procsFlag, *seed, *jobs) }
	}
	outputs := map[string]string{
		"BENCH": *benchJSON, "WORKLOAD": *workloadJ, "DECOMP": *decompJSON,
		"SCALE": *scalabJ, "PERF": *perfJSON,
	}
	if err == nil {
		var stopProfiles func() error
		if stopProfiles, err = startProfiles(*cpuprofile, *memprofile); err == nil {
			err = finish(builds, dispatch, outputs, *baseline, *wallBudget)
			if perr := stopProfiles(); err == nil {
				err = perr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amoebasim:", err)
		os.Exit(1)
	}
}

// artifact is one JSON artifact a run built. Its kind names it: the key
// of its output flag and the prefix of an "auto" file name.
type artifact struct {
	kind string
	v    any
}

// finish first reads the -baseline file and refuses it unless it is an
// artifact of a kind in builds, the kinds the dispatched mode returns.
// It then runs the mode, writes each artifact it built to the file its
// output flag names, gates the one of the baseline's kind, and checks
// the run's host wall-clock against the budget.
func finish(builds []string, dispatch func() ([]artifact, error), outputs map[string]string, baseline string, wallBudget time.Duration) error {
	var base []byte
	var baseKind string
	if baseline != "" {
		var err error
		if base, err = os.ReadFile(baseline); err != nil {
			return err
		}
		baseKind = artifactKind(base)
		switch {
		case baseKind == "":
			return fmt.Errorf("baseline %s: not a BENCH, WORKLOAD, DECOMP, SCALE or PERF artifact", baseline)
		case len(builds) == 0:
			return fmt.Errorf("baseline %s: a %s artifact, and this run builds none", baseline, baseKind)
		case !slices.Contains(builds, baseKind):
			return fmt.Errorf("baseline %s: a %s artifact, and this run builds %s", baseline, baseKind, strings.Join(builds, " and "))
		}
	}
	start := time.Now()
	arts, err := dispatch()
	took := time.Since(start)
	if err != nil {
		return err
	}
	gated := false
	for _, a := range arts {
		path := outputs[a.kind]
		if path == "auto" {
			path = a.kind + "_" + time.Now().UTC().Format("2006-01-02") + ".json"
		}
		out, err := writeJSON(path, a.v)
		if err != nil {
			return err
		}
		if path != "" {
			fmt.Printf("wrote %s\n", path)
		}
		if a.kind != baseKind || gated {
			continue
		}
		if gated, err = bench.Gate(base, out, a.v); err != nil {
			return fmt.Errorf("baseline %s: %w", baseline, err)
		}
		if gated {
			fmt.Printf("baseline %s: no drift\n", baseline)
		}
	}
	if base != nil && !gated {
		return fmt.Errorf("baseline %s: the run built no %s artifact", baseline, baseKind)
	}
	if wallBudget > 0 && took > wallBudget {
		return fmt.Errorf("wall-clock: the run took %v, budget %v", took.Round(time.Millisecond), wallBudget)
	}
	return nil
}

// artifactKind reports the kind of the artifact b holds, or "" when it
// holds none. bench.Decode is strict, so b decodes only into the type
// that wrote it; BENCH and WORKLOAD share a type, and only a WORKLOAD
// artifact has a workload section.
func artifactKind(b []byte) string {
	var a bench.Artifact
	if bench.Decode(b, &a) == nil {
		if a.Workload != nil {
			return "WORKLOAD"
		}
		return "BENCH"
	}
	for _, k := range []artifact{
		{"DECOMP", &causal.Artifact{}},
		{"SCALE", &bench.ScalabilityArtifact{}},
		{"PERF", &bench.PerfArtifact{}},
	} {
		if bench.Decode(b, k.v) == nil {
			return k.kind
		}
	}
	return ""
}

// writeJSON formats v with the artifact writer and, when path is set,
// writes it there. It returns the bytes either way.
func writeJSON(path string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := bench.Write(&buf, v); err != nil {
		return nil, err
	}
	if path == "" {
		return buf.Bytes(), nil
	}
	return buf.Bytes(), os.WriteFile(path, buf.Bytes(), 0o666)
}

// startProfiles arms the -cpuprofile / -memprofile collection and returns
// the teardown that stops the CPU profile and writes the heap profile.
// The teardown must run on every exit path, so runners return errors
// instead of exiting.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote CPU profile %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // get up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote heap profile %s\n", memPath)
		}
		return nil
	}, nil
}

func run(table int, decompose, traceFlag, all bool, sweep, scale, appsFlag, procsFlag string, seed uint64, metricsF bool, metricsJ, traceJ, chromeTr string, traceCap, jobs int) error {
	did := false
	if sweep != "" {
		if err := runSweep(sweep, appsFlag, scale, seed); err != nil {
			return err
		}
		did = true
	}
	if traceFlag {
		for _, mode := range panda.AllModes() {
			fmt.Printf("--- null RPC timeline, %v ---\n", mode)
			log, err := rpcTrace(mode, traceCap)
			if err != nil {
				return err
			}
			if _, err := log.WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		did = true
	}
	if traceJ != "" {
		if err := writeTraceJSON(traceJ, traceCap); err != nil {
			return err
		}
		did = true
	}
	if chromeTr != "" {
		if err := writeChromeTrace(chromeTr, traceCap); err != nil {
			return err
		}
		did = true
	}
	if metricsF || metricsJ != "" {
		appendix, err := bench.ObservabilityAppendix(seed)
		if err != nil {
			return err
		}
		if metricsF {
			if err := bench.PrintObservability(os.Stdout, appendix); err != nil {
				return err
			}
			fmt.Println()
		}
		if metricsJ != "" {
			if _, err := writeJSON(metricsJ, appendix); err != nil {
				return err
			}
		}
		did = true
	}
	if all || table == 1 {
		start := time.Now()
		rows, err := bench.Table1Sweep(nil, jobs)
		if err != nil {
			return err
		}
		bench.PrintTable1(os.Stdout, rows)
		fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		did = true
	}
	if all || table == 2 {
		start := time.Now()
		t2, err := bench.Table2Sweep(jobs)
		if err != nil {
			return err
		}
		bench.PrintTable2(os.Stdout, t2)
		fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		did = true
	}
	if all || decompose {
		ds := make([]bench.Decomposition, 0, 6)
		for _, f := range []func() (bench.Decomposition, error){
			func() (bench.Decomposition, error) { return bench.DecomposeRPC(panda.KernelSpace) },
			func() (bench.Decomposition, error) { return bench.DecomposeRPC(panda.UserSpace) },
			func() (bench.Decomposition, error) { return bench.DecomposeRPC(panda.Bypass) },
			func() (bench.Decomposition, error) { return bench.DecomposeGroup(panda.KernelSpace) },
			func() (bench.Decomposition, error) { return bench.DecomposeGroup(panda.UserSpace) },
			func() (bench.Decomposition, error) { return bench.DecomposeGroup(panda.Bypass) },
		} {
			d, err := f()
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		bench.PrintDecomposition(os.Stdout, ds...)
		fmt.Println()
		did = true
	}
	if all || table == 3 {
		start := time.Now()
		appList, err := resolveApps(appsFlag, scale)
		if err != nil {
			return err
		}
		procs, err := parseProcs(procsFlag)
		if err != nil {
			return err
		}
		entries, err := bench.Table3Sweep(appList, procs, seed, jobs)
		if err != nil {
			return err
		}
		bench.PrintTable3(os.Stdout, entries)
		fmt.Printf("(generated in %v)\n", time.Since(start).Round(time.Millisecond))
		did = true
	}
	if !did {
		flag.Usage()
	}
	return nil
}

// resolveApps resolves the -apps subset (or the full list) at the given
// scale. Every requested app must exist and, at quick scale, must have a
// quick-scale variant — a silent fallback to the paper-scale problem
// size would skew quick sweeps.
func resolveApps(appsFlag, scale string) ([]apps.App, error) {
	if appsFlag == "" {
		return bench.Table3Apps(scale), nil
	}
	byName := make(map[string]apps.App)
	for _, a := range bench.Table3Apps(scale) {
		byName[a.Name()] = a
	}
	var appList []apps.App
	for _, name := range strings.Split(appsFlag, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			if scale == "quick" && apps.ByName(name) != nil {
				return nil, fmt.Errorf("app %q has no quick-scale variant", name)
			}
			return nil, fmt.Errorf("unknown app %q", name)
		}
		appList = append(appList, a)
	}
	return appList, nil
}

// parseProcs parses the -procs list strictly: every element must be a
// whole positive integer with no trailing junk.
func parseProcs(procsFlag string) ([]int, error) {
	if procsFlag == "" {
		return nil, nil
	}
	var procs []int
	for _, f := range strings.Split(procsFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -procs value %q: not a whole number", f)
		}
		if p < 1 {
			return nil, fmt.Errorf("bad -procs value %q: must be positive", f)
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// runBenchSweep runs the full Table 1-3 sweep on the worker pool, prints
// the tables and returns the BENCH artifact.
func runBenchSweep(scale, appsFlag, procsFlag string, seed uint64, jobs int) ([]artifact, error) {
	appList, err := resolveApps(appsFlag, scale)
	if err != nil {
		return nil, err
	}
	procs, err := parseProcs(procsFlag)
	if err != nil {
		return nil, err
	}
	res, err := bench.RunSweep(bench.SweepConfig{
		Scale: scale, Apps: appList, Procs: procs, Seed: seed, Workers: jobs,
	})
	if err != nil {
		return nil, err
	}
	bench.PrintTable1(os.Stdout, res.Table1)
	fmt.Println()
	bench.PrintTable2(os.Stdout, res.Table2)
	fmt.Println()
	bench.PrintTable3(os.Stdout, res.Table3)
	art := bench.NewArtifact(res)
	fmt.Printf("(%d jobs in %v on %d workers, %.1f jobs/sec)\n",
		len(res.Jobs), res.Wall.Round(time.Millisecond), art.Wall.Workers, art.Wall.JobsPerSec)
	return []artifact{{"BENCH", art}}, nil
}

// workloadArgs collects the -workload flag family.
type workloadArgs struct {
	loop, loads, mix, dist, arrival string
	classes, shape                  string // multi-tenant population + load-shape specs
	recordTrace, replayTrace        string // TRACE_*.json record / replay paths
	clients, procs, jobs            int
	seqShards, segments, fanIn      int
	think, window, warmup           time.Duration
	knee                            bool
	seed                            uint64
	dispatch                        bypass.Dispatch // bypass receive dispatch mode
	decomp                          bool            // collect per-load-point phase breakdowns
	decompArtifact                  bool            // also build the DECOMP artifact (cells + load points)
}

// workloadSweepConfig validates the flag family and assembles the sweep
// configuration (factored out of runWorkload so tests can cover the
// parsing without running a sweep).
func workloadSweepConfig(a workloadArgs) (bench.WorkloadSweepConfig, error) {
	if a.loop == "" {
		a.loop = "open" // -workload-json alone implies the curve sweep
	}
	loop, err := workload.ParseLoop(a.loop)
	if err != nil {
		return bench.WorkloadSweepConfig{}, err
	}
	mix, err := workload.ParseMix(a.mix)
	if err != nil {
		return bench.WorkloadSweepConfig{}, err
	}
	dist, err := workload.ParseSizeDist(a.dist)
	if err != nil {
		return bench.WorkloadSweepConfig{}, err
	}
	arr, err := workload.ParseArrivalSpec(a.arrival)
	if err != nil {
		return bench.WorkloadSweepConfig{}, err
	}
	loads, err := workload.ParseLoads(a.loads)
	if err != nil {
		return bench.WorkloadSweepConfig{}, err
	}
	classes, err := workload.ParseClasses(a.classes)
	if err != nil {
		return bench.WorkloadSweepConfig{}, err
	}
	shape, err := workload.ParseShape(a.shape)
	if err != nil {
		return bench.WorkloadSweepConfig{}, err
	}
	if loop == workload.ClosedLoop && loads == nil {
		// Closed loop ignores offered load (the population self-limits):
		// one point per mode instead of the default grid.
		loads = []float64{0}
	}
	kneeOK := a.knee && loop == workload.OpenLoop
	if loop == workload.OpenLoop && loads == nil && len(classes) > 0 {
		// A multi-tenant spec usually carries absolute per-class loads:
		// run that one population point per mode rather than rescaling it
		// across the default grid. An explicit -load grid still treats the
		// class loads as relative shares of each grid point.
		abs := 0.0
		for _, c := range classes {
			abs += c.OfferedLoad
		}
		if abs > 0 {
			loads = []float64{0}
			kneeOK = false // the knee search would rescale the absolute loads
		}
	}
	base := workload.Config{
		Procs: a.procs, Loop: loop, Clients: a.clients,
		ThinkTime: a.think, Arrival: arr.Kind, ArrivalShape: arr.Shape,
		Mix: mix, Sizes: dist, Classes: classes, Shape: shape,
		Warmup: a.warmup, Window: a.window, Seed: a.seed,
		SeqShards: a.seqShards, Dispatch: a.dispatch,
		Decompose: a.decomp,
	}
	if a.segments > 0 || a.fanIn > 0 {
		base.Topology = &cluster.Topology{Segments: a.segments, SwitchFanIn: a.fanIn}
	}
	cfg := bench.WorkloadSweepConfig{
		Base:    base,
		Loads:   loads,
		Knee:    kneeOK,
		Workers: a.jobs,
		Record:  a.recordTrace != "",
	}
	if a.replayTrace != "" {
		// Stream the events from disk: only the header is materialized,
		// and each replayed point pulls its own incremental pass.
		tr, src, err := workload.OpenTraceStream(a.replayTrace)
		if err != nil {
			return bench.WorkloadSweepConfig{}, err
		}
		cfg.Replay = tr
		cfg.ReplaySource = src
	}
	return cfg, nil
}

// runScalability drives the knee-vs-cluster-size sweep over the sequencer
// strategies, prints the curves and returns the SCALE artifact.
func runScalability(mixFlag, distFlag string, window time.Duration, fanIn int, disp bypass.Dispatch, seed uint64, jobs int) ([]artifact, error) {
	mix, err := workload.ParseMix(mixFlag)
	if err != nil {
		return nil, err
	}
	dist, err := workload.ParseSizeDist(distFlag)
	if err != nil {
		return nil, err
	}
	res, err := bench.ScalabilitySweep(bench.ScalabilitySweepConfig{
		Base:        workload.Config{Mix: mix, Sizes: dist, Window: window, Seed: seed, Dispatch: disp},
		SwitchFanIn: fanIn,
		Workers:     jobs,
	})
	if err != nil {
		return nil, err
	}
	bench.PrintScalability(os.Stdout, res)
	fmt.Printf("(%d jobs in %v on %d workers)\n",
		len(res.Jobs), res.Wall.Round(time.Millisecond), jobs)
	return []artifact{{"SCALE", bench.NewScalabilityArtifact(res)}}, nil
}

// runWorkload drives the traffic generator over the offered-load grid in
// all three implementation configurations, prints the
// latency-vs-offered-load curves (with the bisected knees), records the
// trace if asked, and returns the WORKLOAD artifact, preceded by the
// DECOMP artifact when a.decompArtifact is set.
func runWorkload(a workloadArgs) ([]artifact, error) {
	cfg, err := workloadSweepConfig(a)
	if err != nil {
		return nil, err
	}
	res, err := bench.WorkloadSweep(cfg)
	if err != nil {
		return nil, err
	}
	bench.PrintWorkload(os.Stdout, res)
	fmt.Printf("(%d jobs in %v on %d workers)\n",
		len(res.Jobs), res.Wall.Round(time.Millisecond), a.jobs)

	if a.recordTrace != "" {
		if res.Trace == nil {
			return nil, fmt.Errorf("-record-trace: the sweep recorded no trace")
		}
		path := a.recordTrace
		if path == "auto" {
			path = "TRACE_" + time.Now().UTC().Format("2006-01-02") + ".json"
		}
		if err := workload.SaveTrace(path, res.Trace); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s (%d events, %s)\n", path, len(res.Trace.Events), res.Trace.RecordedMode)
	}

	var arts []artifact
	if a.decomp {
		decomp := &causal.Artifact{}
		if a.decompArtifact {
			// The workload-integrated decomposition artifact: the fixed
			// §4.2/§4.3 cells plus one decomposed cell per load point.
			if decomp, err = bench.RunDecomposition(bench.DecompConfig{Seed: a.seed, Workers: a.jobs}); err != nil {
				return nil, err
			}
			arts = append(arts, artifact{"DECOMP", decomp})
		}
		decomp.Workload = bench.WorkloadDecomp(res)
		if err := decomp.CheckConservation(); err != nil {
			return nil, err
		}
		bench.PrintLatencyDecomp(os.Stdout, decomp)
	}
	return append(arts, artifact{"WORKLOAD", &bench.Artifact{
		SchemaVersion: bench.ArtifactSchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Scale:         "workload",
		Seed:          a.seed,
		Workload:      bench.NewWorkloadArtifact(res),
	}}), nil
}

// runPerf runs the single-run performance cells at the -par worker
// count, prints the events/sec table and returns the PERF artifact. The
// gate ignores the worker count: a -par 4 run must produce the simulated
// results of the -par 1 baseline, byte for byte.
func runPerf(par int, seed uint64) ([]artifact, error) {
	art, err := bench.RunPerf(bench.PerfConfig{Par: par, Seed: seed})
	if err != nil {
		return nil, err
	}
	bench.PrintPerf(os.Stdout, art)
	for _, c := range art.Cells {
		if par > 1 && c.Partitions <= 1 {
			fmt.Printf("note: %s fell back to the single-queue engine (no safe partitioning)\n", c.Name)
		}
	}
	return []artifact{{"PERF", art}}, nil
}

// runFaults runs the fault-injection soak workload (verified echo RPCs,
// ordered group sends, and the test-scale Orca applications) under one or
// all shipped scenarios, in all three implementations, fanned out over the
// worker pool.
func runFaults(name string, seed, faultSeed uint64, jobs int) error {
	if name == "list" {
		for _, n := range faults.Names() {
			fmt.Printf("%-12s %s\n", n, faults.Describe(n))
		}
		return nil
	}
	names := []string{name}
	if name == "all" {
		names = faults.Names()
	}
	runs, err := bench.FaultSoakSweep(names, seed, faultSeed, jobs)
	if err != nil {
		return err
	}
	for _, r := range runs {
		bench.PrintFaultSoak(os.Stdout, r.RPC)
		for _, a := range r.Apps {
			fmt.Printf("app %s: correct answer, %v\n", a.App, a.Elapsed)
		}
		fmt.Println()
	}
	return nil
}

// runSweep emits plottable CSV series.
func runSweep(kind, appsFlag, scale string, seed uint64) error {
	switch kind {
	case "latency":
		fmt.Println("size_bytes,unicast_ms,multicast_ms,rpc_user_ms,rpc_kernel_ms,rpc_bypass_ms,group_user_ms,group_kernel_ms,group_bypass_ms")
		for size := 0; size <= 8192; size += 512 {
			var vals [8]time.Duration
			for i, f := range []func() (time.Duration, error){
				func() (time.Duration, error) { return bench.SystemLatency(panda.UserSpace, size, false) },
				func() (time.Duration, error) { return bench.SystemLatency(panda.UserSpace, size, true) },
				func() (time.Duration, error) { return bench.RPCLatency(panda.UserSpace, size) },
				func() (time.Duration, error) { return bench.RPCLatency(panda.KernelSpace, size) },
				func() (time.Duration, error) { return bench.RPCLatency(panda.Bypass, size) },
				func() (time.Duration, error) { return bench.GroupLatency(panda.UserSpace, size, false) },
				func() (time.Duration, error) { return bench.GroupLatency(panda.KernelSpace, size, false) },
				func() (time.Duration, error) { return bench.GroupLatency(panda.Bypass, size, false) },
			} {
				d, err := f()
				if err != nil {
					return err
				}
				vals[i] = d
			}
			fmt.Printf("%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n", size,
				msF(vals[0]), msF(vals[1]), msF(vals[2]), msF(vals[3]), msF(vals[4]), msF(vals[5]), msF(vals[6]), msF(vals[7]))
		}
		return nil
	case "speedup":
		name := appsFlag
		if name == "" {
			name = "asp"
		}
		appList, err := resolveApps(strings.TrimSpace(name), scale)
		if err != nil {
			return err
		}
		app := appList[0]
		fmt.Println("procs,kernel_s,user_s,kernel_speedup,user_speedup")
		var base [2]float64
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			var secs [2]float64
			for i, mode := range []panda.Mode{panda.KernelSpace, panda.UserSpace} {
				res, err := apps.RunApp(app, cluster.Config{Procs: p, Mode: mode, Seed: seed})
				if err != nil {
					return err
				}
				secs[i] = res.Elapsed.Seconds()
			}
			if p == 1 {
				base = secs
			}
			fmt.Printf("%d,%.2f,%.2f,%.2f,%.2f\n", p, secs[0], secs[1],
				base[0]/secs[0], base[1]/secs[1])
		}
		return nil
	default:
		return fmt.Errorf("unknown sweep %q (latency or speedup)", kind)
	}
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rpcTrace runs one null RPC with tracing enabled and returns the
// captured protocol timeline. cap sizes the ring (0: the 64k default).
func rpcTrace(mode panda.Mode, cap int) (*trace.Log, error) {
	c, err := cluster.New(cluster.Config{Procs: 2, Mode: mode, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	log := trace.NewLog(cap)
	c.Sim.SetTracer(log)
	srv := c.Transports[0]
	srv.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, n int) {
		srv.Reply(t, ctx, nil, 0)
	})
	c.Procs[1].NewThread("client", proc.PrioNormal, func(t *proc.Thread) {
		_, _, _ = c.Transports[1].Call(t, 0, nil, 0)
	})
	c.Run()
	return log, nil
}

// runDecomp runs the causal latency-decomposition sweep, prints the
// §4.2/§4.3 tables and returns the DECOMP artifact.
func runDecomp(seed uint64, jobs int) ([]artifact, error) {
	art, err := bench.RunDecomposition(bench.DecompConfig{Seed: seed, Workers: jobs})
	if err != nil {
		return nil, err
	}
	bench.PrintLatencyDecomp(os.Stdout, art)
	return []artifact{{"DECOMP", art}}, nil
}

// writeChromeTrace runs a fully traced scenario — a user-space 3-member
// group cluster where one member issues an RPC and then a totally-ordered
// group send — and exports the span log as Chrome trace-event JSON:
// one track per processor, nested protocol spans, and flow arrows
// following each operation's correlation id across tracks.
func writeChromeTrace(path string, cap int) error {
	col := causal.NewCollector(0)
	c, err := cluster.New(cluster.Config{
		Procs: 3, Mode: panda.UserSpace, Group: true, Seed: 1, Causal: col,
	})
	if err != nil {
		return err
	}
	defer c.Shutdown()
	log := trace.NewLog(cap)
	c.Sim.SetTracer(log)
	srv := c.Transports[0]
	srv.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, n int) {
		srv.Reply(t, ctx, nil, 0)
	})
	c.Procs[1].NewThread("client", proc.PrioNormal, func(t *proc.Thread) {
		_, _, _ = c.Transports[1].Call(t, 0, nil, 0)
		_ = c.Transports[1].GroupSend(t, nil, 0)
	})
	c.Run()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	st, err := causal.ExportChromeTrace(f, log)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d events, %d slices, %d flow arrows (orphan ends %d, unclosed %d, ring-dropped %d)\n",
		path, st.Events, st.Slices, st.Flows, st.OrphanEnds, st.Unclosed, st.Dropped)
	return nil
}

// writeTraceJSON captures the null-RPC span timeline of each
// implementation and writes them as one JSON document.
func writeTraceJSON(path string, cap int) error {
	var docs struct {
		KernelSpace json.RawMessage `json:"kernel-space"`
		UserSpace   json.RawMessage `json:"user-space"`
		Bypass      json.RawMessage `json:"bypass"`
	}
	for i, mode := range panda.AllModes() {
		log, err := rpcTrace(mode, cap)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := log.WriteJSON(&buf); err != nil {
			return err
		}
		raw := json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		switch i {
		case 0:
			docs.KernelSpace = raw
		case 1:
			docs.UserSpace = raw
		default:
			docs.Bypass = raw
		}
	}
	_, err := writeJSON(path, docs)
	return err
}
