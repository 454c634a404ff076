package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

type metricDef struct {
	name, unit   string
	higherBetter bool
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced trials. BENCHMARK.json lists the same names with their bounds.
// Host times are in seconds at reference speed: a trial's measured
// seconds times refSpeedS over the mean time of its reference slices
// (ref.go). That cancels most of a shared host's drift in speed;
// host.*_s in perLayer are the measured seconds.
var endToEnd = []metricDef{
	{"setup_s", "s", false},       // cluster build, route warm-up, handler and thread install
	{"run_s", "s", false},         // inside RunUntil / Harness.Wait
	{"wall_s", "s", false},        // exec to exit, measured by the parent
	{"cpu_s", "s", false},         // child user + system time
	{"events_per_s", "1/s", true}, // simulated events per second of run_s
	{"peak_rss_mb", "MiB", false},
	{"alloc_mb", "MiB", false}, // bytes allocated by the workload
	{"gc_cycles", "count", false},
}

// failFrac is reported beside the end-to-end metrics but is not one of
// them: it is 0 on every correct run.
const failFrac = "fail_frac"

// Per-layer metric groups.
var (
	// selfLayers are the CPU profile buckets: one per simulator package
	// the workloads execute, the benchmark's own code, and the runtime.
	selfLayers = []string{
		"sim.self_s", "proc.self_s", "ether.self_s", "flip.self_s", "akernel.self_s",
		"panda.self_s", "bypass.self_s", "orca.self_s", "apps.self_s", "cluster.self_s",
		"metrics.self_s", "causal.self_s", "model.self_s", "bench.self_s",
		layerSched, layerGC, layerOther,
	}
	// spanNames are host-time spans around the benchmark's own calls.
	spanNames = []string{
		"cluster.new_s", "flip.warm_routes_s", "apps.setup_s", "cluster.shutdown_s",
		"impl.kernel-space.run_s", "impl.user-space.run_s", "impl.bypass.run_s",
	}
	// perOp are deterministic counts divided by completed operations.
	perOp = []struct{ name, count string }{
		{"sim.events_per_op", cntEvents},
		{"ether.frames_per_op", cntFrames},
		{"proc.ctx_switches_per_op", cntCtx},
	}
)

// refSpeedS is the reference slice time that end-to-end host times are
// scaled to, about what a slice took on a 2-vCPU Sapphire Rapids guest.
const refSpeedS = 0.010

const (
	hostSetupS         = "host.setup_s"
	hostRunS           = "host.run_s"
	hostWallS          = "host.wall_s"
	hostCPUS           = "host.cpu_s"
	hostNsPerEvent     = "host.ns_per_event"
	hostAllocPerEvent  = "host.alloc_bytes_per_event"
	hostMallocPerEvent = "host.mallocs_per_event"
	hostTraceOverhead  = "host.trace_overhead_frac"
	hostRef            = "host.ref_s"
)

// perLayer lists every per-layer metric with its unit, in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range selfLayers {
		out = append(out, metricDef{name: n, unit: "s"})
	}
	for _, n := range spanNames {
		out = append(out, metricDef{name: n, unit: "s"})
	}
	for _, n := range countNames {
		out = append(out, metricDef{name: n, unit: "count"})
	}
	for _, p := range perOp {
		out = append(out, metricDef{name: p.name, unit: "count/op"})
	}
	return append(out,
		metricDef{name: hostSetupS, unit: "s"},
		metricDef{name: hostRunS, unit: "s"},
		metricDef{name: hostWallS, unit: "s"},
		metricDef{name: hostCPUS, unit: "s"},
		metricDef{name: hostNsPerEvent, unit: "ns/event"},
		metricDef{name: hostAllocPerEvent, unit: "B/event"},
		metricDef{name: hostMallocPerEvent, unit: "count/event"},
		metricDef{name: hostTraceOverhead, unit: "ratio"},
		metricDef{name: hostRef, unit: "s"},
	)
}

// stat summarizes one metric over a set of trials.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(vals []float64, unit string) stat {
	s := stat{N: len(vals), Unit: unit}
	if len(vals) == 0 {
		return s
	}
	v := slices.Clone(vals)
	sort.Float64s(v)
	s.Min, s.Max, s.Median = v[0], v[len(v)-1], median(v)
	s.Q1, s.Q3 = s.Median, s.Median
	if len(v) >= 2 {
		s.Q1, s.Q3 = quartiles(v)
	}
	return s
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(data, n=4), the
// default "exclusive" method, on sorted data of length >= 2.
func quartiles(sorted []float64) (float64, float64) {
	ld := len(sorted)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the quartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// workloadResult is one workload's share of a result file.
type workloadResult struct {
	Trials      int             `json:"trials"` // attempted, traced included
	Failed      int             `json:"failed"`
	FailFrac    float64         `json:"fail_frac"`
	EndToEnd    map[string]stat `json:"end_to_end"`
	PerLayer    map[string]stat `json:"per_layer"`
	Fingerprint fingerprint     `json:"fingerprint"`
	Failures    []string        `json:"failures,omitempty"`
}

// aggregate applies the fingerprint gate to a workload's trials and
// summarizes them: end-to-end and span metrics over untraced trials,
// profile self times over traced ones.
func aggregate(ts []trial, want *fingerprint) workloadResult {
	checkFingerprints(ts, want)
	res := workloadResult{Trials: len(ts), EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
	var plain, traced, all []trial
	for i, t := range ts {
		if len(t.failures) > 0 {
			res.Failed++
			for _, f := range t.failures {
				res.Failures = append(res.Failures, fmt.Sprintf("trial %d: %s", i+1, f))
			}
		}
		if !t.ran {
			continue
		}
		all = append(all, t)
		if t.traced {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}
	if len(ts) > 0 {
		res.FailFrac = float64(res.Failed) / float64(len(ts))
	}
	if len(all) > 0 {
		res.Fingerprint = all[0].Fingerprint
	}

	over := func(set []trial, f func(t trial) float64) []float64 {
		out := make([]float64, 0, len(set))
		for _, t := range set {
			out = append(out, f(t))
		}
		return out
	}
	perEvent := func(t trial, v float64) float64 {
		if ev := t.Counts[cntEvents]; ev > 0 {
			return v / float64(ev)
		}
		return 0
	}
	atRefSpeed := func(t trial, seconds float64) float64 {
		if t.RefS > 0 {
			return seconds * refSpeedS / t.RefS
		}
		return 0
	}
	e2e := map[string]func(t trial) float64{
		"setup_s": func(t trial) float64 { return atRefSpeed(t, t.SetupS) },
		"run_s":   func(t trial) float64 { return atRefSpeed(t, t.RunS) },
		"wall_s":  func(t trial) float64 { return atRefSpeed(t, t.wallS) },
		"cpu_s":   func(t trial) float64 { return atRefSpeed(t, t.cpuS) },
		"events_per_s": func(t trial) float64 {
			if run := atRefSpeed(t, t.RunS); run > 0 {
				return float64(t.Counts[cntEvents]) / run
			}
			return 0
		},
		"peak_rss_mb": func(t trial) float64 { return t.rssMB },
		"alloc_mb":    func(t trial) float64 { return float64(t.AllocBytes) / (1 << 20) },
		"gc_cycles":   func(t trial) float64 { return float64(t.GCCycles) },
	}
	for _, m := range endToEnd {
		res.EndToEnd[m.name] = summarize(over(plain, e2e[m.name]), m.unit)
	}

	units := map[string]string{}
	for _, m := range perLayer() {
		units[m.name] = m.unit
	}
	layer := func(name string, set []trial, f func(t trial) float64) {
		res.PerLayer[name] = summarize(over(set, f), units[name])
	}
	if len(traced) > 0 {
		for _, n := range selfLayers {
			layer(n, traced, func(t trial) float64 { return t.Layers[n] })
		}
		if run := res.EndToEnd["run_s"].Median; run > 0 {
			layer(hostTraceOverhead, traced, func(t trial) float64 { return atRefSpeed(t, t.RunS)/run - 1 })
		}
	}
	for _, n := range spanNames {
		layer(n, plain, func(t trial) float64 { return t.Spans[n] })
	}
	for _, n := range countNames {
		layer(n, plain, func(t trial) float64 { return float64(t.Counts[n]) })
	}
	for _, p := range perOp {
		layer(p.name, plain, func(t trial) float64 {
			if ops := t.Counts[cntOps]; ops > 0 {
				return float64(t.Counts[p.count]) / float64(ops)
			}
			return 0
		})
	}
	layer(hostSetupS, plain, func(t trial) float64 { return t.SetupS })
	layer(hostRunS, plain, func(t trial) float64 { return t.RunS })
	layer(hostWallS, plain, func(t trial) float64 { return t.wallS })
	layer(hostCPUS, plain, func(t trial) float64 { return t.cpuS })
	layer(hostNsPerEvent, plain, func(t trial) float64 { return perEvent(t, t.RunS*1e9) })
	layer(hostAllocPerEvent, plain, func(t trial) float64 { return perEvent(t, float64(t.AllocBytes)) })
	layer(hostMallocPerEvent, plain, func(t trial) float64 { return perEvent(t, float64(t.Mallocs)) })
	layer(hostRef, all, func(t trial) float64 { return t.RefS })
	return res
}

// printResult writes every metric of one workload by name with its unit.
func printResult(w io.Writer, name string, r workloadResult) {
	fmt.Fprintf(w, "%s: %d trials, %d failed, fail_frac %g\n", name, r.Trials, r.Failed, r.FailFrac)
	row := func(m string, s stat) {
		f := "  %-28s %14.6g %-8s [%.6g .. %.6g] n=%d\n"
		if s.Unit == "count" {
			f = "  %-28s %14.0f %-8s [%.0f .. %.0f] n=%d\n"
		}
		fmt.Fprintf(w, f, m, s.Median, s.Unit, s.Min, s.Max, s.N)
	}
	for _, m := range endToEnd {
		row(m.name, r.EndToEnd[m.name])
	}
	for _, m := range perLayer() {
		if s, ok := r.PerLayer[m.name]; ok {
			row(m.name, s)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}
