package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary act as the benchmark's trial child and
// reference server, so the end-to-end tests below exercise real child
// processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "child" || os.Args[1] == "ref") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestWorkloadsDeterministic runs every workload in-process at its
// shrunk shape twice: both runs pass every correctness check and agree on
// the fingerprint, which matches the committed one for seed 5.
func TestWorkloadsDeterministic(t *testing.T) {
	exp, err := loadExpected("")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		var fps []fingerprint
		for i := 0; i < 2; i++ {
			r := newTrialRec()
			if err := w.run(r, 5, true); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if len(r.failures) > 0 {
				t.Fatalf("%s: %v", w.name, r.failures)
			}
			fps = append(fps, r.fingerprint())
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: fingerprints differ across runs: %+v vs %+v", w.name, fps[0], fps[1])
		}
		if fps[0].Ops == 0 || fps[0].Events == 0 {
			t.Errorf("%s: no work done: %+v", w.name, fps[0])
		}
		if want := exp.lookup(w.name, 5, true); want == nil || *want != fps[0] {
			t.Errorf("%s: fingerprint %+v, expected.json has %v", w.name, fps[0], want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesEmittedMetrics checks that BENCHMARK.json names
// exactly the workloads and metrics the benchmark emits, with the same
// units, and that every name is well formed.
func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	all, _ := selectWorkloads("")
	if strings.Join(names, ",") != strings.Join(all, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, all)
	}

	// One untraced and one profiled trial with every field present.
	base := trial{ran: true, wallS: 1, cpuS: 1, rssMB: 1, childResult: childResult{
		SetupS: 1, RunS: 1, RefS: 1, AllocBytes: 1, Mallocs: 1, GCCycles: 1,
		Spans: map[string]float64{}, Counts: map[string]int64{}, Layers: map[string]float64{},
	}}
	for _, n := range countNames {
		base.Counts[n] = 1
	}
	traced := base
	traced.traced = true
	res := aggregate([]trial{base, traced}, nil)

	check := func(kind string, specs []specMetric, defs []metricDef, emitted map[string]stat) {
		if len(specs) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark defines %d", kind, len(specs), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range specs {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s unit %q in BENCHMARK.json, benchmark defines %q", kind, m.Name, m.Unit, u)
			}
			if _, ok := emitted[m.Name]; !ok {
				t.Errorf("%s: %s is not emitted", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, res.EndToEnd)
	check("per_layer", spec.PerLayer, perLayer(), res.PerLayer)
	for _, m := range spec.EndToEnd {
		want := "lower"
		for _, d := range endToEnd {
			if d.name == m.Name && d.higherBetter {
				want = "higher"
			}
		}
		if m.Better != want {
			t.Errorf("%s: better=%q, want %q", m.Name, m.Better, want)
		}
	}
}

// TestHostTimesAtReferenceSpeed: a trial whose reference slices took
// twice refSpeedS reports its host times at half their measured seconds,
// and the measured seconds under host.*.
func TestHostTimesAtReferenceSpeed(t *testing.T) {
	tr := trial{ran: true, wallS: 3, cpuS: 2.5, childResult: childResult{
		SetupS: 0.5, RunS: 2, RefS: 2 * refSpeedS, Counts: map[string]int64{cntEvents: 1000},
	}}
	res := aggregate([]trial{tr}, nil)
	for name, want := range map[string]float64{"setup_s": 0.25, "run_s": 1, "wall_s": 1.5, "cpu_s": 1.25, "events_per_s": 1000} {
		if got := res.EndToEnd[name].Median; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	for name, want := range map[string]float64{hostSetupS: 0.5, hostRunS: 2, hostWallS: 3, hostCPUS: 2.5, hostRef: 2 * refSpeedS} {
		if got := res.PerLayer[name].Median; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// skipChildrenIfShort skips a test that starts trial child processes,
// which take most of the suite's time, under -short.
func skipChildrenIfShort(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
}

func runBench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	t.Logf("benchmark %v: exit %d\n%s%s", args, code, stderr.String(), stdout.String())
	return code, stdout.String()
}

func readResult(t *testing.T, path string) resultFile {
	t.Helper()
	r, err := loadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFullRunPasses drives the whole harness at the shrunk shapes: child
// processes, rusage, profiles and the result file.
func TestFullRunPasses(t *testing.T) {
	skipChildrenIfShort(t)
	out := filepath.Join(t.TempDir(), "r.json")
	if code, _ := runBench(t, "-quick", "-trials", "1", "-out", out); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	rf := readResult(t, out)
	for _, n := range rf.Order {
		wr := rf.Workloads[n]
		if wr.FailFrac != 0 || wr.Trials != 2 {
			t.Errorf("%s: %d trials, fail_frac %g: %v", n, wr.Trials, wr.FailFrac, wr.Failures)
		}
		if wr.EndToEnd["wall_s"].Median <= 0 || wr.EndToEnd["cpu_s"].Median <= 0 || wr.EndToEnd["peak_rss_mb"].Median <= 0 || wr.PerLayer[hostRef].Median <= 0 {
			t.Errorf("%s: parent-side measurements missing: %+v", n, wr.EndToEnd)
		}
		for _, l := range append(selfLayers, hostTraceOverhead) {
			if s := wr.PerLayer[l]; s.N != 1 {
				t.Errorf("%s: %s from %d profiled trials, want 1", n, l, s.N)
			}
		}
	}
}

// TestTamperedExpectationFails: a committed fingerprint that does not
// match fails every trial and the run.
func TestTamperedExpectationFails(t *testing.T) {
	skipChildrenIfShort(t)
	dir := t.TempDir()
	exp := filepath.Join(dir, "expected.json")
	if err := writeJSON(exp, expectedFile{Seed: 5, Fingerprints: map[string]fingerprint{
		"rpc-1000/quick": {Ops: 1, Events: 1, SimNS: 1, Checksum: "0"},
	}}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "r.json")
	if code, _ := runBench(t, "-quick", "-workload", "rpc-1000", "-trials", "2", "-expected", exp, "-out", out); code == 0 {
		t.Error("exit 0, want non-zero")
	}
	if wr := readResult(t, out).Workloads["rpc-1000"]; wr.FailFrac != 1 {
		t.Errorf("fail_frac %g, want 1", wr.FailFrac)
	}
}

// TestInjectedOrderViolationFails: one corrupted group delivery fails the
// order oracle in every trial.
func TestInjectedOrderViolationFails(t *testing.T) {
	skipChildrenIfShort(t)
	out := filepath.Join(t.TempDir(), "r.json")
	if code, _ := runBench(t, "-quick", "-workload", "group-256", "-trials", "1", "-inject-order-violation", "-out", out); code == 0 {
		t.Error("exit 0, want non-zero")
	}
	wr := readResult(t, out).Workloads["group-256"]
	if wr.FailFrac != 1 {
		t.Errorf("fail_frac %g, want 1", wr.FailFrac)
	}
	if !strings.Contains(strings.Join(wr.Failures, "\n"), "total-order violations") {
		t.Errorf("failures do not name the order oracle: %v", wr.Failures)
	}
}

// TestTimeBoxedSummaryLine checks the summary the -seconds mode ends with.
func TestTimeBoxedSummaryLine(t *testing.T) {
	skipChildrenIfShort(t)
	for _, trace := range []string{"0", "1"} {
		code, stdout := runBench(t, "-quick", "-workload", "orca-apps", "-seed", "9", "-seconds", "1", "-trace", trace)
		if code != 0 {
			t.Fatalf("trace %s: exit %d", trace, code)
		}
		var line summaryLine
		if err := json.Unmarshal([]byte(lastLine(stdout)), &line); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer()
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 2 || len(line.Metrics) != len(defs) {
			t.Errorf("trace %s: %+v", trace, line)
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
				t.Errorf("trace %s: metric %s = %+v", trace, d.name, m)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		// statistics.quantiles(data, n=4)
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 6},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(tc.data); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(med float64, unit string) stat {
		return stat{Median: med, Min: med, Max: med, Q1: med, Q3: med, N: 7, Unit: unit}
	}
	noisy := stat{Median: 10, Q1: 8, Q3: 12, N: 7, Unit: "s"}
	for _, tc := range []struct {
		name   string
		a, b   stat
		higher bool
		want   string
	}{
		{"within", tight(10, "s"), tight(10.5, "s"), false, "within"},
		{"worse", tight(10, "s"), tight(12, "s"), false, "worse"},
		{"better", tight(10, "s"), tight(8, "s"), false, "better"},
		{"higher is better", tight(100, "1/s"), tight(80, "1/s"), true, "worse"},
		{"noisy side", noisy, tight(12, "s"), false, "unresolved"},
		{"under the absolute floor", tight(0.02, "s"), tight(0.035, "s"), false, "within"},
	} {
		if _, got := verdict(tc.a, tc.b, 0.1, tc.higher); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFlagsWorse runs the compare command on two result files.
func TestCompareFlagsWorse(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, run float64) string {
		wr := workloadResult{EndToEnd: map[string]stat{}, PerLayer: map[string]stat{hostRef: {Median: 0.04, N: 7, Unit: "s"}}}
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = stat{Median: 5, Min: 5, Max: 5, Q1: 5, Q3: 5, N: 7, Unit: m.unit}
		}
		wr.EndToEnd["run_s"] = stat{Median: run, Min: run, Max: run, Q1: run, Q3: run, N: 7, Unit: "s"}
		path := filepath.Join(dir, name+".json")
		if err := writeJSON(path, resultFile{Seed: 5, Order: []string{"rpc-1000"}, Workloads: map[string]workloadResult{"rpc-1000": wr}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := mk("a", 2), mk("same", 2.01), mk("slow", 4)
	if code, out := runBench(t, "compare", a, same); code != 0 || strings.Contains(out, "worse") {
		t.Errorf("same results: exit %d\n%s", code, out)
	}
	if code, out := runBench(t, "compare", a, slow); code != 1 || !strings.Contains(out, "worse") {
		t.Errorf("slower run_s: exit %d\n%s", code, out)
	}
}
