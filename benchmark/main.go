// Command benchmark measures the host cost of the simulator, end to end
// and layer by layer, on four fixed workloads. Each trial is a fresh
// child process of this binary; the parent times it from exec to exit,
// reads its CPU time and peak RSS, and fails it if its simulated results
// are wrong. See README.md.
//
//	go run .                            7 trials per workload, round-robin, + 1 profiled each
//	go run . -out A.json                ... writing the result file A.json
//	go run . compare A.json B.json      verdict per workload and end-to-end metric
//	go run . -workload W -seconds S -trace 0|1
//	                                    trials of W for S seconds; last line is a JSON summary
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:], stdout, stderr)
		case "ref":
			return refMain(os.Stdin, stdout, stderr)
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		}
	}
	return benchMain(args, stdout, stderr)
}

//go:embed expected.json
var expectedJSON []byte

// expectedFile holds the committed fingerprints for one seed, keyed by
// workload name ("/quick" for the shrunk shapes). It changes only with a
// deliberate change to simulated behaviour.
type expectedFile struct {
	Seed         uint64                 `json:"seed"`
	Fingerprints map[string]fingerprint `json:"fingerprints"`
}

func fpKey(name string, quick bool) string {
	if quick {
		return name + "/quick"
	}
	return name
}

func (e expectedFile) lookup(name string, seed uint64, quick bool) *fingerprint {
	if fp, ok := e.Fingerprints[fpKey(name, quick)]; ok && e.Seed == seed {
		return &fp
	}
	return nil
}

func loadExpected(path string) (expectedFile, error) {
	b := expectedJSON
	if path != "" {
		var err error
		if b, err = os.ReadFile(path); err != nil {
			return expectedFile{}, err
		}
	}
	var e expectedFile
	if err := json.Unmarshal(b, &e); err != nil {
		return expectedFile{}, fmt.Errorf("expected fingerprints: %w", err)
	}
	return e, nil
}

// resultFile is what a full run writes and compare reads.
type resultFile struct {
	Seed       uint64                    `json:"seed"`
	Trials     int                       `json:"trials"`
	Quick      bool                      `json:"quick,omitempty"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	NumCPU     int                       `json:"num_cpu"`
	GoVersion  string                    `json:"go_version"`
	Order      []string                  `json:"order"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads (default: all)")
	var o trialOpts
	fs.Uint64Var(&o.seed, "seed", 5, "workload seed")
	trials := fs.Int("trials", 7, "untraced trials per workload")
	seconds := fs.Int("seconds", 0, "if > 0: run trials of one workload for this long and print a JSON summary line")
	trace := fs.Int("trace", 0, "with -seconds: 1 reports per-layer metrics from alternating profiled trials")
	out := fs.String("out", "", "result file (full runs default to bench-result.json)")
	expected := fs.String("expected", "", "fingerprint file (default: the embedded expected.json)")
	writeExpected := fs.String("write-expected", "", "write this run's fingerprints to this file instead of checking them")
	fs.BoolVar(&o.quick, "quick", false, "shrunk shapes, for smoke-testing the harness")
	fs.BoolVar(&o.inject, "inject-order-violation", false, "corrupt one group delivery, to show the order oracle fails the trial")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sel, err := selectWorkloads(*names)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds > 0 && len(sel) != 1 {
		err = errors.New("-seconds needs exactly one -workload")
	}
	if err == nil && *seconds <= 0 && *trials < 1 {
		err = fmt.Errorf("-trials must be at least 1, got %d", *trials)
	}
	exp, eerr := loadExpected(*expected)
	exe, xerr := os.Executable()
	if err = errors.Join(err, eerr, xerr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	want := func(name string) *fingerprint {
		if *writeExpected != "" {
			return nil
		}
		return exp.lookup(name, o.seed, o.quick)
	}

	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(stderr, "trials not pinned to one CPU, so reference slices track the host less closely: %v\n", err)
	}
	if *seconds > 0 {
		return timeBoxed(exe, sel[0], o, time.Duration(*seconds)*time.Second, *trace == 1, want(sel[0]), stdout, stderr)
	}

	rf := resultFile{
		Seed: o.seed, Trials: *trials, Quick: o.quick, GOMAXPROCS: childGOMAXPROCS,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Order: sel,
		Workloads: map[string]workloadResult{},
	}
	// Trials run one at a time and round-robin across workloads, so drift
	// of the machine's speed during the run spreads evenly over them.
	byName := map[string][]trial{}
	for i := 0; i < *trials; i++ {
		for _, n := range sel {
			t := runTrial(exe, n, o)
			logTrial(stderr, n, fmt.Sprintf("%d/%d", i+1, *trials), t)
			byName[n] = append(byName[n], t)
		}
	}
	traced := o
	traced.traced = true
	for _, n := range sel {
		t := runTrial(exe, n, traced)
		logTrial(stderr, n, "profiled", t)
		byName[n] = append(byName[n], t)
	}

	failed := false
	for _, n := range sel {
		wr := aggregate(byName[n], want(n))
		rf.Workloads[n] = wr
		printResult(stdout, n, wr)
		failed = failed || wr.Failed > 0
	}
	if *out == "" {
		*out = "bench-result.json"
	}
	if err := writeJSON(*out, rf); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	if *writeExpected != "" && !failed {
		if err := saveExpected(*writeExpected, o, rf); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", *writeExpected)
	}
	if failed {
		return 1
	}
	return 0
}

func selectWorkloads(list string) ([]string, error) {
	if list == "" {
		var all []string
		for _, w := range workloads {
			all = append(all, w.name)
		}
		return all, nil
	}
	var sel []string
	for _, n := range strings.Split(list, ",") {
		if _, ok := workloadByName(n); !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		sel = append(sel, n)
	}
	return sel, nil
}

func logTrial(w io.Writer, name, which string, t trial) {
	status := "ok"
	if len(t.failures) > 0 {
		status = "FAIL " + t.failures[0]
	}
	fmt.Fprintf(w, "%-14s %-9s wall %.3fs setup %.3fs run %.3fs ref %.3fms: %s\n", name, which, t.wallS, t.SetupS, t.RunS, 1e3*t.RefS, status)
}

// summaryLine is the last line of a time-boxed run.
type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timeBoxed runs trials of one workload until the budget is spent (at
// least minimum of them) and prints the medians: end-to-end metrics, or
// with traced per-layer metrics from alternating untraced and profiled
// trials.
func timeBoxed(exe, name string, o trialOpts, budget time.Duration, traced bool, want *fingerprint, stdout, stderr io.Writer) int {
	minimum := 3
	if traced {
		minimum = 2
	}
	var ts []trial
	var longest time.Duration
	start := time.Now()
	for len(ts) < minimum || time.Since(start)+longest <= budget {
		to := o
		to.traced = traced && len(ts)%2 == 1
		began := time.Now()
		t := runTrial(exe, name, to)
		logTrial(stderr, name, fmt.Sprint(len(ts)+1), t)
		ts = append(ts, t)
		longest = max(longest, time.Since(began))
	}
	wr := aggregate(ts, want)
	printResult(stdout, name, wr)

	line := summaryLine{Correct: wr.Failed == 0, Attempted: wr.Trials, Failed: wr.Failed, Metrics: map[string]summaryMetric{}}
	defs, from := endToEnd, wr.EndToEnd
	if traced {
		defs, from = perLayer(), wr.PerLayer
	}
	for _, m := range defs {
		line.Metrics[m.name] = summaryMetric{Value: from[m.name].Median, Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if wr.Failed > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// saveExpected records the run's fingerprints in path, keeping entries
// for other workloads and shapes when the file already holds this seed.
func saveExpected(path string, o trialOpts, rf resultFile) error {
	e, err := loadExpected(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err != nil || e.Seed != o.seed || e.Fingerprints == nil {
		e = expectedFile{Seed: o.seed, Fingerprints: map[string]fingerprint{}}
	}
	for n, wr := range rf.Workloads {
		e.Fingerprints[fpKey(n, o.quick)] = wr.Fingerprint
	}
	return writeJSON(path, e)
}
