package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// childResult is what one trial process measures about itself. The
// parent adds what only it can see: wall time from exec to exit, CPU
// time and peak RSS.
type childResult struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// RefS is the mean time of the reference slices served during the
	// run, and PauseS the time this process spent waiting for them.
	RefS        float64            `json:"ref_s"`
	PauseS      float64            `json:"pause_s"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	Mallocs     uint64             `json:"mallocs"`
	GCCycles    uint32             `json:"gc_cycles"`
	Spans       map[string]float64 `json:"spans"`
	Counts      map[string]int64   `json:"counts"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Failures    []string           `json:"failures,omitempty"`
	// Layers is the CPU profile's self time per layer (traced trials).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// trialOpts selects how a trial runs; every field is passed to the child.
type trialOpts struct {
	seed   uint64
	traced bool
	quick  bool
	inject bool // corrupt one group delivery (tests of the order oracle)
}

func (o trialOpts) args(name string) []string {
	return []string{"child", "-workload", name, "-seed", fmt.Sprint(o.seed),
		fmt.Sprintf("-trace=%v", o.traced), fmt.Sprintf("-quick=%v", o.quick),
		fmt.Sprintf("-inject-order-violation=%v", o.inject)}
}

// childMain runs one trial in this process and prints its result as one
// JSON line.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	var o trialOpts
	fs.Uint64Var(&o.seed, "seed", 5, "workload seed")
	fs.BoolVar(&o.traced, "trace", false, "profile the workload")
	fs.BoolVar(&o.quick, "quick", false, "shrunk shapes")
	fs.BoolVar(&o.inject, "inject-order-violation", false, "corrupt one group delivery")
	withRef := fs.Bool("ref", false, "take reference slices from the server on file descriptors 3 and 4")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	var ref *refClient
	if *withRef {
		ref = &refClient{req: os.NewFile(3, "ref-requests"), resp: os.NewFile(4, "ref-replies")}
	}
	res, err := runInProcess(w, o, ref)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runInProcess runs the workload once, under the CPU profiler when
// traced, taking reference slices from ref if it is not nil.
func runInProcess(w workload, o trialOpts, ref *refClient) (childResult, error) {
	var res childResult
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var prof bytes.Buffer
	if o.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, err
		}
	}
	r := newTrialRec()
	r.injectOrderViolation = o.inject
	r.ref = ref
	err := w.run(r, o.seed, o.quick)
	if o.traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.fail("%s: %v", w.name, err)
	}

	res.SetupS, res.RunS = r.setupS, r.runS
	if ref != nil && ref.n > 0 {
		res.RefS, res.PauseS = ref.sliceS/float64(ref.n), ref.pauseS
	}
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCycles = m1.NumGC - m0.NumGC
	res.Spans, res.Counts = r.spans, r.counts
	res.Fingerprint, res.Failures = r.fingerprint(), r.failures
	if o.traced {
		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return res, err
		}
		res.Layers, _ = layerSeconds(samples)
	}
	return res, nil
}
