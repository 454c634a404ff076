package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"amoebasim/internal/apps"
	"amoebasim/internal/causal"
	"amoebasim/internal/cluster"
	"amoebasim/internal/flip"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// workload is one benchmark input. Its run function builds clusters, runs them
// and tears them down through the simulator's public functions only,
// recording into r. quick shrinks the shape so tests can run every workload
// in seconds; the code paths are the same.
type workload struct {
	name string
	run  func(r *trialRec, seed uint64, quick bool) error
}

// workloads are the benchmark's inputs in round-robin order. Why each
// exists is recorded in README.md and BENCHMARK.json.
var workloads = []workload{
	{"rpc-1000", func(r *trialRec, seed uint64, quick bool) error {
		sh := rpcShape{procs: 1000, segments: 128, window: 500 * time.Millisecond}
		if quick {
			sh = rpcShape{procs: 16, segments: 2, window: 20 * time.Millisecond}
		}
		return runRPCPool(r, seed, sh)
	}},
	{"group-256", func(r *trialRec, seed uint64, quick bool) error {
		sh := groupShape{procs: 256, groups: 8, think: 150 * time.Millisecond, size: 256, window: time.Second}
		if quick {
			sh = groupShape{procs: 16, groups: 2, think: 2 * time.Millisecond, size: 256, window: 20 * time.Millisecond}
		}
		for _, m := range panda.AllModes() {
			if err := runGroupPool(r, seed, m, sh); err != nil {
				return fmt.Errorf("%v: %w", m, err)
			}
		}
		return nil
	}},
	{"orca-apps", func(r *trialRec, seed uint64, quick bool) error {
		s := sim.MixSeed(seed, 0)
		list, procs := []apps.App{&apps.ASP{Seed: s}, &apps.SOR{Seed: s}}, 32
		if quick {
			list, procs = []apps.App{&apps.ASP{N: 48, Seed: s}, &apps.SOR{Rows: 48, Cols: 32, Iters: 5, Seed: s}}, 4
		}
		return runApps(r, seed, list, procs)
	}},
	{"observed-1000", func(r *trialRec, seed uint64, quick bool) error {
		sh := rpcShape{procs: 1000, segments: 128, window: 250 * time.Millisecond, observed: true}
		if quick {
			sh = rpcShape{procs: 16, segments: 2, window: 20 * time.Millisecond, observed: true}
		}
		return runRPCPool(r, seed, sh)
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Deterministic counts a trial reports, summed over its clusters
// (sim.partitions is the largest).
const (
	cntEvents     = "sim.events"
	cntPartitions = "sim.partitions"
	cntOps        = "ops"
	cntCtx        = "proc.ctx_switches"
	cntIntr       = "proc.interrupts"
	cntSyscalls   = "proc.syscalls"
	cntFrames     = "ether.frames"
	cntBytes      = "ether.bytes"
)

var countNames = []string{cntEvents, cntPartitions, cntOps, cntCtx, cntIntr, cntSyscalls, cntFrames, cntBytes}

// fingerprint identifies a trial's simulated results. It is a pure
// function of workload, shape and seed, so any difference between two
// trials, or from expected.json, is a correctness failure.
type fingerprint struct {
	Ops      int64  `json:"ops"`
	Events   int64  `json:"events"`
	SimNS    int64  `json:"sim_ns"`
	Checksum string `json:"checksum"`
}

// trialRec accumulates one trial across every cluster its workload
// builds: host-time spans around the benchmark's calls into the
// simulator, the simulator's deterministic counts, an FNV-1a checksum of
// per-client results, and correctness failures.
type trialRec struct {
	spans    map[string]float64
	setupS   float64
	runS     float64
	counts   map[string]int64
	simNS    int64
	sum      hash.Hash64
	failures []string

	// ref serves the reference slices taken between run steps; nil when
	// the workload runs in-process without a server (tests).
	ref *refClient

	// injectOrderViolation corrupts one group delivery before the order
	// oracle sees it, so tests can show the oracle fails the trial.
	injectOrderViolation bool
}

func newTrialRec() *trialRec {
	return &trialRec{spans: map[string]float64{}, counts: map[string]int64{}, sum: fnv.New64a()}
}

func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// setup times one set-up step; every step counts toward setup_s, and a
// named one also gets its own span.
func (r *trialRec) setup(span string, f func()) {
	d := timed(f)
	r.setupS += d
	if span != "" {
		r.spans[span] += d
	}
}

// A run is split into steps, each followed by a reference slice: a
// RunUntil run into runSteps steps at simulated instants, a run to the
// end into batches of stepEvents events. Neither changes a simulated
// result, which the fingerprint gate checks.
const (
	runSteps   = 20
	stepEvents = 50_000
)

// runUntilSteps returns the steps of c.RunUntil(end).
func runUntilSteps(c *cluster.Cluster, end time.Duration) func() bool {
	i := 0
	return func() bool {
		i++
		c.RunUntil(sim.Time(end * time.Duration(i) / runSteps))
		return i == runSteps
	}
}

// run times one simulation run under implementation m: step is called
// until it reports the run done, and a reference slice not counted as run
// time follows each call. Then it collects the cluster's counts.
func (r *trialRec) run(m panda.Mode, c *cluster.Cluster, step func() (done bool)) {
	var d float64
	for done := false; !done; {
		start := time.Now()
		done = step()
		d += time.Since(start).Seconds()
		if r.ref != nil {
			if err := r.ref.slice(); err != nil {
				r.fail("reference slice: %v", err)
				r.ref = nil
			}
		}
	}
	r.runS += d
	r.spans["impl."+m.String()+".run_s"] += d

	r.counts[cntEvents] += int64(c.EventsRun())
	r.counts[cntPartitions] = max(r.counts[cntPartitions], int64(c.Partitions()))
	st := c.Stats()
	r.counts[cntCtx] += st.CtxSwitches
	r.counts[cntIntr] += st.Interrupts
	r.counts[cntSyscalls] += st.Syscalls
	for i := 0; i < c.Net.Segments(); i++ {
		r.counts[cntFrames] += c.Net.SegmentFrames(i)
		r.counts[cntBytes] += c.Net.SegmentBytes(i)
	}
	r.simNS += int64(c.Sim.Now())
}

func (r *trialRec) shutdown(c *cluster.Cluster) {
	r.spans["cluster.shutdown_s"] += timed(c.Shutdown)
}

func (r *trialRec) fold(vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		r.sum.Write(b[:])
	}
}

func (r *trialRec) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *trialRec) fingerprint() fingerprint {
	return fingerprint{
		Ops:      r.counts[cntOps],
		Events:   r.counts[cntEvents],
		SimNS:    r.simNS,
		Checksum: fmt.Sprintf("%016x", r.sum.Sum64()),
	}
}

func newCluster(r *trialRec, cfg cluster.Config) (*cluster.Cluster, error) {
	var c *cluster.Cluster
	var err error
	r.setup("cluster.new_s", func() { c, err = cluster.New(cfg) })
	return c, err
}

// warmRoutes fills every kernel's FLIP route cache after construction,
// which New does itself when Config.WarmRoutes is set; calling it from
// here times it as its own span.
func warmRoutes(r *trialRec, c *cluster.Cluster) {
	r.setup("flip.warm_routes_s", func() {
		stacks := make([]*flip.Stack, len(c.Kernels))
		for i, k := range c.Kernels {
			stacks[i] = k.FLIP()
		}
		flip.WarmRoutes(stacks)
	})
}

type rpcShape struct {
	procs, segments int
	window          time.Duration
	// observed turns on the simulator's metrics registry and causal
	// collector.
	observed bool
}

// runRPCPool is a closed-loop user-space echo RPC load: a client on every
// upper-half processor calls a lower-half server drawn from a seeded
// permutation, one 128-byte call outstanding, no think time.
func runRPCPool(r *trialRec, seed uint64, sh rpcShape) error {
	cfg := cluster.Config{Procs: sh.procs, Segments: sh.segments, Mode: panda.UserSpace, Seed: seed, Par: 1}
	if sh.observed {
		cfg.Metrics, cfg.Causal = true, causal.NewCollector(1<<16)
	}
	c, err := newCluster(r, cfg)
	if err != nil {
		return err
	}
	defer r.shutdown(c)
	warmRoutes(r, c)

	n := sh.procs / 2
	ops := make([]int64, n)
	lat := make([]time.Duration, n)
	r.setup("", func() {
		for i := 0; i < n; i++ {
			srv := c.Transports[i]
			srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
				srv.Reply(th, ctx, nil, 0)
			})
		}
		perm := sim.NewRand(sim.MixSeed(seed, 1)).Perm(n)
		for i := 0; i < n; i++ {
			cl, dest := c.Transports[n+i], perm[i]
			c.Procs[n+i].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				th.Sleep(time.Duration(i) * 13 * time.Microsecond)
				for {
					start := th.Proc().Now()
					if _, _, err := cl.Call(th, dest, nil, 128); err != nil {
						r.fail("rpc client %d -> %d: %v", n+i, dest, err)
						return
					}
					ops[i]++
					lat[i] += th.Proc().Now().Sub(start)
				}
			})
		}
	})
	r.run(panda.UserSpace, c, runUntilSteps(c, sh.window))
	for i := range ops {
		r.counts[cntOps] += ops[i]
		r.fold(uint64(i), uint64(ops[i]), uint64(lat[i]))
	}
	return nil
}

type groupShape struct {
	procs, groups int
	think         time.Duration // mean of the exponential think time
	size          int
	window        time.Duration
}

// runGroupPool is a closed-loop totally-ordered group load under
// implementation m: every worker sends to group w mod groups after a
// seeded exponential think time, with one sharded sequencer per group
// co-located on the workers. Every delivery passes the order oracle.
func runGroupPool(r *trialRec, seed uint64, m panda.Mode, sh groupShape) error {
	c, err := newCluster(r, cluster.Config{
		Procs: sh.procs, Mode: m, Seed: seed, Group: true, SeqShards: sh.groups, Groups: sh.groups,
	})
	if err != nil {
		return err
	}
	defer r.shutdown(c)
	warmRoutes(r, c)

	o := newOrderOracle(sh.groups, sh.procs, r.injectOrderViolation)
	ops := make([]int64, sh.procs)
	lat := make([]time.Duration, sh.procs)
	r.setup("", func() {
		for w := 0; w < sh.procs; w++ {
			tr := c.Transports[w]
			tr.HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
				g, ok := payload.(int)
				if !ok {
					o.violation("member %d: seqno %d carries %T, not a group id", w, seqno, payload)
					return
				}
				o.deliver(w, g, sender, seqno)
			})
			rng := sim.NewRand(sim.MixSeed(seed, uint64(w)+1))
			g := w % sh.groups
			c.Procs[w].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
				for {
					th.Sleep(time.Duration(-float64(sh.think) * math.Log(1-rng.Float64())))
					start := th.Proc().Now()
					if err := tr.GroupSendTo(th, g, g, sh.size); err != nil {
						r.fail("%v group send %d on group %d: %v", m, w, g, err)
						return
					}
					ops[w]++
					lat[w] += th.Proc().Now().Sub(start)
				}
			})
		}
	})
	r.run(m, c, runUntilSteps(c, sh.window))
	for w := range ops {
		r.counts[cntOps] += ops[w]
		r.fold(uint64(w), uint64(ops[w]), uint64(lat[w]))
	}
	for g, senders := range o.senders {
		r.fold(uint64(g), uint64(len(senders)))
		for _, s := range senders {
			r.fold(uint64(s))
		}
	}
	if o.violations > 0 {
		r.fail("%v: %d total-order violations, first: %s", m, o.violations, o.first)
	}
	return nil
}

// orderOracle checks total order online, inside the delivery upcall:
// every member delivers each group's seqnos 1, 2, 3, ... with no
// duplicate or gap, and every member that delivers a seqno agrees on its
// sender.
type orderOracle struct {
	next       [][]uint64 // [group][member] next seqno the member must deliver
	senders    [][]int    // [group][seqno-1] sender, set by the first delivery
	inject     bool
	violations int
	first      string
}

func newOrderOracle(groups, members int, inject bool) *orderOracle {
	o := &orderOracle{next: make([][]uint64, groups), senders: make([][]int, groups), inject: inject}
	for g := range o.next {
		o.next[g] = make([]uint64, members)
		for m := range o.next[g] {
			o.next[g][m] = 1
		}
	}
	return o
}

func (o *orderOracle) violation(format string, args ...any) {
	if o.violations == 0 {
		o.first = fmt.Sprintf(format, args...)
	}
	o.violations++
}

func (o *orderOracle) deliver(member, g, sender int, seqno uint64) {
	if g < 0 || g >= len(o.next) {
		o.violation("member %d: delivery for unknown group %d", member, g)
		return
	}
	if o.inject && member == 1 && g == 0 && seqno == 2 {
		sender ^= 1
	}
	if want := o.next[g][member]; seqno != want {
		o.violation("group %d member %d: delivered seqno %d, expected %d", g, member, seqno, want)
		return
	}
	o.next[g][member]++
	log := o.senders[g]
	if i := int(seqno - 1); i < len(log) {
		if log[i] != sender {
			o.violation("group %d seqno %d: member %d saw sender %d, another member saw %d", g, seqno, member, sender, log[i])
		}
		return
	}
	o.senders[g] = append(log, sender)
}

// runApps runs each application under every implementation on a pool
// with cold route caches, as Table 3 does, and cross-checks the answers.
func runApps(r *trialRec, seed uint64, list []apps.App, procs int) error {
	for _, app := range list {
		var want int64
		for k, m := range panda.AllModes() {
			answer, elapsed, err := runApp(r, seed, app, m, procs)
			if err != nil {
				return fmt.Errorf("%s %v: %w", app.Name(), m, err)
			}
			if k == 0 {
				want = answer
			} else if answer != want {
				r.fail("%s: %v answer %d, %v answer %d", app.Name(), m, answer, panda.AllModes()[0], want)
			}
			r.counts[cntOps]++
			r.fold(uint64(answer), uint64(elapsed))
		}
	}
	return nil
}

func runApp(r *trialRec, seed uint64, app apps.App, m panda.Mode, procs int) (int64, time.Duration, error) {
	c, err := newCluster(r, cluster.Config{Procs: procs, Mode: m, Seed: seed, Group: app.NeedsGroup()})
	if err != nil {
		return 0, 0, err
	}
	defer r.shutdown(c)
	var h *apps.Harness
	var answer func() int64
	r.setup("apps.setup_s", func() {
		h = apps.NewHarness(c)
		answer = app.Setup(h)
	})
	var elapsed time.Duration
	// Harness.Wait runs the cluster's one event queue (Config.Par is
	// unset) to the end. Stepping that queue first runs the same events,
	// and Wait then only checks the workers' outcome.
	r.run(m, c, func() bool {
		for k := 0; k < stepEvents; k++ {
			if !c.Sim.Step() {
				elapsed, err = h.Wait()
				return true
			}
		}
		return false
	})
	if err != nil {
		return 0, 0, err
	}
	return answer(), elapsed, nil
}
