package workload

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"amoebasim/internal/bypass"
	"amoebasim/internal/causal"
	"amoebasim/internal/cluster"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/panda"
	"amoebasim/internal/sim"
)

// Mix is a weighted operation mix. Weights are relative (they need not sum
// to 1); every negative weight is invalid, and at least one must be
// positive.
type Mix struct {
	RPC   float64
	Group float64
	Read  float64
	Write float64
}

// Named mixes accepted by ParseMix.
var (
	// MixRPC is pure point-to-point RPC traffic.
	MixRPC = Mix{RPC: 1}
	// MixGroup is pure totally-ordered group traffic — the §4.3 sequencer
	// stress.
	MixGroup = Mix{Group: 1}
	// MixOrca approximates an Orca shared-object workload: mostly reads
	// (RPCs to the object owner) with a write (ordered broadcast) tail.
	MixOrca = Mix{Read: 0.8, Write: 0.2}
	// MixMixed is an even split of RPC and group traffic.
	MixMixed = Mix{RPC: 0.5, Group: 0.5}
)

func (m Mix) weights() [numOps]float64 {
	return [numOps]float64{OpRPC: m.RPC, OpGroup: m.Group, OpRead: m.Read, OpWrite: m.Write}
}

func (m Mix) total() float64 {
	var t float64
	for _, w := range m.weights() {
		t += w
	}
	return t
}

func (m Mix) validate() error {
	for op, w := range m.weights() {
		if !finite(w) || w < 0 {
			return fmt.Errorf("workload: bad %s weight %g (want a finite, non-negative number)", Op(op), w)
		}
	}
	if m.total() <= 0 {
		return fmt.Errorf("workload: operation mix has no positive weight")
	}
	return nil
}

// draw picks one operation kind, weighted. The cumulative walk is in
// fixed Op order, so draws are reproducible.
func (m Mix) draw(r *sim.Rand) Op {
	u := r.Float64() * m.total()
	var cum float64
	for op, w := range m.weights() {
		cum += w
		if u < cum {
			return Op(op)
		}
	}
	// Floating-point slack on the last positive weight.
	for op := numOps - 1; op >= 0; op-- {
		if m.weights()[op] > 0 {
			return op
		}
	}
	return OpRPC
}

// draw picks one message size.
func (d SizeDist) draw(r *sim.Rand) int {
	if d.Kind == "uniform" && d.Hi > d.Lo {
		return d.Lo + r.Intn(d.Hi-d.Lo+1)
	}
	return d.Lo
}

// String renders the mix canonically ("rpc=0.50,group=0.50"), matching the
// named presets where possible.
func (m Mix) String() string {
	named := map[string]Mix{"rpc": MixRPC, "group": MixGroup, "orca": MixOrca, "mixed": MixMixed}
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if named[n] == m {
			return n
		}
	}
	var parts []string
	for op, w := range m.weights() {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.2f", Op(op), w))
		}
	}
	return strings.Join(parts, ",")
}

// ErrInvalidMix is the (wrapped) error ParseMix returns for a malformed
// mix specification — an empty element, a zero or negative weight, or a
// mix with no positive weight at all. The message names the offending
// token, so `-mix "rpc=1,group=-2"` reports the `group=-2` entry, not a
// generic failure.
var ErrInvalidMix = errors.New("invalid operation mix")

// ParseMix accepts a named mix (rpc, group, orca, mixed) or an explicit
// "op=weight,..." list over rpc/group/read/write. Every explicit weight
// must be strictly positive — an op you don't want is omitted, not listed
// at zero — and empty elements (stray or trailing commas) are rejected.
// All rejections wrap ErrInvalidMix and name the offending token.
func ParseMix(s string) (Mix, error) {
	switch strings.TrimSpace(s) {
	case "rpc":
		return MixRPC, nil
	case "group":
		return MixGroup, nil
	case "orca":
		return MixOrca, nil
	case "mixed":
		return MixMixed, nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Mix{}, fmt.Errorf("workload: %w: empty element in %q (stray comma?)", ErrInvalidMix, s)
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("workload: %w: bad element %q (want op=weight or a named mix: rpc, group, orca, mixed)", ErrInvalidMix, part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || !finite(w) {
			return Mix{}, fmt.Errorf("workload: %w: weight in %q is not a finite number", ErrInvalidMix, part)
		}
		if w <= 0 {
			return Mix{}, fmt.Errorf("workload: %w: weight in %q must be positive (omit the op instead of zeroing it)", ErrInvalidMix, part)
		}
		switch strings.TrimSpace(k) {
		case "rpc":
			m.RPC = w
		case "group":
			m.Group = w
		case "read":
			m.Read = w
		case "write":
			m.Write = w
		default:
			return Mix{}, fmt.Errorf("workload: %w: unknown op in %q (rpc, group, read, write)", ErrInvalidMix, part)
		}
	}
	if err := m.validate(); err != nil {
		return Mix{}, fmt.Errorf("workload: %w: %v", ErrInvalidMix, err)
	}
	return m, nil
}

// SizeDist is the message-size distribution.
type SizeDist struct {
	// Kind is "fixed" or "uniform".
	Kind string
	// Lo is the fixed size, or the inclusive lower bound for uniform.
	Lo int
	// Hi is the inclusive upper bound for uniform (ignored for fixed).
	Hi int
}

func (d SizeDist) validate() error {
	switch d.Kind {
	case "fixed":
		if d.Lo < 0 {
			return fmt.Errorf("workload: negative message size %d", d.Lo)
		}
	case "uniform":
		if d.Lo < 0 || d.Hi < d.Lo {
			return fmt.Errorf("workload: bad uniform size range [%d, %d]", d.Lo, d.Hi)
		}
	default:
		return fmt.Errorf("workload: unknown size distribution %q (fixed or uniform)", d.Kind)
	}
	return nil
}

func (d SizeDist) String() string {
	if d.Kind == "uniform" {
		return fmt.Sprintf("uniform:%d-%d", d.Lo, d.Hi)
	}
	return fmt.Sprintf("fixed:%d", d.Lo)
}

// ParseSizeDist accepts "fixed:N" or "uniform:LO-HI" (bytes).
func ParseSizeDist(s string) (SizeDist, error) {
	kind, arg, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok {
		return SizeDist{}, fmt.Errorf("workload: bad size distribution %q (want fixed:N or uniform:LO-HI)", s)
	}
	switch kind {
	case "fixed":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return SizeDist{}, fmt.Errorf("workload: bad fixed size %q", arg)
		}
		return SizeDist{Kind: "fixed", Lo: n}, nil
	case "uniform":
		lo, hi, ok := strings.Cut(arg, "-")
		if !ok {
			return SizeDist{}, fmt.Errorf("workload: bad uniform range %q (want LO-HI)", arg)
		}
		l, err1 := strconv.Atoi(lo)
		h, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || l < 0 || h < l {
			return SizeDist{}, fmt.Errorf("workload: bad uniform range %q", arg)
		}
		return SizeDist{Kind: "uniform", Lo: l, Hi: h}, nil
	default:
		return SizeDist{}, fmt.Errorf("workload: unknown size distribution %q (fixed or uniform)", kind)
	}
}

// ParseLoop accepts open or closed.
func ParseLoop(s string) (Loop, error) {
	switch strings.TrimSpace(s) {
	case "open":
		return OpenLoop, nil
	case "closed":
		return ClosedLoop, nil
	default:
		return 0, fmt.Errorf("workload: unknown loop discipline %q (open or closed)", s)
	}
}

// ParseLoads parses a comma-separated list of offered loads in
// operations/second.
func ParseLoads(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var loads []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !finite(v) || v <= 0 {
			return nil, fmt.Errorf("workload: bad load %q (want finite, positive ops/sec)", f)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// Config describes one workload run.
type Config struct {
	// Procs is the worker-pool size (default 4).
	Procs int
	// Mode selects the Panda implementation.
	Mode panda.Mode
	// DedicatedSequencer gives the group sequencer its own processor
	// (user-space only). With SeqShards > 1, every shard gets one.
	DedicatedSequencer bool
	// SeqShards partitions the communication groups across this many
	// sequencer processors (default 1, the paper's single sequencer).
	SeqShards int
	// Groups is the number of independent communication groups (default:
	// one per sequencer shard). Clients pick their group by client index
	// modulo Groups, so group traffic spreads deterministically.
	Groups int
	// Topology overrides the cluster's network shape (segment count,
	// switch fan-in, uplink model, explicit placement). Nil keeps the
	// cluster defaults.
	Topology *cluster.Topology
	// Dispatch is the kernel-bypass receive dispatch mode (zero: poll).
	// The other implementations ignore it.
	Dispatch bypass.Dispatch
	// Loop is the generation discipline (default OpenLoop).
	Loop Loop
	// Clients is the client-population size (default 2·Procs).
	Clients int
	// OfferedLoad is the open-loop target in operations/second across the
	// whole population.
	OfferedLoad float64
	// ThinkTime is the closed-loop mean think time (default 2ms).
	ThinkTime time.Duration
	// Arrival shapes open-loop interarrival (and closed-loop think) times.
	Arrival Arrival
	// ArrivalShape is the Gamma/Weibull shape parameter k for Arrival
	// (ignored by the shapeless processes; 0 defaults to 1, which makes
	// both exactly exponential).
	ArrivalShape float64
	// Mix is the operation mix (default MixGroup).
	Mix Mix
	// Sizes is the message-size distribution (default fixed 256 bytes).
	Sizes SizeDist
	// Shape modulates offered load over the window (default steady).
	// Classes without their own shape inherit it.
	Shape LoadShape
	// Classes is the multi-tenant population. Empty, the legacy
	// single-population fields above describe one "default" class; set,
	// they act as config-wide defaults the classes inherit (and, for
	// OfferedLoad, as the total the class shares are rescaled to).
	Classes []Class
	// Record captures the generated operation stream into Result.Trace
	// for later replay.
	Record bool
	// Replay drives the run from a recorded trace instead of generating
	// arrivals. The trace overrides Seed, Procs, Groups, Warmup, Window
	// and the population; Mode, DedicatedSequencer, SeqShards and
	// Topology still come from this config, so one trace replays into
	// either implementation.
	Replay *Trace
	// ReplaySource, when set alongside Replay, streams the events
	// incrementally instead of reading them from Replay.Events — the
	// factory (from OpenTraceStream) is called once per run, so one
	// opened trace drives a whole sweep's runs independently. Replay then
	// carries only the header. The streamed replay is bit-identical to
	// the in-memory path.
	ReplaySource func() (EventSource, error)
	// Warmup runs the generator without recording, letting FLIP locates
	// and route caches settle (default Window/4).
	Warmup time.Duration
	// Window is the measurement window in simulated time (default 400ms).
	Window time.Duration
	// Seed drives every random draw (default 1).
	Seed uint64
	// Model overrides the machine cost model.
	Model *model.CostModel
	// Decompose installs the causal critical-path tracer for the run:
	// every operation completed inside the measurement window gets its
	// latency decomposed per phase, aggregated per kind in Result.Decomp.
	Decompose bool
	// DecompMaxOps bounds the causal flight recorder — only the most
	// recent completed operations are retained, so long runs keep bounded
	// memory (default 1<<16).
	DecompMaxOps int
}

// WithDefaults returns the configuration with every unset field resolved
// to the value Run would use, without running anything.
func (cfg Config) WithDefaults() Config { return cfg.withDefaults() }

func (cfg Config) withDefaults() Config {
	if cfg.Procs == 0 {
		cfg.Procs = 4
	}
	if cfg.Loop == 0 {
		cfg.Loop = OpenLoop
	}
	if cfg.Clients == 0 {
		cfg.Clients = 2 * cfg.Procs
	}
	if cfg.ThinkTime == 0 {
		cfg.ThinkTime = 2 * time.Millisecond
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixGroup
	}
	if cfg.Sizes == (SizeDist{}) {
		cfg.Sizes = SizeDist{Kind: "fixed", Lo: 256}
	}
	if cfg.Window == 0 {
		cfg.Window = 400 * time.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Window / 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DecompMaxOps == 0 {
		cfg.DecompMaxOps = 1 << 16
	}
	return cfg
}

// Validate rejects configurations the engine cannot drive. Cluster-shape
// errors are reported through cluster.Config.Validate so the messages
// match the cluster's own.
func (cfg Config) Validate() error {
	group := cfg.Mix.Group > 0 || cfg.Mix.Write > 0
	for _, c := range cfg.Classes {
		if c.Mix.Group > 0 || c.Mix.Write > 0 {
			group = true
		}
	}
	ccfg := cluster.Config{
		Procs: cfg.Procs, Mode: cfg.Mode,
		Group:              group,
		DedicatedSequencer: cfg.DedicatedSequencer,
		SeqShards:          cfg.SeqShards,
		Groups:             cfg.Groups,
		Dispatch:           cfg.Dispatch,
	}
	if cfg.Topology != nil {
		ccfg.Topology = *cfg.Topology
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	if cfg.Loop != OpenLoop && cfg.Loop != ClosedLoop {
		return fmt.Errorf("workload: unknown loop discipline %d", cfg.Loop)
	}
	if cfg.Window <= 0 || cfg.Warmup < 0 {
		return fmt.Errorf("workload: bad warmup/window (%v/%v)", cfg.Warmup, cfg.Window)
	}
	if !finite(cfg.OfferedLoad) {
		return fmt.Errorf("workload: offered load %g is not a finite number", cfg.OfferedLoad)
	}
	if len(cfg.Classes) == 0 {
		if cfg.Clients < 1 {
			return fmt.Errorf("workload: need at least 1 client, got %d", cfg.Clients)
		}
		if cfg.Loop == OpenLoop && cfg.OfferedLoad <= 0 {
			return fmt.Errorf("workload: open loop needs a positive offered load, got %g", cfg.OfferedLoad)
		}
		if cfg.Loop == ClosedLoop && cfg.ThinkTime < 0 {
			return fmt.Errorf("workload: negative think time %v", cfg.ThinkTime)
		}
		if err := cfg.Mix.validate(); err != nil {
			return err
		}
		if err := cfg.Sizes.validate(); err != nil {
			return err
		}
		if err := (ArrivalSpec{Kind: cfg.Arrival, Shape: cfg.ArrivalShape}).validate(); err != nil {
			return err
		}
		if err := cfg.Shape.validate(); err != nil {
			return err
		}
		if (cfg.Mix.RPC > 0 || cfg.Mix.Read > 0) && cfg.Procs < 2 {
			return fmt.Errorf("workload: point-to-point operations need at least 2 workers")
		}
		return nil
	}
	// Multi-tenant population: validate each resolved class (inherited
	// defaults applied) and the open-loop load as a whole — class loads
	// may be relative shares when cfg.OfferedLoad carries the total.
	classes := resolveClasses(cfg)
	for _, c := range classes {
		if err := c.validate(cfg.Procs); err != nil {
			return err
		}
	}
	if cfg.OfferedLoad < 0 {
		return fmt.Errorf("workload: negative offered load %g", cfg.OfferedLoad)
	}
	if cfg.Loop == OpenLoop && totalOffered(classes) <= 0 {
		return fmt.Errorf("workload: open loop needs a positive offered load (set Config.OfferedLoad or per-class loads)")
	}
	return nil
}

// LatencyStats summarizes one latency histogram in simulated time.
type LatencyStats struct {
	Op    string
	Count int64
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// ClassStats is one client class's slice of a run's measurements.
type ClassStats struct {
	// Name is the class name ("default" for a legacy single-population
	// run).
	Name string
	// Clients is the class population size.
	Clients int
	// Offered is the class's absolute open-loop target in ops/sec (0 in
	// closed loop, where demand adapts to the system).
	Offered float64
	// Achieved is the class's completed-operation rate over the window.
	Achieved float64
	// Issued and Completed count the class's operations inside the
	// window.
	Issued    int64
	Completed int64
	// Latency summarizes the class's latency distribution.
	Latency LatencyStats
	// SLO is the class's latency objective (0: none).
	SLO time.Duration
	// SLOMet counts completed operations within the SLO (all of them when
	// the class has no objective).
	SLOMet int64
	// SLOAttainment is SLOMet/Completed — the fraction of completed
	// operations meeting the objective (1 with no objective; 0 when the
	// class issued work under an objective but completed nothing).
	SLOAttainment float64
}

// Result is one workload run's measurements.
type Result struct {
	// Config is the fully defaulted configuration that ran.
	Config Config
	// ModeLabel names the implementation configuration
	// (kernel-space / user-space / user-space-dedicated).
	ModeLabel string
	// Offered is the offered load in ops/sec (open loop: the target;
	// closed loop: equal to Achieved by definition).
	Offered float64
	// Achieved is the completed-operation rate over the window.
	Achieved float64
	// Issued counts operations issued inside the window; in open loop
	// Issued−Completed is the backlog the window left behind.
	Issued int64
	// Completed counts operations that finished inside the window.
	Completed int64
	// Overall summarizes all operations' latency.
	Overall LatencyStats
	// PerOp summarizes each operation kind present in the mix, in fixed
	// op order.
	PerOp []LatencyStats
	// PerClass summarizes each client class, in class order (one
	// "default" entry for a legacy single-population run).
	PerClass []ClassStats
	// Fairness is Jain's index over per-class achieved/offered ratios:
	// 1 when every class receives the same fraction of its demand,
	// approaching 1/n when one class starves the rest.
	Fairness float64
	// Trace is the recorded operation stream (nil unless Config.Record).
	Trace *Trace
	// SeqOccupancy is the sequencer processor's busy fraction over the
	// window (0 when the mix has no group traffic).
	SeqOccupancy float64
	// WorkerOccupancy is the mean busy fraction of the worker processors.
	WorkerOccupancy float64
	// Registry holds the raw workload.latency_us histograms.
	Registry *metrics.Registry
	// Decomp is the per-kind causal latency decomposition over operations
	// completed inside the window (nil unless Config.Decompose).
	Decomp []causal.Agg
	// DecompDropped counts completed operations the bounded flight
	// recorder evicted before aggregation (they are missing from Decomp).
	DecompDropped int64
}
