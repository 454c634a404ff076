// Package cluster assembles a complete simulated Amoeba processor pool:
// the Ethernet, a Panda instance (kernel-space, user-space, or
// kernel-bypass) on each processor board, and, in kernel and user space,
// the Amoeba kernel each runs on. A bypass processor boots no kernel: its
// queue pair is its only interface. Either way processor i owns NIC i.
// It is the entry point the benchmarks, the Orca runtime and the examples
// build on.
package cluster

import (
	"fmt"
	"time"

	"amoebasim/internal/akernel"
	"amoebasim/internal/bypass"
	"amoebasim/internal/ether"
	"amoebasim/internal/faults"
	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// procsPerSegment matches the paper's pool: "Each segment connects eight
// processors by a 10 Mbit/sec Ethernet", joined by an Ethernet switch.
const procsPerSegment = 8

// Topology describes the pool interconnect beyond the flat default:
// segment count, the switch hierarchy, the uplink cost model, and an
// explicit processor→segment placement. The zero value defers entirely to
// Config (Segments override or ceil(total/8) segments, flat single switch,
// balanced contiguous placement).
type Topology struct {
	// Segments is the number of Ethernet segments (0: defer to
	// Config.Segments, then to ceil(total processors / 8)).
	Segments int
	// SwitchFanIn groups segments under leaf switches joined by a
	// backbone; 0 (or any value >= the segment count) keeps the paper's
	// flat single-switch pool.
	SwitchFanIn int
	// UplinkLatency is the store-and-forward latency per uplink crossing
	// (0: ether.DefaultUplinkLatency when hierarchical).
	UplinkLatency time.Duration
	// UplinkMbps is the uplink serialization rate in Mbit/s (0:
	// ether.DefaultUplinkMbps when hierarchical).
	UplinkMbps float64
	// Placement maps every processor — workers first, then dedicated
	// sequencer machines — to its segment. Nil places processors
	// contiguously and balanced: processor i on segment i*segments/total.
	Placement []int
}

// Config describes a cluster to build.
type Config struct {
	// Procs is the number of worker processors.
	Procs int
	// Mode selects the Panda implementation (kernel-space, user-space, or
	// kernel-bypass).
	Mode panda.Mode
	// Dispatch selects the completion-queue dispatch mode of the bypass
	// implementation (zero: poll). Ignored by the other modes.
	Dispatch bypass.Dispatch
	// Group enables totally-ordered group communication among all
	// workers.
	Group bool
	// DedicatedSequencer adds one extra processor per sequencer shard that
	// runs only the group sequencer (the paper's "User-space-dedicated"
	// configuration; also available to the bypass implementation). The
	// kernel-space protocols process sequencing at interrupt level, so a
	// dedicated machine would buy them nothing.
	DedicatedSequencer bool
	// SeqShards partitions the sequencer across k processors (default 1,
	// the paper's single sequencer). Groups are routed to shards
	// deterministically (group g → shard g mod k) with independent
	// per-shard sequence spaces; total order is preserved within a group.
	// Co-located shards run on workers spread evenly over the pool;
	// dedicated shards each get their own extra machine.
	SeqShards int
	// Groups is the number of independent totally-ordered groups (default:
	// SeqShards). Every worker is a member of every group.
	Groups int
	// Segments overrides the number of Ethernet segments (default:
	// ceil(total processors / 8)).
	Segments int
	// Topology configures the interconnect in full (segment count, switch
	// fan-in, uplink model, explicit placement); its Segments field, when
	// set, must agree with the legacy Segments override.
	Topology Topology
	// Seed drives all randomness (loss injection).
	Seed uint64
	// LossRate injects uniform packet loss (0 = reliable).
	LossRate float64
	// FaultScenario arms a shipped fault-injection scenario by name
	// (see internal/faults.Names), instantiated for this cluster's shape.
	FaultScenario string
	// Faults arms an explicit fault schedule; it takes precedence over
	// FaultScenario. Nil (with an empty FaultScenario) leaves the network
	// ideal apart from LossRate.
	Faults *faults.Scenario
	// FaultSeed drives the fault schedule's randomness independently of
	// the workload Seed; 0 derives a decorrelated seed from Seed.
	FaultSeed uint64
	// NoPiggyback disables the user-space RPC's piggybacked reply
	// acknowledgements (ablation).
	NoPiggyback bool
	// InterfaceDaemon relays user-space upcalls through interface-layer
	// daemon threads, as in pre-continuation Panda (ablation, §3.2).
	InterfaceDaemon bool
	// WarmRoutes pre-populates every kernel's FLIP route cache with every
	// address registered during cluster construction — the steady state of
	// a long-running pool where every route has been located once. The
	// workload engine enables it so short measurement windows measure the
	// protocols, not FLIP's one-time locate broadcasts (each of which
	// interrupts every processor). Microbenchmarks keep cold caches.
	WarmRoutes bool
	// Metrics attaches a metrics registry to the simulation so every
	// layer records its counters; when false the hot paths stay
	// branch-only (no registry, no allocation).
	Metrics bool
	// Par requests conservative parallel execution of this one simulation
	// with up to Par worker goroutines, partitioned by ether segment
	// (flat) or switch group (hierarchical). Results are byte-identical
	// to the single-queue engine; the partition count is a property of
	// the topology, not of Par, so every Par > 1 produces identical
	// results by construction. The parallel engine engages only for
	// configurations whose cross-processor interactions all flow through
	// ether frames: group communication, metrics, causal tracing, fault
	// injection and loss keep the proven single-queue engine regardless
	// of Par (as does a single-partition topology). Values <= 1 always
	// run single-queue.
	Par int
	// Causal installs a causal tracer on the simulation before any kernel
	// boots, so every operation is decomposed from the first event on. Nil
	// (the default) keeps the causal hooks branch-only.
	Causal sim.CausalTracer
	// Model overrides the machine cost model (default Calibrated).
	Model *model.CostModel
}

// Cluster is a running simulated pool.
type Cluster struct {
	// Sim is the simulation clock. Under parallel execution it is
	// partition 0's simulator — Now() is only meaningful between runs
	// (RunUntil leaves every partition at the same instant).
	Sim   *sim.Sim
	Model *model.CostModel
	Net   *ether.Network
	// Par is the conservative parallel execution group, or nil when the
	// cluster runs on the single-queue engine (see Config.Par).
	Par   *sim.Group
	Procs []*proc.Processor
	// Kernels is the Amoeba kernel of each processor in kernel and user
	// space, and empty under bypass, whose processors boot none.
	Kernels    []*akernel.Kernel
	Transports []panda.Transport // indexed by worker processor id
	// Metrics is the registry attached to the simulation, or nil when
	// Config.Metrics was false.
	Metrics *metrics.Registry
	// Faults is the armed fault injector, or nil when no scenario was
	// configured.
	Faults *faults.Injector
	// SeqProc is the first dedicated sequencer processor id, or -1.
	SeqProc int
	// SeqProcs is the processor id running each sequencer shard, in shard
	// order; nil when the cluster has no group communication.
	SeqProcs []int

	cfg       Config
	placement []int // processor → segment
}

// seqShards resolves the effective sequencer shard count.
func (cfg Config) seqShards() int {
	if cfg.SeqShards < 1 {
		return 1
	}
	return cfg.SeqShards
}

// groupCount resolves the effective number of communication groups.
func (cfg Config) groupCount() int {
	if cfg.Groups > 0 {
		return cfg.Groups
	}
	return cfg.seqShards()
}

// totalProcs is the pool size including dedicated sequencer machines.
func (cfg Config) totalProcs() int {
	total := cfg.Procs
	if cfg.DedicatedSequencer {
		total += cfg.seqShards()
	}
	return total
}

// EffectiveSegments reports the segment count the configuration resolves
// to (override, legacy field, or the default of 8 processors per segment),
// so front ends can describe the topology without building the cluster.
func (cfg Config) EffectiveSegments() int { return cfg.segmentCount() }

// segmentCount resolves the effective segment count.
func (cfg Config) segmentCount() int {
	if cfg.Topology.Segments > 0 {
		return cfg.Topology.Segments
	}
	if cfg.Segments > 0 {
		return cfg.Segments
	}
	return (cfg.totalProcs() + procsPerSegment - 1) / procsPerSegment
}

// Validate checks the configuration for shapes that would build a
// nonsensical pool: a non-positive worker count, an unknown Panda mode, a
// dedicated sequencer outside the user-space/group configuration it exists
// for, a negative segment override, or a loss rate outside [0, 1]. It is
// called by New, and exported so front ends (the CLI, the workload engine)
// can reject a configuration before paying for cluster construction.
func (cfg Config) Validate() error {
	if cfg.Procs < 1 {
		return fmt.Errorf("cluster: need at least 1 processor, got %d", cfg.Procs)
	}
	if cfg.Mode != panda.KernelSpace && cfg.Mode != panda.UserSpace && cfg.Mode != panda.Bypass {
		return fmt.Errorf("cluster: unknown mode %v", cfg.Mode)
	}
	if cfg.DedicatedSequencer && cfg.Mode == panda.KernelSpace {
		return fmt.Errorf("cluster: dedicated sequencer requires user-space or bypass mode, not %v", cfg.Mode)
	}
	if cfg.DedicatedSequencer && !cfg.Group {
		return fmt.Errorf("cluster: dedicated sequencer requires group communication")
	}
	if cfg.SeqShards < 0 {
		return fmt.Errorf("cluster: negative sequencer shard count %d", cfg.SeqShards)
	}
	if cfg.seqShards() > 1 && !cfg.Group {
		return fmt.Errorf("cluster: sequencer shards require group communication")
	}
	if cfg.seqShards() > cfg.Procs {
		return fmt.Errorf("cluster: %d sequencer shards exceed %d workers", cfg.seqShards(), cfg.Procs)
	}
	if cfg.Groups < 0 {
		return fmt.Errorf("cluster: negative group count %d", cfg.Groups)
	}
	if cfg.Groups > 0 && cfg.Groups < cfg.seqShards() {
		return fmt.Errorf("cluster: %d groups leave some of %d sequencer shards idle", cfg.Groups, cfg.seqShards())
	}
	if cfg.Segments < 0 {
		return fmt.Errorf("cluster: negative segment count %d", cfg.Segments)
	}
	if cfg.Topology.Segments < 0 {
		return fmt.Errorf("cluster: negative topology segment count %d", cfg.Topology.Segments)
	}
	if cfg.Topology.Segments > 0 && cfg.Segments > 0 && cfg.Topology.Segments != cfg.Segments {
		return fmt.Errorf("cluster: Topology.Segments %d conflicts with Segments %d", cfg.Topology.Segments, cfg.Segments)
	}
	if cfg.Topology.SwitchFanIn < 0 {
		return fmt.Errorf("cluster: negative switch fan-in %d", cfg.Topology.SwitchFanIn)
	}
	if cfg.Topology.UplinkLatency < 0 {
		return fmt.Errorf("cluster: negative uplink latency %v", cfg.Topology.UplinkLatency)
	}
	if cfg.Topology.UplinkMbps < 0 {
		return fmt.Errorf("cluster: negative uplink rate %g Mbit/s", cfg.Topology.UplinkMbps)
	}
	total := cfg.totalProcs()
	segs := cfg.segmentCount()
	if segs > total {
		return fmt.Errorf("cluster: %d segments exceed %d processors: a segment would be empty", segs, total)
	}
	if p := cfg.Topology.Placement; p != nil {
		if len(p) != total {
			return fmt.Errorf("cluster: placement names %d processors, pool has %d", len(p), total)
		}
		used := make([]bool, segs)
		for i, seg := range p {
			if seg < 0 || seg >= segs {
				return fmt.Errorf("cluster: placement[%d] = %d outside [0, %d)", i, seg, segs)
			}
			used[seg] = true
		}
		for seg, ok := range used {
			if !ok {
				return fmt.Errorf("cluster: placement leaves segment %d empty", seg)
			}
		}
	}
	if cfg.LossRate < 0 || cfg.LossRate > 1 {
		return fmt.Errorf("cluster: loss rate %g outside [0, 1]", cfg.LossRate)
	}
	if cfg.Par < 0 {
		return fmt.Errorf("cluster: negative parallel worker count %d", cfg.Par)
	}
	if cfg.Dispatch != 0 && (cfg.Dispatch < bypass.Poll || cfg.Dispatch > bypass.Hybrid) {
		return fmt.Errorf("cluster: unknown dispatch mode %v", cfg.Dispatch)
	}
	return nil
}

// New builds a cluster. Workers are processors 0..Procs-1; dedicated
// sequencer machines, if requested, are the extra last processors (one per
// shard).
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Model
	if m == nil {
		m = model.Calibrated()
	}
	total := cfg.totalProcs()
	segs := cfg.segmentCount()

	// Conservative parallel execution partitions the pool by ether
	// locality: one partition per segment in the flat pool, one per
	// switch group in a hierarchy (segments under one leaf switch share
	// uplink state, so the group is the unit of parallelism). The engine
	// engages only when every cross-processor interaction flows through
	// ether frames — group communication, metrics, causal tracing, fault
	// injection and loss all keep the single-queue engine.
	fanIn := cfg.Topology.SwitchFanIn
	hier := fanIn > 0 && fanIn < segs
	partOfSeg := make([]int, segs)
	for i := range partOfSeg {
		if hier {
			partOfSeg[i] = i / fanIn
		} else {
			partOfSeg[i] = i
		}
	}
	parts := partOfSeg[segs-1] + 1
	partitioned := cfg.Par > 1 && parts > 1 && !cfg.Group && !cfg.Metrics &&
		cfg.Causal == nil && cfg.Faults == nil && cfg.FaultScenario == "" && cfg.LossRate == 0

	var sims []*sim.Sim
	if partitioned {
		sims = make([]*sim.Sim, parts)
		for i := range sims {
			sims[i] = sim.New()
		}
	} else {
		sims = []*sim.Sim{sim.New()}
	}
	s := sims[0]
	var reg *metrics.Registry
	if cfg.Metrics {
		reg = metrics.NewRegistry()
		s.SetMetrics(reg)
	}
	if cfg.Causal != nil {
		s.SetCausal(cfg.Causal)
	}
	c := &Cluster{
		Sim:   s,
		Model: m,
		Net: ether.NewWithTopology(s, m, ether.Topology{
			Segments:      segs,
			SwitchFanIn:   cfg.Topology.SwitchFanIn,
			UplinkLatency: cfg.Topology.UplinkLatency,
			UplinkMbps:    cfg.Topology.UplinkMbps,
		}, cfg.Seed),
		Metrics: reg,
		SeqProc: -1,
		cfg:     cfg,
	}
	if cfg.LossRate > 0 {
		c.Net.SetLossRate(cfg.LossRate)
	}
	if partitioned {
		segSims := make([]*sim.Sim, segs)
		for i := range segSims {
			segSims[i] = sims[partOfSeg[i]]
		}
		var upSims []*sim.Sim
		if hier {
			upSims = sims
		}
		c.Net.Partition(segSims, upSims)
		c.Par = sim.NewGroup(sims, c.Net.PartitionLookahead(), cfg.Par)
	}

	// Balanced contiguous placement: processor i on segment i*segs/total,
	// so every segment is populated and per-segment counts differ by at
	// most one. (The old i/8%segs formula stranded the whole pool on
	// segment 0 whenever the override exceeded ceil(total/8), and aliased
	// non-contiguously when it was smaller.)
	c.placement = cfg.Topology.Placement
	if c.placement == nil {
		c.placement = make([]int, total)
		if total > cfg.Procs && segs <= cfg.Procs {
			// Dedicated sequencer machines are the last processor ids; the
			// contiguous formula would rack them all on the final segment,
			// funneling every shard's request and data traffic through one
			// wire and its uplink. Balance the workers across all segments
			// and spread the sequencer machines evenly over them instead.
			for i := 0; i < cfg.Procs; i++ {
				c.placement[i] = i * segs / cfg.Procs
			}
			for sh := 0; sh < total-cfg.Procs; sh++ {
				c.placement[cfg.Procs+sh] = sh * segs / (total - cfg.Procs)
			}
		} else {
			for i := range c.placement {
				c.placement[i] = i * segs / total
			}
		}
	}

	shards := cfg.seqShards()
	groups := cfg.groupCount()
	var specs []panda.GroupSpec
	if cfg.Group {
		members := make([]int, cfg.Procs)
		for i := range members {
			members[i] = i
		}
		// Shard s runs on its own machine when dedicated, else on a
		// worker; co-located shards spread evenly over the pool so one
		// segment doesn't host every sequencer.
		c.SeqProcs = make([]int, shards)
		for sh := range c.SeqProcs {
			if cfg.DedicatedSequencer {
				c.SeqProcs[sh] = cfg.Procs + sh
			} else {
				c.SeqProcs[sh] = sh * cfg.Procs / shards
			}
		}
		if cfg.DedicatedSequencer {
			c.SeqProc = c.SeqProcs[0]
		}
		specs = make([]panda.GroupSpec, groups)
		for g := range specs {
			sh := g % shards
			kind := ""
			if shards > 1 {
				kind = fmt.Sprintf("group:s%d", sh)
			}
			specs[g] = panda.GroupSpec{
				GID:        g,
				Members:    members,
				Sequencer:  c.SeqProcs[sh],
				CausalKind: kind,
			}
		}
	}

	for i := 0; i < total; i++ {
		ps := s
		if partitioned {
			ps = sims[partOfSeg[c.placement[i]]]
		}
		p := proc.New(ps, m, i, fmt.Sprintf("cpu%d", i))
		c.Procs = append(c.Procs, p)
		if cfg.Mode == panda.Bypass {
			continue
		}
		k, err := akernel.New(p, c.Net, c.placement[i])
		if err != nil {
			return nil, fmt.Errorf("cluster: boot kernel %d: %w", i, err)
		}
		c.Kernels = append(c.Kernels, k)
	}

	for i := 0; i < cfg.Procs; i++ {
		tr, err := c.newTransport(i, specs)
		if err != nil {
			return nil, err
		}
		c.Transports = append(c.Transports, tr)
	}
	if cfg.DedicatedSequencer {
		// Each sequencer machine runs only the sequencer part of the group
		// protocol for its shard's groups: it is not a member.
		for sh := 0; sh < shards; sh++ {
			id := cfg.Procs + sh
			var owned []panda.GroupSpec
			for _, gs := range specs {
				if gs.Sequencer == id {
					owned = append(owned, gs)
				}
			}
			if cfg.Mode == panda.Bypass {
				if _, err := bypass.New(c.Procs[id], c.Net, c.placement[id], bypass.Config{
					Groups:   owned,
					Dispatch: cfg.Dispatch,
				}); err != nil {
					return nil, fmt.Errorf("cluster: bypass sequencer %d: %w", id, err)
				}
			} else {
				panda.NewUser(c.Kernels[id], panda.UserConfig{Groups: owned})
			}
		}
	}

	if cfg.WarmRoutes {
		stacks := make([]*flip.Stack, len(c.Kernels))
		for i, k := range c.Kernels {
			stacks[i] = k.FLIP()
		}
		flip.WarmRoutes(stacks)
	}

	// Arm fault injection last, once every NIC exists.
	sc := cfg.Faults
	if sc == nil && cfg.FaultScenario != "" {
		built, err := faults.Build(cfg.FaultScenario, faults.Shape{Procs: total, Segments: segs})
		if err != nil {
			return nil, err
		}
		sc = built
	}
	if sc != nil {
		c.Faults = faults.Arm(s, c.Net, sc, faultSeed(cfg))
	}
	return c, nil
}

// faultSeed resolves the fault RNG seed: explicit, or derived from the
// workload seed.
func faultSeed(cfg Config) uint64 {
	if cfg.FaultSeed != 0 {
		return cfg.FaultSeed
	}
	return faults.DeriveSeed(cfg.Seed)
}

func (c *Cluster) newTransport(i int, specs []panda.GroupSpec) (panda.Transport, error) {
	switch c.cfg.Mode {
	case panda.KernelSpace:
		return panda.NewKernel(c.Kernels[i], panda.KernelConfig{Groups: specs}), nil
	case panda.UserSpace:
		return panda.NewUser(c.Kernels[i], panda.UserConfig{
			Groups:          specs,
			NoPiggyback:     c.cfg.NoPiggyback,
			InterfaceDaemon: c.cfg.InterfaceDaemon,
		}), nil
	case panda.Bypass:
		return bypass.New(c.Procs[i], c.Net, c.placement[i], bypass.Config{
			Groups:   specs,
			Dispatch: c.cfg.Dispatch,
		})
	default:
		return nil, fmt.Errorf("cluster: unknown mode %v", c.cfg.Mode)
	}
}

// Run drives the simulation until no events remain.
func (c *Cluster) Run() {
	if c.Par != nil {
		c.Par.Run()
		return
	}
	c.Sim.Run()
}

// RunUntil drives the simulation up to the given instant.
func (c *Cluster) RunUntil(t sim.Time) {
	if c.Par != nil {
		c.Par.RunUntil(t)
		return
	}
	c.Sim.RunUntil(t)
}

// EventsRun reports the total scheduler events executed, summed over all
// partitions under parallel execution. The count is engine-independent
// (a cross-partition send costs exactly one event either way), so it is
// a deterministic, regression-gateable measure of simulation work.
func (c *Cluster) EventsRun() uint64 {
	if c.Par != nil {
		return c.Par.EventsRun()
	}
	return c.Sim.EventsRun()
}

// Partitions reports how many event-queue partitions the cluster runs on
// (1 on the single-queue engine).
func (c *Cluster) Partitions() int {
	if c.Par != nil {
		return len(c.Par.Parts())
	}
	return 1
}

// Shutdown terminates all simulated threads; call when done to avoid
// leaking goroutines across runs.
func (c *Cluster) Shutdown() {
	for _, p := range c.Procs {
		p.Shutdown()
	}
}

// Workers reports the number of worker processors (the pool minus the
// dedicated sequencer, if any).
func (c *Cluster) Workers() int { return c.cfg.Procs }

// SequencerProc reports the processor id running the first group
// sequencer shard: the dedicated machine when one was configured, member 0
// otherwise, and -1 when the cluster has no group communication at all.
func (c *Cluster) SequencerProc() int {
	if len(c.SeqProcs) == 0 {
		return -1
	}
	return c.SeqProcs[0]
}

// SequencerProcs reports the processor id of every sequencer shard, in
// shard order (nil without group communication).
func (c *Cluster) SequencerProcs() []int { return c.SeqProcs }

// Groups reports the number of communication groups the cluster was built
// with (0 without group communication).
func (c *Cluster) Groups() int {
	if !c.cfg.Group {
		return 0
	}
	return c.cfg.groupCount()
}

// Placement reports the segment hosting each processor, in processor
// order.
func (c *Cluster) Placement() []int { return c.placement }

// PlaceClients spreads n client processes round-robin over the worker
// processors (never the dedicated sequencer) and returns the processor id
// hosting each client. This is the population plumbing the workload engine
// builds on: client i of a population always lands on worker i mod Procs,
// independent of everything else in the configuration, so placements are
// stable across runs and modes.
func (c *Cluster) PlaceClients(n int) []int {
	if n < 1 {
		return nil
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i % c.cfg.Procs
	}
	return ids
}

// PlaceClientsAt places n clients round-robin starting at global client
// offset: client offset+i lands on worker (offset+i) mod Procs. Placing
// each class of a multi-tenant population contiguously with its
// cumulative offset therefore composes to exactly the placement
// PlaceClients would give the whole population at once.
func (c *Cluster) PlaceClientsAt(n, offset int) []int {
	if n < 1 {
		return nil
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (offset + i) % c.cfg.Procs
	}
	return ids
}

// Occupancy reports the fraction of the window that processor id spent
// busy (computing, at interrupt level, context switching, or spinning on
// a bypass completion queue), given a
// stats snapshot taken at the start of the window. This is how the
// workload engine measures sequencer and worker CPU occupancy.
func (c *Cluster) Occupancy(id int, atStart proc.Stats, window time.Duration) float64 {
	if window <= 0 || id < 0 || id >= len(c.Procs) {
		return 0
	}
	busy := c.Procs[id].Stats().Busy() - atStart.Busy()
	if busy < 0 {
		// A snapshot from a different (busier) processor would otherwise
		// report negative occupancy.
		return 0
	}
	return float64(busy) / float64(window)
}

// Stats aggregates processor statistics across the pool.
func (c *Cluster) Stats() proc.Stats {
	var total proc.Stats
	for _, p := range c.Procs {
		st := p.Stats()
		total.CtxSwitches += st.CtxSwitches
		total.ColdDispatches += st.ColdDispatches
		total.WarmDispatches += st.WarmDispatches
		total.DirectResumes += st.DirectResumes
		total.Preemptions += st.Preemptions
		total.Interrupts += st.Interrupts
		total.Traps += st.Traps
		total.Syscalls += st.Syscalls
		total.Locks += st.Locks
		total.ThreadsCreated += st.ThreadsCreated
		total.ThreadsDone += st.ThreadsDone
		total.ComputeTime += st.ComputeTime
		total.IntrTime += st.IntrTime
		total.SwitchTime += st.SwitchTime
		total.SpinTime += st.SpinTime
	}
	return total
}
