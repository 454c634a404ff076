package bench

import (
	"fmt"
	"io"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/workload"
)

// ScalabilityStrategy is one sequencer organization of the scalability
// sweep: which Panda implementation runs it, how many sequencer shards
// the groups are partitioned across, and whether each shard gets a
// dedicated machine.
type ScalabilityStrategy struct {
	Label     string
	Shards    int
	Dedicated bool
	// Mode selects the implementation (zero: user-space, the paper's
	// subject).
	Mode panda.Mode
}

// ScalabilityStrategies are the sequencer organizations the sweep
// compares: the paper's single co-located sequencer, the same pool with
// the groups sharded across 8 co-located sequencers, 8 dedicated
// sequencer machines, and the kernel-bypass implementation at both ends
// of that spectrum.
func ScalabilityStrategies() []ScalabilityStrategy {
	return []ScalabilityStrategy{
		{"single", 1, false, panda.UserSpace},
		{"sharded", 8, false, panda.UserSpace},
		{"sharded-dedicated", 8, true, panda.UserSpace},
		{"bypass-single", 1, false, panda.Bypass},
		{"bypass-sharded-dedicated", 8, true, panda.Bypass},
	}
}

// QuickClusterSizes is the CI-scale cluster-size axis (worker counts).
var QuickClusterSizes = []int{16, 64, 256}

// ScalabilitySweepConfig describes a knee-vs-cluster-size sweep: for each
// (sequencer strategy, cluster size) cell, bisect to the saturation point
// of group traffic on a hierarchical multi-segment topology.
type ScalabilitySweepConfig struct {
	// Base is the workload shape (mix, sizes, window, seed). Procs, Mode,
	// SeqShards, DedicatedSequencer, Topology and OfferedLoad are filled
	// per cell. The default window is 200ms — long enough to span the
	// 100ms retransmission timeout and collect O(100) completions at the
	// knee, yet cheap enough for a CI knee search on large clusters.
	Base workload.Config
	// Sizes are the worker-pool sizes of the curve (nil: QuickClusterSizes).
	Sizes []int
	// Strategies restricts the sequencer organizations (nil: all three).
	Strategies []ScalabilityStrategy
	// SwitchFanIn is the segments-per-switch-group fan-in of the
	// hierarchical topology (default 8; <= 0 after defaulting keeps the
	// network flat).
	SwitchFanIn int
	// KneeLo / KneeHi bracket the knee search (defaults 100 / 1600; the
	// doubling phase extends the ceiling when a cell's knee is higher).
	KneeLo, KneeHi float64
	// KneeProbes is the bisection budget per cell (default 5).
	KneeProbes int
	// Workers bounds the pool (<= 0: DefaultWorkers).
	Workers int
}

// ScalabilityPoint is one (strategy, cluster size) cell: the resolved
// topology and the bisected knee.
type ScalabilityPoint struct {
	Strategy  string
	Procs     int // worker-pool size (dedicated sequencers excluded)
	Shards    int
	Dedicated bool
	Segments  int
	FanIn     int
	Knee      workload.Knee
}

// ScalabilitySweepResult is one full sweep in deterministic
// (strategy-major, size-minor) order. Bit-identical for any worker count.
type ScalabilitySweepResult struct {
	Config ScalabilitySweepConfig
	Points []ScalabilityPoint
	Jobs   []JobResult
	Wall   time.Duration
}

// ScalabilitySweep fans the knee searches out over the shared worker
// pool. Every cell owns its whole cluster and derives its seed from
// (base seed, strategy index, size index), so results are bit-identical
// at any -jobs N.
func ScalabilitySweep(cfg ScalabilitySweepConfig) (*ScalabilitySweepResult, error) {
	if cfg.Sizes == nil {
		cfg.Sizes = QuickClusterSizes
	}
	if cfg.Strategies == nil {
		cfg.Strategies = ScalabilityStrategies()
	}
	if cfg.SwitchFanIn == 0 {
		cfg.SwitchFanIn = 8
	}
	if cfg.KneeLo <= 0 {
		cfg.KneeLo = 100
	}
	if cfg.KneeHi <= cfg.KneeLo {
		cfg.KneeHi = 1600
	}
	if cfg.KneeProbes <= 0 {
		cfg.KneeProbes = 5
	}
	if cfg.Base.Seed == 0 {
		cfg.Base.Seed = 1
	}
	if cfg.Base.Window == 0 {
		cfg.Base.Window = 200 * time.Millisecond
	}

	res := &ScalabilitySweepResult{
		Config: cfg,
		Points: make([]ScalabilityPoint, len(cfg.Strategies)*len(cfg.Sizes)),
	}
	var jobs []Job
	for si, st := range cfg.Strategies {
		for zi, size := range cfg.Sizes {
			shards := st.Shards
			if shards > size {
				shards = size
			}
			c := cfg.Base
			c.Procs = size
			c.Mode = st.Mode
			if c.Mode == 0 {
				c.Mode = panda.UserSpace
			}
			c.DedicatedSequencer = st.Dedicated
			c.SeqShards = shards
			fanIn := cfg.SwitchFanIn
			c.Topology = &cluster.Topology{SwitchFanIn: fanIn}
			c.Seed = pointSeed(cfg.Base.Seed, si, zi)
			ccfg := cluster.Config{
				Procs: size, DedicatedSequencer: st.Dedicated,
				SeqShards: shards, Topology: *c.Topology,
			}
			pt := ScalabilityPoint{
				Strategy: st.Label, Procs: size, Shards: shards,
				Dedicated: st.Dedicated, Segments: ccfg.EffectiveSegments(),
				FanIn: fanIn,
			}
			slot := &res.Points[si*len(cfg.Sizes)+zi]
			jobs = append(jobs, Job{
				Name: fmt.Sprintf("scalability/%s/p=%d", st.Label, size),
				Run: func() error {
					k, err := workload.FindKnee(c, cfg.KneeLo, cfg.KneeHi, cfg.KneeProbes)
					if err != nil {
						return err
					}
					pt.Knee = k
					*slot = pt
					return nil
				},
			})
		}
	}

	start := time.Now()
	res.Jobs = RunPool(jobs, cfg.Workers)
	res.Wall = time.Since(start)
	if err := PoolErrors(res.Jobs); err != nil {
		return nil, err
	}
	return res, nil
}

// ScalabilitySchemaVersion identifies the SCALE_*.json layout.
const ScalabilitySchemaVersion = 1

// ScalabilityArtifact is the machine-readable scalability baseline
// (SCALE_*.json): one cell per (sequencer strategy, cluster size) with the
// bisected knee, plus the host's wall-clock accounting. Everything except
// GeneratedAt and Wall is a pure function of the configuration and seed.
type ScalabilityArtifact struct {
	SchemaVersion int               `json:"schema_version"`
	GeneratedAt   string            `json:"generated_at,omitempty" gate:"host"` // RFC 3339
	Seed          uint64            `json:"seed"`
	Mix           string            `json:"mix"`
	Dist          string            `json:"dist"`
	WindowMS      float64           `json:"window_ms"`
	SwitchFanIn   int               `json:"switch_fan_in"`
	Cells         []ScalabilityCell `json:"cells"`
	Wall          WallStats         `json:"wall" gate:"host"`
}

// ScalabilityCell is one (strategy, cluster size) knee.
type ScalabilityCell struct {
	Strategy    string  `json:"strategy"`
	Procs       int     `json:"procs"`
	Shards      int     `json:"shards"`
	Dedicated   bool    `json:"dedicated"`
	Segments    int     `json:"segments"`
	KneeOps     float64 `json:"knee_ops_per_sec"`
	Unsustained float64 `json:"unsustained_ops_per_sec"`
	Probes      int     `json:"probes"`
	Bracketed   bool    `json:"bracketed"`
}

// NewScalabilityArtifact flattens a sweep into the baseline layout.
// GeneratedAt is stamped with the current UTC time.
func NewScalabilityArtifact(res *ScalabilitySweepResult) *ScalabilityArtifact {
	base := res.Config.Base.WithDefaults()
	a := &ScalabilityArtifact{
		SchemaVersion: ScalabilitySchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Seed:          res.Config.Base.Seed,
		Mix:           base.Mix.String(),
		Dist:          base.Sizes.String(),
		WindowMS:      msFloat(base.Window),
		SwitchFanIn:   res.Config.SwitchFanIn,
	}
	for _, p := range res.Points {
		a.Cells = append(a.Cells, ScalabilityCell{
			Strategy: p.Strategy, Procs: p.Procs, Shards: p.Shards,
			Dedicated: p.Dedicated, Segments: p.Segments,
			KneeOps:     p.Knee.OpsPerSec,
			Unsustained: p.Knee.Unsustained,
			Probes:      p.Knee.Probes,
			Bracketed:   p.Knee.Bracketed,
		})
	}
	a.Wall = newWallStats(res.Config.Workers, res.Wall, res.Jobs)
	return a
}

// PrintScalability renders the knee-vs-cluster-size curves per strategy.
func PrintScalability(w io.Writer, res *ScalabilitySweepResult) {
	base := res.Config.Base.WithDefaults()
	fmt.Fprintf(w, "Scalability: mix=%s, dist=%s, window=%v, switch fan-in=%d\n",
		base.Mix, base.Sizes, base.Window, res.Config.SwitchFanIn)
	fmt.Fprintf(w, "%-18s %6s %7s %9s %9s %10s %7s\n",
		"strategy", "procs", "shards", "segments", "knee/s", "bracket", "probes")
	for _, p := range res.Points {
		bracket := "open"
		if p.Knee.Bracketed {
			bracket = fmt.Sprintf("[%.0f,%.0f]", p.Knee.OpsPerSec, p.Knee.Unsustained)
		}
		fmt.Fprintf(w, "%-18s %6d %7d %9d %9.0f %10s %7d\n",
			p.Strategy, p.Procs, p.Shards, p.Segments, p.Knee.OpsPerSec, bracket, p.Knee.Probes)
	}
}
