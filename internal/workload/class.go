package workload

// This file is the multi-tenant layer: the engine's population is a list
// of classes — interactive front-ends, heavy-tailed batch feeds, bursty
// crawlers — each with its own operation mix, size distribution, arrival
// process, think time, load shape and SLO, so one run models the
// heterogeneous traffic a production pool actually serves instead of the
// paper's single homogeneous population.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"amoebasim/internal/sim"
)

// ShapeKind selects how a class's offered load is modulated over time.
type ShapeKind int

const (
	// SteadyShape applies no modulation (the default).
	SteadyShape ShapeKind = iota
	// BurstyShape alternates on/off phases: within each Period the class
	// spends Duty of the cycle at a rate Amplitude times its off-phase
	// rate, normalized so the cycle-average rate equals the configured
	// load.
	BurstyShape
	// DiurnalShape modulates the rate sinusoidally over Period with
	// relative swing Amplitude (mean-preserving over whole cycles) — a
	// compressed day/night curve inside the measurement window.
	DiurnalShape
)

func (k ShapeKind) String() string {
	switch k {
	case BurstyShape:
		return "bursty"
	case DiurnalShape:
		return "diurnal"
	default:
		return "steady"
	}
}

// LoadShape modulates a class's arrival (and think-time) rate over
// simulated time. The modulation is deterministic and mean-preserving over
// whole cycles: each drawn gap is divided by the instantaneous intensity,
// so bursts compress arrivals and troughs stretch them without changing
// the cycle-average offered load.
type LoadShape struct {
	Kind ShapeKind
	// Period is the full on/off or diurnal cycle (default 1/4 of the
	// measurement window, so a default run sees several cycles).
	Period time.Duration
	// Duty is the bursty on-phase fraction of the period in (0, 1)
	// (default 0.25; ignored by the other kinds).
	Duty float64
	// Amplitude is the bursty on/off rate ratio (> 1, default 8) or the
	// diurnal relative swing in (0, 1) (default 0.8).
	Amplitude float64
}

func (s LoadShape) String() string {
	switch s.Kind {
	case BurstyShape:
		return fmt.Sprintf("bursty:%v:%g:%g", s.period(0), s.duty(), s.amplitude())
	case DiurnalShape:
		return fmt.Sprintf("diurnal:%v:%g", s.period(0), s.amplitude())
	default:
		return "steady"
	}
}

func (s LoadShape) duty() float64 {
	if s.Duty == 0 {
		return 0.25
	}
	return s.Duty
}

func (s LoadShape) amplitude() float64 {
	if s.Amplitude == 0 {
		if s.Kind == DiurnalShape {
			return 0.8
		}
		return 8
	}
	return s.Amplitude
}

func (s LoadShape) period(window time.Duration) time.Duration {
	if s.Period > 0 {
		return s.Period
	}
	if window > 0 {
		return window / 4
	}
	return 100 * time.Millisecond
}

func (s LoadShape) validate() error {
	switch s.Kind {
	case SteadyShape:
		return nil
	case BurstyShape:
		if s.Period < 0 {
			return fmt.Errorf("workload: negative shape period %v", s.Period)
		}
		if d := s.duty(); !finite(d) || d <= 0 || d >= 1 {
			return fmt.Errorf("workload: bursty duty %g outside (0, 1)", d)
		}
		if a := s.amplitude(); !finite(a) || a <= 1 {
			return fmt.Errorf("workload: bursty amplitude %g must exceed 1 (on/off rate ratio)", a)
		}
		return nil
	case DiurnalShape:
		if s.Period < 0 {
			return fmt.Errorf("workload: negative shape period %v", s.Period)
		}
		if a := s.amplitude(); !finite(a) || a <= 0 || a >= 1 {
			return fmt.Errorf("workload: diurnal amplitude %g outside (0, 1)", a)
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown load shape %d", s.Kind)
	}
}

// intensity is the instantaneous rate multiplier at simulated time t,
// with cycle average 1. window resolves a defaulted period.
func (s LoadShape) intensity(t, window time.Duration) float64 {
	switch s.Kind {
	case BurstyShape:
		p := s.period(window)
		f, r := s.duty(), s.amplitude()
		// off-phase rate b solves f·(r·b) + (1-f)·b = 1.
		b := 1 / (f*r + 1 - f)
		phase := float64(t%p) / float64(p)
		if phase < f {
			return r * b
		}
		return b
	case DiurnalShape:
		p := s.period(window)
		phase := float64(t%p) / float64(p)
		return 1 + s.amplitude()*math.Sin(2*math.Pi*phase)
	default:
		return 1
	}
}

// ParseShape accepts steady, bursty[:PERIOD[:DUTY[:AMP]]] or
// diurnal[:PERIOD[:AMP]] (PERIOD a Go duration; omitted fields keep their
// defaults).
func ParseShape(s string) (LoadShape, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	var shape LoadShape
	switch parts[0] {
	case "", "steady":
		if len(parts) > 1 {
			return LoadShape{}, fmt.Errorf("workload: steady shape takes no parameters")
		}
		return LoadShape{}, nil
	case "bursty":
		shape.Kind = BurstyShape
		if len(parts) > 4 {
			return LoadShape{}, fmt.Errorf("workload: bad bursty shape %q (want bursty[:PERIOD[:DUTY[:AMP]]])", s)
		}
	case "diurnal":
		shape.Kind = DiurnalShape
		if len(parts) > 3 {
			return LoadShape{}, fmt.Errorf("workload: bad diurnal shape %q (want diurnal[:PERIOD[:AMP]])", s)
		}
	default:
		return LoadShape{}, fmt.Errorf("workload: unknown load shape %q (steady, bursty, diurnal)", parts[0])
	}
	if len(parts) > 1 && parts[1] != "" {
		p, err := time.ParseDuration(parts[1])
		if err != nil || p <= 0 {
			return LoadShape{}, fmt.Errorf("workload: bad shape period %q", parts[1])
		}
		shape.Period = p
	}
	var nums []string
	if len(parts) > 2 {
		nums = parts[2:]
	}
	dst := []*float64{&shape.Amplitude}
	if shape.Kind == BurstyShape {
		dst = []*float64{&shape.Duty, &shape.Amplitude}
	}
	for i, raw := range nums {
		if raw == "" {
			continue // keep the default for this position
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || !finite(v) {
			return LoadShape{}, fmt.Errorf("workload: bad shape parameter %q", raw)
		}
		*dst[i] = v
	}
	if err := shape.validate(); err != nil {
		return LoadShape{}, err
	}
	return shape, nil
}

// Class is one client class of a multi-tenant population.
type Class struct {
	// Name identifies the class in reports, artifacts and traces.
	Name string
	// Clients is the class population size.
	Clients int
	// OfferedLoad is the class's open-loop rate in ops/sec. When
	// Config.OfferedLoad is positive (the sweep axis), class loads are
	// relative shares rescaled so the population total matches it;
	// otherwise they are absolute rates.
	OfferedLoad float64
	// ThinkTime is the closed-loop mean think time (default
	// Config.ThinkTime).
	ThinkTime time.Duration
	// Arrival shapes the class's interarrival (open) / think (closed)
	// distribution.
	Arrival ArrivalSpec
	// Mix is the class's operation mix (default Config.Mix).
	Mix Mix
	// Sizes is the class's message-size distribution (default
	// Config.Sizes).
	Sizes SizeDist
	// SLO is the class's latency objective: a completed operation meets
	// the SLO when its latency is at most this (0: no objective; the
	// class reports vacuous 100% attainment).
	SLO time.Duration
	// Shape modulates the class's load over the window.
	Shape LoadShape
}

func (c Class) validate(procs int) error {
	if strings.TrimSpace(c.Name) == "" {
		return fmt.Errorf("workload: class with empty name")
	}
	if c.Clients < 1 {
		return fmt.Errorf("workload: class %s needs at least 1 client, got %d", c.Name, c.Clients)
	}
	if !finite(c.OfferedLoad) || c.OfferedLoad < 0 {
		return fmt.Errorf("workload: class %s has bad offered load %g (want a finite, non-negative number)", c.Name, c.OfferedLoad)
	}
	if c.ThinkTime < 0 {
		return fmt.Errorf("workload: class %s has negative think time %v", c.Name, c.ThinkTime)
	}
	if c.SLO < 0 {
		return fmt.Errorf("workload: class %s has negative SLO %v", c.Name, c.SLO)
	}
	if err := c.Arrival.validate(); err != nil {
		return fmt.Errorf("class %s: %w", c.Name, err)
	}
	if err := c.Mix.validate(); err != nil {
		return fmt.Errorf("class %s: %w", c.Name, err)
	}
	if err := c.Sizes.validate(); err != nil {
		return fmt.Errorf("class %s: %w", c.Name, err)
	}
	if err := c.Shape.validate(); err != nil {
		return fmt.Errorf("class %s: %w", c.Name, err)
	}
	if (c.Mix.RPC > 0 || c.Mix.Read > 0) && procs < 2 {
		return fmt.Errorf("workload: class %s has point-to-point operations but fewer than 2 workers", c.Name)
	}
	return nil
}

// classSeed derives class ci's private RNG root so that no two classes —
// and no class and knee probe — share a stream for any (seed, index) pair.
func classSeed(seed uint64, ci int) uint64 {
	return sim.MixSeed(seed^seedSalt, uint64(ci))
}

// resolveClasses produces the fully-defaulted population: the legacy
// single-population fields synthesize one "default" class, and per-class
// zero fields inherit the config-wide ones. Offered loads are resolved to
// absolute ops/sec: when cfg.OfferedLoad is positive the class loads act
// as relative shares (equal-weight across class populations when none are
// given), rescaled so the total matches cfg.OfferedLoad.
func resolveClasses(cfg Config) []Class {
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = []Class{{
			Name:        "default",
			Clients:     cfg.Clients,
			OfferedLoad: cfg.OfferedLoad,
			ThinkTime:   cfg.ThinkTime,
			Arrival:     ArrivalSpec{Kind: cfg.Arrival, Shape: cfg.ArrivalShape},
			Mix:         cfg.Mix,
			Sizes:       cfg.Sizes,
			Shape:       cfg.Shape,
		}}
	}
	out := make([]Class, len(classes))
	var loadSum float64
	var clientSum int
	for i, c := range classes {
		if c.Clients == 0 {
			c.Clients = 2
		}
		if c.ThinkTime == 0 {
			c.ThinkTime = cfg.ThinkTime
		}
		if c.Mix == (Mix{}) {
			c.Mix = cfg.Mix
		}
		if c.Sizes == (SizeDist{}) {
			c.Sizes = cfg.Sizes
		}
		if c.Shape.Kind == SteadyShape && cfg.Shape.Kind != SteadyShape {
			c.Shape = cfg.Shape
		}
		out[i] = c
		loadSum += c.OfferedLoad
		clientSum += c.Clients
	}
	if cfg.OfferedLoad > 0 {
		// Rescale shares to the config-wide target (the knee/sweep axis).
		for i := range out {
			share := float64(out[i].Clients) / float64(clientSum)
			if loadSum > 0 {
				share = out[i].OfferedLoad / loadSum
			}
			out[i].OfferedLoad = cfg.OfferedLoad * share
		}
	}
	return out
}

// ResolvedClasses returns the fully-defaulted multi-tenant population the
// configuration would run: the legacy single-population fields synthesize
// one "default" class, per-class zero fields inherit the config-wide
// ones, and relative load shares are rescaled to Config.OfferedLoad when
// it is set.
func (cfg Config) ResolvedClasses() []Class {
	return resolveClasses(cfg.withDefaults())
}

// totalClients sums the resolved population.
func totalClients(classes []Class) int {
	n := 0
	for _, c := range classes {
		n += c.Clients
	}
	return n
}

// totalOffered sums the resolved absolute offered loads.
func totalOffered(classes []Class) float64 {
	var l float64
	for _, c := range classes {
		l += c.OfferedLoad
	}
	return l
}

// ParseClasses accepts a semicolon-separated multi-tenant population spec:
//
//	name:key=val,key=val;name:key=val,...
//
// with keys clients, load (ops/sec share or absolute), mix (a named mix or
// a +-joined op=weight list), dist, arrival (poisson|uniform|fixed|gamma:K
// |weibull:K), think, slo (Go durations) and shape (steady|bursty:...|
// diurnal:...). A leading @ loads the same fields from a JSON file (see
// LoadClassesFile).
func ParseClasses(s string) ([]Class, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if strings.HasPrefix(s, "@") {
		return LoadClassesFile(strings.TrimPrefix(s, "@"))
	}
	var classes []Class
	seen := make(map[string]bool)
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("workload: empty class entry in %q", s)
		}
		name, body, ok := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("workload: bad class entry %q (want name:key=val,...)", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("workload: duplicate class %q", name)
		}
		seen[name] = true
		c := Class{Name: name, Clients: 2}
		for _, kv := range strings.Split(body, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("workload: class %s: bad element %q (want key=val)", name, kv)
			}
			if err := c.set(strings.TrimSpace(k), v); err != nil {
				return nil, err
			}
		}
		classes = append(classes, c)
	}
	return classes, nil
}

// set parses v, the value of class key k, into c: the one parser and check
// of each key, for inline specs and class files alike.
func (c *Class) set(k, v string) error {
	v = strings.TrimSpace(v)
	var err error
	switch k {
	case "clients":
		c.Clients, err = strconv.Atoi(v)
		if err != nil || c.Clients < 1 {
			return fmt.Errorf("workload: class %s: bad clients %q", c.Name, v)
		}
	case "load":
		c.OfferedLoad, err = strconv.ParseFloat(v, 64)
		if err != nil || !finite(c.OfferedLoad) || c.OfferedLoad < 0 {
			return fmt.Errorf("workload: class %s: bad load %q", c.Name, v)
		}
	case "mix":
		// A custom mix joins op=weight pairs with + because , separates
		// class keys.
		c.Mix, err = ParseMix(strings.ReplaceAll(v, "+", ","))
	case "dist":
		c.Sizes, err = ParseSizeDist(v)
	case "arrival":
		c.Arrival, err = ParseArrivalSpec(v)
	case "think":
		c.ThinkTime, err = time.ParseDuration(v)
		if err != nil || c.ThinkTime < 0 {
			return fmt.Errorf("workload: class %s: bad think time %q", c.Name, v)
		}
	case "slo":
		c.SLO, err = time.ParseDuration(v)
		if err != nil || c.SLO < 0 {
			return fmt.Errorf("workload: class %s: bad slo %q", c.Name, v)
		}
	case "shape":
		c.Shape, err = ParseShape(v)
	default:
		return fmt.Errorf("workload: class %s: unknown key %q (clients, load, mix, dist, arrival, think, slo, shape)", c.Name, k)
	}
	if err != nil {
		return fmt.Errorf("class %s: %w", c.Name, err)
	}
	return nil
}

// classFile is the JSON form of one class (all fields optional except
// name; each string is one value in the syntax of its ParseClasses key).
type classFile struct {
	Name    string  `json:"name"`
	Clients int     `json:"clients"`
	Load    float64 `json:"load"`
	Mix     string  `json:"mix"`
	Dist    string  `json:"dist"`
	Arrival string  `json:"arrival"`
	Think   string  `json:"think"`
	SLO     string  `json:"slo"`
	Shape   string  `json:"shape"`
}

// LoadClassesFile reads a JSON array of class specs (the committed
// scenario format):
//
//	[{"name": "interactive", "clients": 6, "load": 500, "mix": "rpc",
//	  "dist": "fixed:128", "arrival": "poisson", "slo": "4ms"}, ...]
func LoadClassesFile(path string) ([]Class, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: read class spec: %w", err)
	}
	classes, err := decodeClasses(b)
	if err != nil {
		return nil, fmt.Errorf("workload: class spec %s: %w", path, err)
	}
	return classes, nil
}

// decodeClasses builds one class from each element of a JSON class array,
// field by field: a value is parsed as its key's value only, so it can
// neither set another key nor add a class. A name is kept exactly.
func decodeClasses(b []byte) ([]Class, error) {
	var raw []classFile
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	classes := make([]Class, 0, len(raw))
	seen := make(map[string]bool)
	for _, r := range raw {
		if strings.TrimSpace(r.Name) == "" {
			return nil, fmt.Errorf("workload: class with empty name")
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("workload: duplicate class %q", r.Name)
		}
		seen[r.Name] = true
		c := Class{Name: r.Name, Clients: 2}
		fields := [...]struct{ k, v string }{
			{"clients", ""}, {"load", ""},
			{"mix", r.Mix}, {"dist", r.Dist}, {"arrival", r.Arrival},
			{"think", r.Think}, {"slo", r.SLO}, {"shape", r.Shape},
		}
		if r.Clients != 0 {
			fields[0].v = strconv.Itoa(r.Clients)
		}
		if r.Load != 0 {
			fields[1].v = strconv.FormatFloat(r.Load, 'g', -1, 64)
		}
		for _, f := range fields {
			if f.v == "" {
				continue // absent: the key's default
			}
			if err := c.set(f.k, f.v); err != nil {
				return nil, err
			}
		}
		classes = append(classes, c)
	}
	return classes, nil
}

// ClassesString renders a resolved population canonically (for artifacts
// and reports).
func ClassesString(classes []Class) string {
	var parts []string
	for _, c := range classes {
		kv := []string{fmt.Sprintf("clients=%d", c.Clients)}
		if c.OfferedLoad > 0 {
			kv = append(kv, fmt.Sprintf("load=%g", c.OfferedLoad))
		}
		kv = append(kv,
			"mix="+strings.ReplaceAll(c.Mix.String(), ",", "+"),
			"dist="+c.Sizes.String(),
			"arrival="+c.Arrival.String())
		if c.ThinkTime > 0 {
			kv = append(kv, fmt.Sprintf("think=%v", c.ThinkTime))
		}
		if c.SLO > 0 {
			kv = append(kv, fmt.Sprintf("slo=%v", c.SLO))
		}
		if c.Shape.Kind != SteadyShape {
			kv = append(kv, "shape="+c.Shape.String())
		}
		parts = append(parts, c.Name+":"+strings.Join(kv, ","))
	}
	return strings.Join(parts, ";")
}
