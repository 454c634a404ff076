package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"amoebasim/internal/sim"
)

// Arrival selects the interarrival (open loop) or think-time (closed loop)
// distribution.
type Arrival int

const (
	// Poisson draws exponential interarrival times (a memoryless open
	// stream, the default).
	Poisson Arrival = iota
	// UniformArrival draws uniform interarrival times in [0, 2·mean).
	UniformArrival
	// FixedArrival paces arrivals exactly mean apart.
	FixedArrival
	// GammaArrival draws Gamma(k, mean/k) interarrival times: k < 1 is
	// burstier than Poisson (heavy-tailed gaps with clustered arrivals),
	// k > 1 smoother, k = 1 exactly exponential.
	GammaArrival
	// WeibullArrival draws Weibull interarrival times with shape k and the
	// scale chosen to preserve the mean: k < 1 is heavy-tailed (the
	// ServeGen-style production shape), k = 1 exponential.
	WeibullArrival
)

func (a Arrival) String() string {
	switch a {
	case UniformArrival:
		return "uniform"
	case FixedArrival:
		return "fixed"
	case GammaArrival:
		return "gamma"
	case WeibullArrival:
		return "weibull"
	default:
		return "poisson"
	}
}

// ArrivalSpec is an arrival process with its shape parameter. Shape is the
// Gamma/Weibull shape k (ignored by the other kinds; 0 defaults to 1,
// which makes both exactly exponential).
type ArrivalSpec struct {
	Kind  Arrival
	Shape float64
}

func (s ArrivalSpec) String() string {
	if s.Kind == GammaArrival || s.Kind == WeibullArrival {
		return fmt.Sprintf("%s:%g", s.Kind, s.shape())
	}
	return s.Kind.String()
}

func (s ArrivalSpec) shape() float64 {
	if s.Shape == 0 {
		return 1
	}
	return s.Shape
}

// finite reports whether v is neither NaN nor infinite. Every rate,
// weight and shape parameter of a workload spec must be: NaN passes any
// sign check, since every comparison with it is false.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (s ArrivalSpec) validate() error {
	switch s.Kind {
	case Poisson, UniformArrival, FixedArrival:
		return nil
	case GammaArrival, WeibullArrival:
		if !finite(s.Shape) || s.shape() <= 0 {
			return fmt.Errorf("workload: %s arrival needs a positive shape, got %g", s.Kind, s.Shape)
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown arrival process %d", s.Kind)
	}
}

// draw produces one interarrival time with the given mean. The result is
// floored at 1ns so an arrival process always advances.
func (s ArrivalSpec) draw(r *sim.Rand, mean time.Duration) time.Duration {
	var d time.Duration
	switch s.Kind {
	case UniformArrival:
		d = time.Duration(2 * r.Float64() * float64(mean))
	case FixedArrival:
		d = mean
	case GammaArrival:
		k := s.shape()
		d = time.Duration(gammaDraw(r, k) * float64(mean) / k)
	case WeibullArrival:
		k := s.shape()
		// Inversion with the scale λ = mean/Γ(1+1/k), so the configured
		// mean is the distribution's mean for every shape.
		u := r.Float64()
		d = time.Duration(math.Pow(-math.Log(1-u), 1/k) * float64(mean) / math.Gamma(1+1/k))
	default: // Poisson
		u := r.Float64()
		d = time.Duration(-math.Log(1-u) * float64(mean))
	}
	if d < 1 {
		d = 1
	}
	return d
}

// normDraw is one standard-normal variate (Box–Muller; two uniforms per
// draw keeps the stream consumption deterministic).
func normDraw(r *sim.Rand) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// gammaDraw samples Gamma(k, 1) with Marsaglia–Tsang squeeze-and-reject
// (boosted through Gamma(k+1)·U^(1/k) for k < 1). The rejection loop
// consumes a variable number of uniforms, which is fine: every draw comes
// from one client's private seeded stream.
func gammaDraw(r *sim.Rand, k float64) float64 {
	if k < 1 {
		u := r.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		return gammaDraw(r, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := normDraw(r)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// ParseArrival accepts poisson, uniform or fixed (the shapeless processes;
// kept for the legacy single-population flags).
func ParseArrival(s string) (Arrival, error) {
	spec, err := ParseArrivalSpec(s)
	if err != nil {
		return 0, err
	}
	return spec.Kind, nil
}

// ParseArrivalSpec accepts poisson, uniform, fixed, gamma:K or weibull:K
// (K the positive shape parameter; both reduce to poisson at K=1).
func ParseArrivalSpec(s string) (ArrivalSpec, error) {
	kind, arg, hasArg := strings.Cut(strings.TrimSpace(s), ":")
	spec := ArrivalSpec{}
	switch kind {
	case "", "poisson":
		spec.Kind = Poisson
	case "uniform":
		spec.Kind = UniformArrival
	case "fixed":
		spec.Kind = FixedArrival
	case "gamma":
		spec.Kind = GammaArrival
	case "weibull":
		spec.Kind = WeibullArrival
	default:
		return ArrivalSpec{}, fmt.Errorf("workload: unknown arrival process %q (poisson, uniform, fixed, gamma:K, weibull:K)", s)
	}
	if hasArg {
		if spec.Kind != GammaArrival && spec.Kind != WeibullArrival {
			return ArrivalSpec{}, fmt.Errorf("workload: arrival %q takes no shape parameter", kind)
		}
		k, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
		if err != nil || k <= 0 {
			return ArrivalSpec{}, fmt.Errorf("workload: bad %s shape %q (want a positive number)", kind, arg)
		}
		spec.Shape = k
	}
	if err := spec.validate(); err != nil {
		return ArrivalSpec{}, err
	}
	return spec, nil
}
