// Package faults is the deterministic fault-injection subsystem of the
// simulated pool. A Scenario is a declarative schedule of hardware
// misbehavior — timed NIC down/up events, switch-level partitions between
// Ethernet segments, burst loss windows, frame duplication, and bounded
// reordering — that an Injector arms against a running simulation.
//
// Everything is reproducible: the schedule is pure data, time windows are
// evaluated against the simulated clock, and every probabilistic element
// draws from one explicitly seeded generator consulted in deterministic
// event order. Two runs with the same cluster configuration, scenario and
// fault seed are byte-identical; with no scenario armed the network
// behaves exactly as before the subsystem existed.
package faults

import (
	"fmt"
	"time"

	"amoebasim/internal/ether"
	"amoebasim/internal/metrics"
	"amoebasim/internal/sim"
)

// Window is a half-open interval [From, Until) of simulated time during
// which a fault clause is active.
type Window struct {
	From  time.Duration
	Until time.Duration
}

// Contains reports whether instant t falls inside the window.
func (w Window) Contains(t sim.Time) bool {
	return t >= sim.Time(w.From) && t < sim.Time(w.Until)
}

// NICEvent takes one processor's network interface down or brings it back
// up at a point in time.
type NICEvent struct {
	Proc int
	At   time.Duration
	Down bool
}

// Partition severs the switch path between two sets of segments for a
// window: no frame is forwarded from a segment in A to one in B or vice
// versa. Traffic within each side, and between segments not listed, is
// unaffected — exactly the semantics of pulling the inter-switch link.
type Partition struct {
	Window
	A, B []int
}

func (p Partition) severs(src, dst int) bool {
	return (contains(p.A, src) && contains(p.B, dst)) ||
		(contains(p.B, src) && contains(p.A, dst))
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Loss drops each frame delivery with probability Rate during the window
// (burst loss, on top of any uniform ether loss rate).
type Loss struct {
	Window
	Rate float64
}

// Duplication delivers each frame twice with probability Rate during the
// window, exercising the protocols' duplicate filters.
type Duplication struct {
	Window
	Rate float64
}

// Reorder holds each frame delivery back by a uniform extra delay in
// (0, MaxDelay] with probability Rate during the window, so it can arrive
// after frames sent later (bounded reordering).
type Reorder struct {
	Window
	Rate     float64
	MaxDelay time.Duration
}

// Scenario is one declarative fault schedule.
type Scenario struct {
	Name        string
	Description string

	NICEvents  []NICEvent
	Partitions []Partition
	Losses     []Loss
	Dups       []Duplication
	Reorders   []Reorder
}

// Horizon reports the instant after which the scenario injects nothing:
// the end of the last window or timed event. Soak harnesses use it to
// size workloads so recovery is actually exercised after the last fault.
func (sc *Scenario) Horizon() time.Duration {
	var h time.Duration
	max := func(d time.Duration) {
		if d > h {
			h = d
		}
	}
	for _, e := range sc.NICEvents {
		max(e.At)
	}
	for _, p := range sc.Partitions {
		max(p.Until)
	}
	for _, l := range sc.Losses {
		max(l.Until)
	}
	for _, d := range sc.Dups {
		max(d.Until)
	}
	for _, r := range sc.Reorders {
		max(r.Until)
	}
	return h
}

// Injector arms a Scenario against one simulation: it implements
// ether.FaultHook for the window-based clauses and schedules the timed
// NIC events. Create one with Arm.
type Injector struct {
	sim *sim.Sim
	net *ether.Network
	sc  *Scenario
	rng *sim.Rand

	// stats counts what the injector did; it is registered as the
	// scenario's metrics when a registry is attached.
	stats injectorStats
}

// injectorStats is the injector's accounting (labeled by scenario).
type injectorStats struct {
	dropsBurst metrics.Counter `metric:"faults.frames_dropped,cause=burst"`
	dropsPart  metrics.Counter `metric:"faults.frames_dropped,cause=partition"`
	dups       metrics.Counter `metric:"faults.frames_duplicated"`
	delays     metrics.Counter `metric:"faults.frames_delayed"`
	nicEvents  metrics.Counter `metric:"faults.nic_events"`
}

var _ ether.FaultHook = (*Injector)(nil)

// Arm installs sc on net and schedules its timed events on s. The seed
// drives every probabilistic clause; it is independent of the workload
// seed so the same fault pattern can be replayed under different
// workloads. NIC events referring to processors the cluster does not have
// are ignored, so one scenario fits any pool size.
func Arm(s *sim.Sim, net *ether.Network, sc *Scenario, seed uint64) *Injector {
	inj := &Injector{sim: s, net: net, sc: sc, rng: sim.NewRand(seed)}
	s.Metrics().Register(&inj.stats, metrics.L("scenario", sc.Name))
	net.SetFaultHook(inj)
	for _, ev := range sc.NICEvents {
		ev := ev
		if ev.Proc < 0 || ev.Proc >= net.NICs() {
			continue
		}
		s.Schedule(ev.At, func() {
			inj.stats.nicEvents.Inc()
			state := "up"
			if ev.Down {
				state = "down"
			}
			s.Trace("faults", "faults.nic", "nic=%d %s", ev.Proc, state)
			net.NIC(ev.Proc).SetDown(ev.Down)
		})
	}
	return inj
}

// Scenario returns the armed schedule.
func (inj *Injector) Scenario() *Scenario { return inj.sc }

// Stats reports how many frame deliveries each clause affected.
func (inj *Injector) Stats() (dropsBurst, dropsPartition, dups, delays int64) {
	st := &inj.stats
	return st.dropsBurst.Value(), st.dropsPart.Value(), st.dups.Value(), st.delays.Value()
}

// ForwardCut implements ether.FaultHook: partitions sever the switch.
func (inj *Injector) ForwardCut(at sim.Time, src, dst int) bool {
	for _, p := range inj.sc.Partitions {
		if p.Contains(at) && p.severs(src, dst) {
			inj.stats.dropsPart.Inc()
			return true
		}
	}
	return false
}

// FrameFate implements ether.FaultHook: burst loss, duplication and
// bounded reordering, evaluated in that fixed order so the RNG draw
// sequence is deterministic.
func (inj *Injector) FrameFate(at sim.Time, fr ether.Frame, dst int) ether.Fate {
	var f ether.Fate
	for _, l := range inj.sc.Losses {
		if l.Contains(at) && inj.rng.Float64() < l.Rate {
			inj.stats.dropsBurst.Inc()
			f.Drop = true
			return f
		}
	}
	for _, d := range inj.sc.Dups {
		if d.Contains(at) && inj.rng.Float64() < d.Rate {
			inj.stats.dups.Inc()
			f.Dup = true
			break
		}
	}
	for _, r := range inj.sc.Reorders {
		if r.Contains(at) && inj.rng.Float64() < r.Rate {
			inj.stats.delays.Inc()
			// Uniform in (0, MaxDelay], quantized to µs for readable traces.
			us := r.MaxDelay.Microseconds()
			if us < 1 {
				us = 1
			}
			f.Delay = time.Duration(1+inj.rng.Intn(int(us))) * time.Microsecond
			break
		}
	}
	return f
}

// DeriveSeed maps a workload seed to the default fault seed, keeping the
// two RNG streams decorrelated when the user does not pick one explicitly.
func DeriveSeed(workload uint64) uint64 {
	return sim.NewRand(workload ^ 0xFA177FA177).Uint64()
}

// String renders a short human-readable summary of the schedule.
func (sc *Scenario) String() string {
	return fmt.Sprintf("%s: %s (%d nic events, %d partitions, %d loss, %d dup, %d reorder windows; horizon %v)",
		sc.Name, sc.Description,
		len(sc.NICEvents), len(sc.Partitions), len(sc.Losses), len(sc.Dups), len(sc.Reorders),
		sc.Horizon())
}
