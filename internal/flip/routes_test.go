package flip

// The all-pairs route warm-up that the shared directory replaced, kept
// verbatim as an executable specification. The randomized equivalence
// test drives it in lockstep with WarmRoutes and demands identical
// routes, locates and invalidations.

import (
	"fmt"
	"testing"

	"amoebasim/internal/ether"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// warmRoutesAllPairs writes every registered address into every other
// stack's own route map: O(N²) map inserts for N stacks.
func warmRoutesAllPairs(stacks []*Stack) {
	for _, dst := range stacks {
		for a := range dst.local {
			for _, src := range stacks {
				if src != dst {
					src.routes[a] = dst.nic.ID()
				}
			}
		}
	}
}

// newMetricsRig is newRig with a metrics registry and one processor name
// per stack, so every stack's FLIP counters are its own series.
func newMetricsRig(t testing.TB, n, segments int) *rig {
	t.Helper()
	s := sim.New()
	s.SetMetrics(metrics.NewRegistry())
	m := model.Calibrated()
	net := ether.New(s, m, segments, 1)
	r := &rig{sim: s, net: net}
	for i := 0; i < n; i++ {
		p := proc.New(s, m, i, fmt.Sprintf("cpu%d", i))
		st, err := NewStack(p, net, i%segments)
		if err != nil {
			t.Fatal(err)
		}
		st.Handle(ProtoSystem, func(*Packet) {})
		r.procs = append(r.procs, p)
		r.stacks = append(r.stacks, st)
	}
	t.Cleanup(func() {
		for _, p := range r.procs {
			p.Shutdown()
		}
	})
	return r
}

// routeScript is one seeded sequence of route-relevant operations,
// replayed identically on two rigs.
type routeScript struct {
	rng    *sim.Rand
	stacks int
	addrs  int
}

// step applies one random operation to r and describes it. Every draw
// comes from the script's generator before r is touched, so the two rigs
// see the same operation.
func (sc *routeScript) step(r *rig, warm func([]*Stack)) string {
	i := sc.rng.Intn(sc.stacks)
	a := Address(1 + sc.rng.Intn(sc.addrs))
	st := r.stacks[i]
	switch op := sc.rng.Intn(10); op {
	case 0, 1:
		st.Register(a)
		return fmt.Sprintf("stack %d registers %d", i, a)
	case 2:
		st.Unregister(a)
		return fmt.Sprintf("stack %d unregisters %d", i, a)
	case 3:
		// Warm a random list of stacks, drawn with repeats: the order
		// decides which registrant of a shared address wins.
		list := make([]int, 1+sc.rng.Intn(sc.stacks+1))
		stacks := make([]*Stack, len(list))
		for k := range list {
			list[k] = sc.rng.Intn(sc.stacks)
			stacks[k] = r.stacks[list[k]]
		}
		warm(stacks)
		return fmt.Sprintf("warm %v", list)
	case 4, 5, 6:
		st.SendFromInterrupt(Message{Src: 1, Dst: a, Proto: ProtoSystem, MsgID: st.NextMsgID(), Size: 64})
		r.sim.Run()
		return fmt.Sprintf("stack %d sends to %d", i, a)
	case 7, 8:
		st.InvalidateRoute(a)
		return fmt.Sprintf("stack %d invalidates %d", i, a)
	default:
		// A HERE reply from an arbitrary NIC: the address moved there.
		from := sc.rng.Intn(sc.stacks)
		st.receive(&Packet{Kind: kindHere, Dst: a, srcNIC: r.stacks[from].NICID()})
		r.sim.Run()
		return fmt.Sprintf("stack %d hears %d is at NIC %d", i, a, from)
	}
}

// routeView is everything about a stack's routing the two warm-ups must
// agree on.
type routeView struct {
	routes        string
	locates       int64
	invalidations int64
	received      int64
}

func viewOf(st *Stack, addrs int) routeView {
	v := routeView{
		locates:       st.mx.locates.Value(),
		invalidations: st.mx.routeDrops.Value(),
		received:      st.RecvPackets,
	}
	for a := Address(1); a <= Address(addrs); a++ {
		if nic, ok := st.route(a); ok {
			v.routes += fmt.Sprintf("%d->%d ", a, nic)
		}
	}
	return v
}

// TestWarmRoutesMatchesAllPairs: seeded scripts of Register, Unregister,
// WarmRoutes over random lists of stacks, sends, InvalidateRoute, HERE replies
// from new NICs and late registrations give identical effective routes,
// locate counts and route invalidations whether the stacks were warmed
// with the shared directory or with the all-pairs reference. Addresses
// come from a space small enough that stacks often share one.
func TestWarmRoutesMatchesAllPairs(t *testing.T) {
	const scripts, steps = 150, 60
	for seed := uint64(1); seed <= scripts; seed++ {
		shape := sim.NewRand(seed)
		n := 2 + shape.Intn(5)
		addrs := 2 + shape.Intn(4)
		segments := 1 + shape.Intn(2)
		dirRig := newMetricsRig(t, n, segments)
		refRig := newMetricsRig(t, n, segments)
		dirScript := &routeScript{rng: sim.NewRand(seed * 7919), stacks: n, addrs: addrs}
		refScript := &routeScript{rng: sim.NewRand(seed * 7919), stacks: n, addrs: addrs}
		for step := 0; step < steps; step++ {
			what := dirScript.step(dirRig, WarmRoutes)
			refScript.step(refRig, warmRoutesAllPairs)
			for i := range dirRig.stacks {
				got, want := viewOf(dirRig.stacks[i], addrs), viewOf(refRig.stacks[i], addrs)
				if got != want {
					t.Fatalf("seed %d step %d (%s): stack %d diverged\n directory: %+v\n all-pairs: %+v",
						seed, step, what, i, got, want)
				}
			}
		}
	}
}
