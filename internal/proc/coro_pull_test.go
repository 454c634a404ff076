//go:build go1.23

package proc

import (
	"reflect"
	"testing"

	"amoebasim/internal/sim"
)

// pullCoroAllocs budgets the first dispatch of a thread on NewCoro, which
// here is iter.Pull's: the coroutine and the closure around the thread's
// body, and what iter.Pull allocates (its runtime coroutine, the
// closures it returns and the state they share).
const pullCoroAllocs = 14

// TestChanCoroLockstep: on the seeded scenarios of
// TestBlockMatchesTwoParkBlock, threads on the channel-based coroutine
// run the same simulation as on iter.Pull's: the same log of (time,
// thread, action), the same processor counters and the same number of
// events.
func TestChanCoroLockstep(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		log, stats, events := blockScenario(seed)
		var chLog []string
		var chStats []Stats
		var chEvents uint64
		withCoro(sim.NewChanCoro, func() { chLog, chStats, chEvents = blockScenario(seed) })
		if !reflect.DeepEqual(log, chLog) {
			i := 0
			for i < len(log) && i < len(chLog) && log[i] == chLog[i] {
				i++
			}
			t.Fatalf("seed %d: logs differ at entry %d of %d/%d:\niter.Pull: %q\nchannels:  %q",
				seed, i, len(log), len(chLog), log[i:min(i+5, len(log))], chLog[i:min(i+5, len(chLog))])
		}
		if !reflect.DeepEqual(stats, chStats) {
			t.Fatalf("seed %d: stats %+v, channel coroutines give %+v", seed, stats, chStats)
		}
		if events != chEvents {
			t.Fatalf("seed %d: %d events, channel coroutines run %d", seed, events, chEvents)
		}
	}
}
