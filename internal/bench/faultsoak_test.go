package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"amoebasim/internal/faults"
	"amoebasim/internal/panda"
)

var soakModes = panda.AllModes()

// TestFaultSoakScenarios runs the verified RPC + group workload under
// every shipped scenario in every implementation: all calls must complete
// with correct echoes, and the scenario must demonstrably have injected
// its class of fault.
func TestFaultSoakScenarios(t *testing.T) {
	active := map[string]func(FaultSoakResult) bool{
		// A downed interface that carries no traffic also drops frames:
		// only a retransmitted call shows the flap reached the server.
		"nic-flap":   func(r FaultSoakResult) bool { return rpcRetransmissions(r) > 0 },
		"partition":  func(r FaultSoakResult) bool { return r.DropsPartition > 0 },
		"burst-loss": func(r FaultSoakResult) bool { return r.DropsBurst > 0 },
		"dup-storm":  func(r FaultSoakResult) bool { return r.Dups > 0 },
		"reorder":    func(r FaultSoakResult) bool { return r.Delays > 0 },
		"chaos": func(r FaultSoakResult) bool {
			return r.DropsBurst > 0 && r.DropsPartition > 0 && r.Dups > 0 && r.Delays > 0
		},
	}
	for _, name := range faults.Names() {
		for _, mode := range soakModes {
			res, err := RunFaultSoakRPC(name, mode, 5, 0xC0FFEE)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			if res.Mismatches != 0 || res.Unrecovered != 0 {
				t.Errorf("%s/%s: %d mismatched echoes, %d unrecovered calls",
					name, mode, res.Mismatches, res.Unrecovered)
			}
			if res.Calls == 0 || res.GroupSends == 0 {
				t.Errorf("%s/%s: workload did not run (calls=%d group=%d)",
					name, mode, res.Calls, res.GroupSends)
			}
			if !active[name](res) {
				t.Errorf("%s/%s: scenario injected nothing (burst=%d part=%d dup=%d delay=%d net=%d)",
					name, mode, res.DropsBurst, res.DropsPartition, res.Dups, res.Delays, res.NetDrops)
			}
		}
	}
}

// rpcRetransmissions sums the RPC retransmissions of every layer in the
// soak's metrics (akernel.* in kernel space, panda.* otherwise).
func rpcRetransmissions(r FaultSoakResult) int64 {
	var n int64
	for _, c := range r.Metrics.Counters {
		if strings.HasSuffix(c.Name, ".rpc_retransmissions") {
			n += c.Value
		}
	}
	return n
}

// TestFaultSoakDeterminism: a soak run is a pure function of (scenario,
// mode, workload seed, fault seed) — byte-identical metrics and equal
// elapsed time across runs; a different fault seed perturbs the injection.
func TestFaultSoakDeterminism(t *testing.T) {
	for _, mode := range soakModes {
		a, err := RunFaultSoakRPC("chaos", mode, 5, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunFaultSoakRPC("chaos", mode, 5, 11)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a.Metrics)
		bj, _ := json.Marshal(b.Metrics)
		if !bytes.Equal(aj, bj) {
			t.Errorf("%s: same seeds, different metrics snapshots", mode)
		}
		if a.Elapsed != b.Elapsed {
			t.Errorf("%s: same seeds, elapsed %v vs %v", mode, a.Elapsed, b.Elapsed)
		}

		c, err := RunFaultSoakRPC("chaos", mode, 5, 12)
		if err != nil {
			t.Fatal(err)
		}
		if c.DropsBurst == a.DropsBurst && c.Dups == a.Dups && c.Delays == a.Delays {
			t.Errorf("%s: different fault seed produced identical injection (%d/%d/%d)",
				mode, c.DropsBurst, c.Dups, c.Delays)
		}
	}
}

// TestFaultSoakApps runs every test-scale Orca application under fault
// scenarios in every implementation, checking each answer against a clean
// run. The chaos scenario (which exercises every fault class at once) and
// nic-flap always run; the remaining scenarios are skipped in -short mode.
func TestFaultSoakApps(t *testing.T) {
	scenarios := []string{"chaos", "nic-flap"}
	if !testing.Short() {
		scenarios = faults.Names()
	}
	for _, name := range scenarios {
		for _, mode := range soakModes {
			results, err := RunFaultSoakApps(name, mode, 5, 0xC0FFEE)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			if len(results) == 0 {
				t.Fatalf("%s/%s: no app results", name, mode)
			}
		}
	}
}
