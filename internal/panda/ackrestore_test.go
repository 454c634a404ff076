package panda_test

import (
	"strings"
	"testing"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/trace"
)

// TestPiggybackAckRestoredOnFailedCall reproduces the lost-piggyback-ack
// bug: a successful call leaves a pending reply acknowledgement, the next
// call to the same server consumes it as a piggyback — and then fails.
// Without restoring the ack on the failure path the acknowledgement is
// gone for good (the request carrying it never provably arrived), so the
// server would retain its cached reply for the acknowledged call until
// some unrelated later call overwrites it. With the fix the failed call
// re-arms the pending ack, and once the server is back the ack timer
// sends it: the trace shows exactly one explicit ack, for call 1.
func TestPiggybackAckRestoredOnFailedCall(t *testing.T) {
	for _, mode := range []panda.Mode{panda.UserSpace, panda.Bypass} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, cluster.Config{Procs: 2, Mode: mode})
			log := trace.NewLog(0)
			c.Sim.SetTracer(log)
			echoServer(c.Transports[0])
			nic := rpcNIC(c, 0)
			var err1, err2 error
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				_, _, err1 = c.Transports[1].Call(th, 0, "a", 10)
				// Server vanishes; the next call piggybacks the pending ack
				// of call 1 on a request that will never provably arrive.
				nic.SetDown(true)
				_, _, err2 = c.Transports[1].Call(th, 0, "b", 10)
				nic.SetDown(false)
			})
			c.Run()

			if err1 != nil {
				t.Fatalf("first call failed: %v", err1)
			}
			if err2 == nil {
				t.Fatalf("second call to a dead server unexpectedly succeeded")
			}
			kind := map[panda.Mode]string{panda.UserSpace: "prpc.ack", panda.Bypass: "brpc.ack"}[mode]
			acks := log.Filter(kind)
			if len(acks) != 1 || !strings.Contains(acks[0].Detail, "seq=1 ") {
				t.Fatalf("%s events after the failed call: %v, want one for seq=1 (the consumed piggyback restored)", kind, acks)
			}
		})
	}
}
