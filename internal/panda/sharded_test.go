package panda_test

import (
	"testing"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// shardedTotalOrderCheck drives a multi-group pool whose groups are
// partitioned across sequencer shards: every member broadcasts on several
// groups, and delivery must be totally ordered within each group with
// strictly increasing per-group sequence numbers, independent of which
// shard sequences it.
func shardedTotalOrderCheck(t *testing.T, cfg cluster.Config, perSender int) {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	groups := c.Groups()
	procs := cfg.Procs
	// payload = gid*1e6 + sender*1e3 + j identifies (group, sender, msg);
	// the delivery upcall does not carry the group id.
	received := make([][][]int, procs)
	seqnos := make([][][]uint64, procs)
	for i := 0; i < procs; i++ {
		received[i] = make([][]int, groups)
		seqnos[i] = make([][]uint64, groups)
		i := i
		c.Transports[i].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
			v := payload.(int)
			gid := v / 1_000_000
			received[i][gid] = append(received[i][gid], v)
			seqnos[i][gid] = append(seqnos[i][gid], seqno)
		})
	}
	sent := make([]int, groups)
	for s := 0; s < procs; s++ {
		s := s
		tr := c.Transports[s]
		c.Procs[s].NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
			for j := 0; j < perSender; j++ {
				gid := (s + j) % groups
				if err := tr.GroupSendTo(th, gid, gid*1_000_000+s*1_000+j, 120); err != nil {
					t.Errorf("sender %d group %d msg %d: %v", s, gid, j, err)
					return
				}
			}
		})
		for j := 0; j < perSender; j++ {
			sent[(s+j)%groups]++
		}
	}
	c.Run()
	for g := 0; g < groups; g++ {
		for i := 0; i < procs; i++ {
			if len(received[i][g]) != sent[g] {
				t.Fatalf("member %d group %d received %d/%d", i, g, len(received[i][g]), sent[g])
			}
			for j := 1; j < len(seqnos[i][g]); j++ {
				if seqnos[i][g][j] <= seqnos[i][g][j-1] {
					t.Fatalf("member %d group %d seqno not increasing at %d: %v", i, g, j, seqnos[i][g])
				}
			}
			for j := range received[i][g] {
				if received[i][g][j] != received[0][g][j] {
					t.Fatalf("total order violated: member %d group %d index %d: %v vs %v",
						i, g, j, received[i][g], received[0][g])
				}
			}
		}
	}
	if got := len(c.SequencerProcs()); got != cfg.SeqShards {
		t.Fatalf("SequencerProcs() has %d shards, want %d", got, cfg.SeqShards)
	}
}

// TestShardedSequencerTotalOrderBothModes: groups routed to distinct
// co-located sequencer shards keep per-group total order in the kernel's
// protocol and in Panda's, in user space and under bypass.
func TestShardedSequencerTotalOrderBothModes(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			shardedTotalOrderCheck(t, cluster.Config{
				Procs: 6, Mode: mode, Group: true,
				SeqShards: 3, Groups: 6, Seed: 9,
			}, 5)
		})
	}
}

// TestShardedDedicatedSequencerTotalOrder: every shard on its own extra
// machine (the scaled-up "User-space-dedicated" configuration).
func TestShardedDedicatedSequencerTotalOrder(t *testing.T) {
	shardedTotalOrderCheck(t, cluster.Config{
		Procs: 4, Mode: panda.UserSpace, Group: true,
		DedicatedSequencer: true, SeqShards: 2, Groups: 4, Seed: 9,
	}, 4)
}

// TestShardedSequencerTotalOrderUnderLoss: shard routing survives packet
// loss — retransmission and watchdog recovery are per shard.
func TestShardedSequencerTotalOrderUnderLoss(t *testing.T) {
	for _, mode := range panda.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			shardedTotalOrderCheck(t, cluster.Config{
				Procs: 4, Mode: mode, Group: true,
				SeqShards: 2, Groups: 4, LossRate: 0.08, Seed: 7,
			}, 4)
		})
	}
}
