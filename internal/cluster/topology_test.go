package cluster

import (
	"strings"
	"testing"
	"time"

	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// segmentCounts tallies how many of the given processors sit on each
// segment.
func segmentCounts(placement []int, from, to, segments int) []int {
	counts := make([]int, segments)
	for _, seg := range placement[from:to] {
		counts[seg]++
	}
	return counts
}

func minMax(counts []int) (min, max int) {
	min, max = counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return
}

// TestDefaultPlacementBalanced is the regression test for the placement
// aliasing bug: the old i/8%segs formula stranded the whole pool on
// segment 0 whenever the segment override exceeded ceil(total/8). The
// default placement must populate every segment with per-segment counts
// differing by at most one.
func TestDefaultPlacementBalanced(t *testing.T) {
	cases := []struct {
		name     string
		procs    int
		segments int
	}{
		{"paper pool", 32, 0},            // 4 segments of 8
		{"override above default", 4, 4}, // old formula: everyone on segment 0
		{"uneven", 10, 4},
		{"one per segment", 6, 6},
		{"large", 256, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Procs: tc.procs, Mode: panda.UserSpace, Segments: tc.segments})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			segs := c.Net.Segments()
			counts := segmentCounts(c.Placement(), 0, tc.procs, segs)
			min, max := minMax(counts)
			if min == 0 {
				t.Fatalf("placement leaves a segment empty: %v", counts)
			}
			if max-min > 1 {
				t.Fatalf("placement unbalanced: per-segment counts %v", counts)
			}
			// Contiguous: processor order never jumps back a segment.
			for i := 1; i < tc.procs; i++ {
				if c.Placement()[i] < c.Placement()[i-1] {
					t.Fatalf("placement not contiguous at proc %d: %v", i, c.Placement())
				}
			}
		})
	}
}

// TestDedicatedShardPlacementSpread: dedicated sequencer machines are the
// last processor ids, which the contiguous formula would rack onto the
// final segment, funneling every shard's traffic through one wire. The
// default placement must keep the workers balanced and spread the
// sequencer machines across segments.
func TestDedicatedShardPlacementSpread(t *testing.T) {
	const procs, shards = 16, 4
	c, err := New(Config{
		Procs: procs, Mode: panda.UserSpace, Group: true,
		DedicatedSequencer: true, SeqShards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	segs := c.Net.Segments()
	if segs < 2 {
		t.Fatalf("want a multi-segment pool, got %d segments", segs)
	}
	p := c.Placement()
	if len(p) != procs+shards {
		t.Fatalf("placement covers %d processors, want %d", len(p), procs+shards)
	}
	workers := segmentCounts(p, 0, procs, segs)
	if min, max := minMax(workers); min == 0 || max-min > 1 {
		t.Fatalf("worker placement unbalanced: %v", workers)
	}
	seq := segmentCounts(p, procs, procs+shards, segs)
	if _, max := minMax(seq); max == shards {
		t.Fatalf("all %d sequencer machines on one segment: %v", shards, seq)
	}
	if _, max := minMax(seq); max > (shards+segs-1)/segs {
		t.Fatalf("sequencer machines bunched: %v", seq)
	}
}

// TestShardedSequencerProcs: co-located shards spread over the worker
// pool; dedicated shards each own one of the extra machines.
func TestShardedSequencerProcs(t *testing.T) {
	c, err := New(Config{Procs: 8, Mode: panda.UserSpace, Group: true, SeqShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if got, want := c.SequencerProcs(), []int{0, 2, 4, 6}; len(got) != len(want) {
		t.Fatalf("SequencerProcs() = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SequencerProcs() = %v, want %v", got, want)
			}
		}
	}
	if c.Groups() != 4 {
		t.Fatalf("Groups() = %d, want the shard count 4", c.Groups())
	}

	d, err := New(Config{Procs: 4, Mode: panda.UserSpace, Group: true,
		DedicatedSequencer: true, SeqShards: 2, Groups: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if got := d.SequencerProcs(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("dedicated SequencerProcs() = %v, want [4 5]", got)
	}
	if d.Groups() != 6 {
		t.Fatalf("Groups() = %d, want explicit 6", d.Groups())
	}
	// Clients never land on any sequencer machine.
	for _, id := range d.PlaceClients(23) {
		if id >= 4 {
			t.Fatalf("client placed on sequencer machine %d", id)
		}
	}
}

// TestValidateRejectsBadTopology: overrides the builder cannot honor must
// be rejected up front, not silently bent.
func TestValidateRejectsBadTopology(t *testing.T) {
	base := Config{Procs: 4, Mode: panda.UserSpace, Group: true}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"placement wrong length", func(c *Config) {
			c.Topology.Placement = []int{0}
		}, "placement names 1 processors"},
		{"placement out of range", func(c *Config) {
			c.Topology.Placement = []int{0, 0, 0, 9}
		}, "outside [0, 1)"},
		{"placement empty segment", func(c *Config) {
			c.Segments = 2
			c.Topology.Placement = []int{0, 0, 0, 0}
		}, "leaves segment 1 empty"},
		{"segment fields conflict", func(c *Config) {
			c.Segments = 2
			c.Topology.Segments = 3
		}, "conflicts"},
		{"more segments than processors", func(c *Config) {
			c.Segments = 5
		}, "would be empty"},
		{"negative fan-in", func(c *Config) {
			c.Topology.SwitchFanIn = -1
		}, "negative switch fan-in"},
		{"negative uplink latency", func(c *Config) {
			c.Topology.UplinkLatency = -time.Microsecond
		}, "negative uplink latency"},
		{"negative uplink rate", func(c *Config) {
			c.Topology.UplinkMbps = -1
		}, "negative uplink rate"},
		{"shards without group", func(c *Config) {
			c.Group = false
			c.SeqShards = 2
		}, "require group communication"},
		{"more shards than workers", func(c *Config) {
			c.SeqShards = 5
		}, "exceed 4 workers"},
		{"fewer groups than shards", func(c *Config) {
			c.SeqShards = 3
			c.Groups = 2
		}, "leave some of 3 sequencer shards idle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
			if _, err := New(cfg); err == nil {
				t.Fatalf("New accepted a config Validate rejects")
			}
		})
	}
	// An explicit placement that is honorable must be honored verbatim.
	cfg := base
	cfg.Segments = 2
	cfg.Topology.Placement = []int{1, 0, 1, 0}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for i, want := range cfg.Topology.Placement {
		if c.Placement()[i] != want {
			t.Fatalf("explicit placement not honored: %v", c.Placement())
		}
	}
}

// TestOccupancyEdgeCases: the occupancy probe must degrade to zero on
// nonsense inputs rather than reporting garbage fractions.
func TestOccupancyEdgeCases(t *testing.T) {
	c, err := New(Config{Procs: 2, Mode: panda.UserSpace})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	c.Run()
	var zero proc.Stats
	if got := c.Occupancy(0, zero, 0); got != 0 {
		t.Fatalf("zero window occupancy = %g, want 0", got)
	}
	if got := c.Occupancy(0, zero, -time.Second); got != 0 {
		t.Fatalf("negative window occupancy = %g, want 0", got)
	}
	if got := c.Occupancy(-1, zero, time.Second); got != 0 {
		t.Fatalf("negative id occupancy = %g, want 0", got)
	}
	if got := c.Occupancy(len(c.Procs), zero, time.Second); got != 0 {
		t.Fatalf("out-of-range id occupancy = %g, want 0", got)
	}
	// A snapshot from a busier processor must clamp, not go negative.
	busier := proc.Stats{ComputeTime: 24 * time.Hour}
	if got := c.Occupancy(0, busier, time.Second); got != 0 {
		t.Fatalf("mismatched snapshot occupancy = %g, want 0", got)
	}
	// Sanity: a real snapshot over a generous window stays in [0, 1].
	if got := c.Occupancy(0, zero, 24*time.Hour); got < 0 || got > 1 {
		t.Fatalf("occupancy %g outside [0, 1]", got)
	}
}
