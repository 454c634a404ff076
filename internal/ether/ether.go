// Package ether models the 10 Mbit/s Ethernet of the Amoeba processor
// pool: one or more shared segments, each serializing frames at wire speed,
// connected by a store-and-forward switch. Multicast is a hardware
// broadcast, as on real Ethernet, so it floods every segment. Contention is
// modeled as FIFO serialization per segment (no collision backoff); an
// optional uniform loss rate supports protocol fault-injection tests.
//
// Beyond the paper's flat single-switch pool, a Topology with SwitchFanIn
// smaller than the segment count builds a two-level hierarchy: segments are
// grouped under leaf switches joined by a backbone, with one
// store-and-forward uplink per group that serializes traffic at its own
// rate and adds latency. Multicast then costs one copy per crossed level —
// sibling segments fan out at the leaf switch, a single copy climbs the
// source uplink, and the backbone replicates it down each other group's
// uplink — instead of a free flood of every cable.
package ether

import (
	"fmt"
	"strconv"
	"time"

	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/sim"
)

// Broadcast is the destination address for multicast/broadcast frames.
const Broadcast = -1

// Frame is one Ethernet frame. Size is the Ethernet payload length in
// bytes (protocol headers + data, excluding the MAC header, which the
// network adds). Payload carries the simulated packet content by reference.
type Frame struct {
	Src     int // source NIC id
	Dst     int // destination NIC id, or Broadcast
	Size    int
	Payload any
	// Op is the causally traced operation the frame belongs to (0: none);
	// each store-and-forward hop attributes its wire time to it.
	Op uint64
}

// Receiver is the upcall invoked (in driver context) when a frame arrives
// at a NIC. Implementations typically wrap proc.Processor.Interrupt.
type Receiver func(fr Frame)

// Fate is a fault layer's verdict on one frame delivery attempt: drop it,
// deliver it twice (duplication), and/or hold it for an extra bounded
// delay (reordering against later traffic). The zero Fate is a normal
// delivery.
type Fate struct {
	Drop  bool
	Dup   bool
	Delay time.Duration
}

// FaultHook lets a fault-injection layer (internal/faults) intervene at
// the two points the hardware can misbehave: the store-and-forward switch
// between segments, and the final delivery to a NIC. A nil hook (the
// default) keeps the wire ideal apart from the uniform LossRate. The hook
// is consulted in deterministic event order, so a seeded implementation
// reproduces byte-identically.
type FaultHook interface {
	// ForwardCut reports whether the switch path from segment src to dst
	// is severed at instant at (a network partition). The local segment
	// is never consulted: stations on one cable always hear each other.
	ForwardCut(at sim.Time, src, dst int) bool
	// FrameFate decides the fate of the delivery of fr to NIC dst
	// arriving at instant at.
	FrameFate(at sim.Time, fr Frame, dst int) Fate
}

// NIC is one network interface attached to a segment.
type NIC struct {
	id   int
	seg  *Segment
	net  *Network
	rx   Receiver
	down bool

	txFrames int64
	txBytes  int64
	rxFrames int64
	rxBytes  int64
}

// Segment is one shared Ethernet cable.
type Segment struct {
	id        int
	sm        *sim.Sim // partition simulator owning this segment
	busyUntil sim.Time
	nics      []*NIC

	frames int64
	bytes  int64

	// hops is the free list of delivery records (see hop) shared by the
	// segments of this segment's partition.
	hops *hopPool

	mx *segMetrics // nil when metrics are disabled
}

// segMetrics bundles one segment's metrics (labeled by segment).
type segMetrics struct {
	frames metrics.Counter `metric:"ether.segment_frames"`
	busyUS metrics.Counter `metric:"ether.segment_busy_us"`
	queued metrics.Counter `metric:"ether.frames_queued"`
}

// hop is a pooled record for one scheduled step of a frame: the flat
// pool's switch forward onto segment on, the delivery to one NIC, or the
// coalesced fault-free broadcast delivery to every NIC of on. Its
// callback is bound once, so scheduling a step allocates nothing once
// the pool is warm. A record is taken from the pool of the partition
// whose event schedules the step and returned to the pool of the
// partition it fires on; each pool is therefore touched only by events of
// its own partition, and partitioned execution needs no locks. All the
// segments of one partition share its pool, so a broadcast's forwards
// return their records to the pool they came from.
type hop struct {
	n    *Network
	kind hopKind
	fr   Frame
	on   *Segment // segment the step fires on
	from *Segment // forward: segment the frame was sent on
	nic  *NIC     // deliver: the receiver; flood: the sender, skipped
	at   sim.Time // forward: instant the frame left the source segment
	fire func()   // run, bound once
}

type hopKind uint8

const (
	hopForward hopKind = iota
	hopDeliver
	hopFlood
)

// hopPool is the free list of one partition's hop records.
type hopPool struct {
	free []*hop
}

// maxPooledHops bounds a partition's free list. Records drift from
// partitions that send more forwards than they receive to the others, so
// without a bound a one-way stream would grow its receiver's pool
// forever; past it, a returned record is left to the garbage collector.
// Within one partition records never drift.
const maxPooledHops = 256

// schedule fires a step of the given kind on segment on at instant at,
// from an event running on segment from's partition.
func (n *Network) schedule(kind hopKind, from, on *Segment, at sim.Time, fr Frame, nic *NIC) {
	var h *hop
	if p := from.hops; len(p.free) > 0 {
		h = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	} else {
		h = &hop{n: n}
		h.fire = h.run
	}
	h.kind, h.fr, h.on, h.from, h.nic, h.at = kind, fr, on, from, nic, at
	from.sm.ScheduleOn(on.sm, at, h.fire)
}

// run performs the step, recycling the record into the pool of the
// partition it fired on first, so the step's own sends can reuse it.
func (h *hop) run() {
	x := *h
	h.fr, h.from, h.nic = Frame{}, nil, nil
	if p := x.on.hops; len(p.free) < maxPooledHops {
		p.free = append(p.free, h)
	}
	switch x.kind {
	case hopForward:
		x.n.forward(x.from, x.on, x.fr, x.at)
	case hopDeliver:
		x.n.deliverTo(x.nic, x.fr)
	case hopFlood:
		for _, dst := range x.on.nics {
			if dst != x.nic {
				x.n.deliverTo(dst, x.fr)
			}
		}
	}
}

// Topology describes the pool interconnect shape. The zero value (or any
// SwitchFanIn not strictly between 0 and Segments) is the paper's flat
// pool: every segment on one switch. A smaller SwitchFanIn groups segments
// under leaf switches connected by a backbone through per-group uplinks.
type Topology struct {
	// Segments is the number of shared Ethernet cables (minimum 1).
	Segments int
	// SwitchFanIn is how many segments share one leaf switch. 0, or any
	// value >= Segments, keeps the flat single-switch pool.
	SwitchFanIn int
	// UplinkLatency is the store-and-forward latency added per uplink
	// crossing (default DefaultUplinkLatency when hierarchical).
	UplinkLatency time.Duration
	// UplinkMbps is the uplink serialization rate in Mbit/s (default
	// DefaultUplinkMbps when hierarchical).
	UplinkMbps float64
}

// Default uplink parameters: a switched 100 Mbit/s backbone tier above the
// 10 Mbit/s shared segments, with store-and-forward latency per crossing.
const (
	DefaultUplinkLatency = 20 * time.Microsecond
	DefaultUplinkMbps    = 100.0
)

// uplink is the store-and-forward link joining one switch group to the
// backbone. Like a Segment it is a serial resource: frames queue behind
// earlier traffic for their transmission time, then pay the link latency.
type uplink struct {
	group     int
	sm        *sim.Sim // partition simulator owning this switch group
	busyUntil sim.Time

	frames int64
	bytes  int64

	mx *uplinkMetrics // nil when metrics are disabled
}

// uplinkMetrics bundles one uplink's metrics (labeled by switch group).
type uplinkMetrics struct {
	frames metrics.Counter `metric:"ether.uplink_frames"`
	busyUS metrics.Counter `metric:"ether.uplink_busy_us"`
}

// Network is the full pool interconnect: segments plus a switch, or — in
// hierarchical mode — leaf switches over segment groups joined by uplinks.
type Network struct {
	sim       *sim.Sim
	m         *model.CostModel
	segments  []*Segment
	nics      []*NIC
	rng       *sim.Rand
	lossRate  float64
	fault     FaultHook
	faultEver bool // a hook was installed at some point (sticky)

	// Hierarchical mode (uplinks non-nil): fanIn segments per leaf switch,
	// one uplink per group, upPerByte ns of uplink serialization per byte.
	fanIn     int
	uplinks   []*uplink
	upLatency time.Duration
	upPerByte float64

	dropped int64

	mx *netMetrics // nil when metrics are disabled
}

// netMetrics bundles the network-wide metrics; the single pointer keeps
// hot-path sites at one branch.
type netMetrics struct {
	framesSent   metrics.Counter `metric:"ether.frames_sent"`
	bytesSent    metrics.Counter `metric:"ether.bytes_sent"`
	framesRecv   metrics.Counter `metric:"ether.frames_recv"`
	dropsDown    metrics.Counter `metric:"ether.frames_dropped,cause=nic_down"`
	dropsLoss    metrics.Counter `metric:"ether.frames_dropped,cause=loss"`
	segForwarded metrics.Counter `metric:"ether.frames_forwarded"`
}

// New creates a network with the given number of segments. NICs are added
// with AddNIC and assigned to segments round-robin by segment index given
// at AddNIC time.
func New(s *sim.Sim, m *model.CostModel, segments int, seed uint64) *Network {
	if segments < 1 {
		segments = 1
	}
	n := &Network{sim: s, m: m, rng: sim.NewRand(seed)}
	pool := &hopPool{}
	reg := s.Metrics()
	if reg != nil {
		n.mx = new(netMetrics)
		reg.Register(n.mx)
	}
	for i := 0; i < segments; i++ {
		seg := &Segment{id: i, sm: s, hops: pool}
		if reg != nil {
			seg.mx = new(segMetrics)
			reg.Register(seg.mx, metrics.L("seg", strconv.Itoa(i)))
		}
		n.segments = append(n.segments, seg)
	}
	return n
}

// NewWithTopology creates a network with an explicit interconnect shape.
// A non-hierarchical Topology behaves exactly like New.
func NewWithTopology(s *sim.Sim, m *model.CostModel, topo Topology, seed uint64) *Network {
	n := New(s, m, topo.Segments, seed)
	segs := len(n.segments)
	if topo.SwitchFanIn <= 0 || topo.SwitchFanIn >= segs {
		return n // flat single-switch pool
	}
	n.fanIn = topo.SwitchFanIn
	n.upLatency = topo.UplinkLatency
	if n.upLatency <= 0 {
		n.upLatency = DefaultUplinkLatency
	}
	mbps := topo.UplinkMbps
	if mbps <= 0 {
		mbps = DefaultUplinkMbps
	}
	n.upPerByte = 8000.0 / mbps // ns per byte at mbps Mbit/s
	groups := (segs + n.fanIn - 1) / n.fanIn
	for g := 0; g < groups; g++ {
		u := &uplink{group: g, sm: s}
		if reg := s.Metrics(); reg != nil {
			u.mx = new(uplinkMetrics)
			reg.Register(u.mx, metrics.L("uplink", strconv.Itoa(g)))
		}
		n.uplinks = append(n.uplinks, u)
	}
	return n
}

// Hierarchical reports whether the network runs the two-level topology.
func (n *Network) Hierarchical() bool { return n.uplinks != nil }

// Partition assigns each segment (and, hierarchically, each switch
// group's uplink) to a partition simulator for conservative parallel
// execution: segment state is then only touched from events running on
// its own simulator, and the switch's cross-segment forwards become
// cross-partition ScheduleOn sends. segSim must have one entry per
// segment; upSim one per switch group (ignored when flat). In a
// hierarchy every segment of one switch group must map to that group's
// uplink simulator — the group is the unit of parallelism. The segments
// of one simulator share one pool of hop records.
func (n *Network) Partition(segSim, upSim []*sim.Sim) {
	if len(segSim) != len(n.segments) {
		panic(fmt.Sprintf("ether: Partition with %d segment sims for %d segments", len(segSim), len(n.segments)))
	}
	pools := make(map[*sim.Sim]*hopPool)
	for i, seg := range n.segments {
		seg.sm = segSim[i]
		if pools[seg.sm] == nil {
			pools[seg.sm] = &hopPool{}
		}
		seg.hops = pools[seg.sm]
	}
	if n.uplinks == nil {
		return
	}
	if len(upSim) != len(n.uplinks) {
		panic(fmt.Sprintf("ether: Partition with %d uplink sims for %d switch groups", len(upSim), len(n.uplinks)))
	}
	for g, u := range n.uplinks {
		u.sm = upSim[g]
		for _, seg := range n.groupSegments(g) {
			if seg.sm != u.sm {
				panic(fmt.Sprintf("ether: segment %d not on its switch group %d's simulator", seg.id, g))
			}
		}
	}
}

// PartitionLookahead returns a lower bound on the simulated delay of any
// cross-partition interaction, computable statically from the topology
// and cost model: in the flat pool the switch forwards a frame only
// after its full transmission on the source segment (at least one
// minimum-size frame time); in a hierarchy every cross-group hop is a
// ScheduleOn issued at least the uplink latency before it lands. This is
// the conservative window size for sim.NewGroup.
func (n *Network) PartitionLookahead() time.Duration {
	if n.uplinks != nil {
		return n.upLatency
	}
	return n.m.WireTime(0)
}

// SwitchGroups returns the number of leaf switch groups (1 when flat).
func (n *Network) SwitchGroups() int {
	if n.uplinks == nil {
		return 1
	}
	return len(n.uplinks)
}

// UplinkFrames reports total frames carried by switch group g's uplink.
func (n *Network) UplinkFrames(g int) int64 { return n.uplinks[g].frames }

// SetLossRate sets the probability that any single frame delivery is
// dropped. Zero (the default) is a reliable wire.
func (n *Network) SetLossRate(rate float64) { n.lossRate = rate }

// SetFaultHook installs a fault-injection hook (nil removes it). Arming
// a hook at any point permanently marks the network as fault-prone (see
// FaultEverArmed) — a duplicating hook delivers one frame payload
// pointer twice, so single-owner payload recycling must stay off for the
// network's whole lifetime once any hook has existed.
func (n *Network) SetFaultHook(h FaultHook) {
	n.fault = h
	if h != nil {
		n.faultEver = true
	}
}

// FaultEverArmed reports whether a fault hook was ever installed.
// Payload-pooling layers (internal/flip) consult it to fall back to
// garbage-collected packets on fault-injected networks.
func (n *Network) FaultEverArmed() bool { return n.faultEver }

// Dropped reports how many deliveries the loss injector discarded.
func (n *Network) Dropped() int64 { return n.dropped }

// Segments returns the number of segments.
func (n *Network) Segments() int { return len(n.segments) }

// AddNIC attaches a new NIC to the given segment and returns it. The NIC id
// equals its index in creation order, which upper layers use as the
// station address.
func (n *Network) AddNIC(segment int, rx Receiver) (*NIC, error) {
	if segment < 0 || segment >= len(n.segments) {
		return nil, fmt.Errorf("ether: segment %d out of range [0,%d)", segment, len(n.segments))
	}
	nic := &NIC{id: len(n.nics), seg: n.segments[segment], net: n, rx: rx}
	n.nics = append(n.nics, nic)
	nic.seg.nics = append(nic.seg.nics, nic)
	return nic, nil
}

// NIC returns the NIC with the given id.
func (n *Network) NIC(id int) *NIC { return n.nics[id] }

// NICs returns the number of attached NICs.
func (n *Network) NICs() int { return len(n.nics) }

// ID returns the NIC's station address.
func (c *NIC) ID() int { return c.id }

// SegmentID returns the id of the segment the NIC is attached to.
func (c *NIC) SegmentID() int { return c.seg.id }

// Stats reports frames/bytes transmitted and received by this NIC.
func (c *NIC) Stats() (txFrames, txBytes, rxFrames, rxBytes int64) {
	return c.txFrames, c.txBytes, c.rxFrames, c.rxBytes
}

// SetDown takes the interface offline (failure injection): it neither
// transmits nor receives until brought back up. Frames in flight are
// unaffected; frames arriving while down are lost, as on real hardware.
func (c *NIC) SetDown(down bool) { c.down = down }

// Down reports whether the interface is offline.
func (c *NIC) Down() bool { return c.down }

// Send transmits a frame from this NIC. The frame occupies the local
// segment for its wire time (queuing behind earlier frames); the switch
// forwards it to other segments as needed (store-and-forward). Unicast to a
// NIC on the same segment stays local; Broadcast floods all segments.
func (c *NIC) Send(fr Frame) {
	if c.down {
		return
	}
	fr.Src = c.id
	c.txFrames++
	c.txBytes += int64(fr.Size)
	n := c.net
	if n.mx != nil {
		n.mx.framesSent.Inc()
		n.mx.bytesSent.Add(int64(fr.Size))
	}
	arrive := n.transmitOn(c.seg, fr)

	// Local deliveries.
	n.deliverOnSegment(c.seg, fr, arrive, c)

	// Switch forwarding. Forwards to another segment land on that
	// segment's partition simulator (ScheduleOn — a plain ScheduleAt when
	// unpartitioned); the lookahead bound holds because arrive is at least
	// one full frame transmission past now.
	if fr.Dst == Broadcast {
		if n.uplinks != nil {
			n.broadcastHier(c.seg, fr, arrive)
			return
		}
		for _, seg := range n.segments {
			if seg != c.seg {
				n.schedule(hopForward, c.seg, seg, arrive, fr, nil)
			}
		}
		return
	}
	dst := n.nicByID(fr.Dst)
	if dst == nil || dst.seg == c.seg {
		return
	}
	if n.uplinks != nil {
		n.unicastHier(c.seg, dst.seg, fr, arrive)
		return
	}
	n.schedule(hopForward, c.seg, dst.seg, arrive, fr, nil)
}

// forward completes one store-and-forward pass of the flat pool's switch:
// unless a partition severs the path, the frame that left segment src at
// instant arrive is transmitted on dst and delivered to its stations.
func (n *Network) forward(src, dst *Segment, fr Frame, arrive sim.Time) {
	if n.fault != nil && n.fault.ForwardCut(arrive, src.id, dst.id) {
		return
	}
	if n.mx != nil {
		n.mx.segForwarded.Inc()
	}
	a2 := n.transmitOn(dst, fr)
	n.deliverOnSegment(dst, fr, a2, nil)
}

// segGroup returns the switch group of a segment (hierarchical mode only).
func (n *Network) segGroup(seg int) int { return seg / n.fanIn }

// groupSegments returns the segments under leaf switch group g.
func (n *Network) groupSegments(g int) []*Segment {
	lo := g * n.fanIn
	hi := lo + n.fanIn
	if hi > len(n.segments) {
		hi = len(n.segments)
	}
	return n.segments[lo:hi]
}

// uplinkTransit reserves one store-and-forward pass over the uplink
// starting no earlier than at, returning when the frame emerges on the far
// side: queue behind earlier frames, serialize at the uplink rate, then
// pay the link latency. The whole crossing is wire time for the tracer.
func (n *Network) uplinkTransit(u *uplink, at sim.Time, fr Frame) sim.Time {
	start := at
	if u.busyUntil > start {
		start = u.busyUntil
	}
	tx := time.Duration(float64(fr.Size+n.m.EthernetHeaderBytes) * n.upPerByte)
	u.busyUntil = start.Add(tx)
	out := u.busyUntil.Add(n.upLatency)
	u.sm.CausalSpan(fr.Op, sim.PhaseWire, at, out)
	u.frames++
	u.bytes += int64(fr.Size)
	if u.mx != nil {
		u.mx.frames.Inc()
		u.mx.busyUS.Add(tx.Microseconds())
	}
	return out
}

// unicastHier forwards a unicast frame across the hierarchy. Within one
// switch group the path is a single store-and-forward hop, exactly as in
// the flat pool; across groups the frame climbs the source group's uplink,
// crosses the backbone, and descends the destination group's uplink before
// transmitting on the destination segment.
func (n *Network) unicastHier(src, dst *Segment, fr Frame, arrive sim.Time) {
	src.sm.ScheduleAt(arrive, func() {
		if n.fault != nil && n.fault.ForwardCut(arrive, src.id, dst.id) {
			return
		}
		if n.mx != nil {
			n.mx.segForwarded.Inc()
		}
		sg, dg := n.segGroup(src.id), n.segGroup(dst.id)
		if sg == dg {
			a2 := n.transmitOn(dst, fr)
			n.deliverOnSegment(dst, fr, a2, nil)
			return
		}
		// The climb stays on the source group's simulator; the descent —
		// touching the destination group's uplink — crosses partitions at
		// least the uplink latency in the future.
		up := n.uplinkTransit(n.uplinks[sg], src.sm.Now(), fr)
		src.sm.ScheduleOn(dst.sm, up, func() {
			down := n.uplinkTransit(n.uplinks[dg], dst.sm.Now(), fr)
			dst.sm.ScheduleAt(down, func() {
				a2 := n.transmitOn(dst, fr)
				n.deliverOnSegment(dst, fr, a2, nil)
			})
		})
	})
}

// broadcastHier floods a broadcast with one copy per crossed level: the
// source leaf switch fans out to sibling segments, a single copy climbs
// the source uplink, and the backbone replicates it down each other
// group's uplink, whose leaf switch fans out to its segments.
func (n *Network) broadcastHier(src *Segment, fr Frame, arrive sim.Time) {
	sg := n.segGroup(src.id)
	for _, seg := range n.groupSegments(sg) {
		if seg == src {
			continue
		}
		seg := seg
		src.sm.ScheduleAt(arrive, func() {
			if n.fault != nil && n.fault.ForwardCut(arrive, src.id, seg.id) {
				return
			}
			if n.mx != nil {
				n.mx.segForwarded.Inc()
			}
			a2 := n.transmitOn(seg, fr)
			n.deliverOnSegment(seg, fr, a2, nil)
		})
	}
	if len(n.uplinks) < 2 {
		return
	}
	src.sm.ScheduleAt(arrive, func() {
		up := n.uplinkTransit(n.uplinks[sg], src.sm.Now(), fr)
		for g := range n.uplinks {
			if g == sg {
				continue
			}
			u := n.uplinks[g]
			g := g
			src.sm.ScheduleOn(u.sm, up, func() {
				down := n.uplinkTransit(u, u.sm.Now(), fr)
				u.sm.ScheduleAt(down, func() {
					for _, seg := range n.groupSegments(g) {
						if n.fault != nil && n.fault.ForwardCut(u.sm.Now(), src.id, seg.id) {
							continue
						}
						if n.mx != nil {
							n.mx.segForwarded.Inc()
						}
						a2 := n.transmitOn(seg, fr)
						n.deliverOnSegment(seg, fr, a2, nil)
					}
				})
			})
		}
	})
}

// transmitOn reserves the segment for the frame's wire time starting no
// earlier than now, returning the arrival instant.
func (n *Network) transmitOn(seg *Segment, fr Frame) sim.Time {
	start := seg.sm.Now()
	queued := seg.busyUntil > start
	if queued {
		start = seg.busyUntil
	}
	tx := n.m.WireTime(fr.Size + n.m.EthernetHeaderBytes)
	seg.busyUntil = start.Add(tx)
	// Wire time covers waiting out earlier frames plus serialization, per
	// hop; the stitcher unions overlapping hops of one operation.
	seg.sm.CausalSpan(fr.Op, sim.PhaseWire, seg.sm.Now(), seg.busyUntil)
	seg.frames++
	seg.bytes += int64(fr.Size)
	if seg.mx != nil {
		seg.mx.frames.Inc()
		seg.mx.busyUS.Add(tx.Microseconds())
		if queued {
			seg.mx.queued.Inc()
		}
	}
	return seg.busyUntil
}

func (n *Network) deliverOnSegment(seg *Segment, fr Frame, at sim.Time, exclude *NIC) {
	if fr.Dst != Broadcast {
		if nic := n.nicByID(fr.Dst); nic != nil && nic.seg == seg && nic != exclude {
			n.deliverAt(seg, nic, fr, at)
		}
		return
	}
	// Fault-free broadcast coalesces the whole segment into one scheduler
	// event walking the NICs in attachment order — the order the per-NIC
	// events would have fired in anyway (they were scheduled back to back,
	// and a receive upcall only schedules further work, so nothing can
	// interleave between them). One event per frame per segment instead
	// of one per NIC is the difference between O(frames x stations) and
	// O(frames) scheduler work on a loaded cable.
	if n.fault == nil {
		n.schedule(hopFlood, seg, seg, at, fr, exclude)
		return
	}
	for _, nic := range seg.nics {
		if nic != exclude {
			at = n.deliverAt(seg, nic, fr, at)
		}
	}
}

// deliverAt schedules the delivery of fr to nic, a station of seg, at
// instant at, after the fault hook's verdict. It returns at pushed back
// by any delay the hook imposed, which also holds back the deliveries
// scheduled after it on the segment.
func (n *Network) deliverAt(seg *Segment, nic *NIC, fr Frame, at sim.Time) sim.Time {
	if n.fault != nil {
		fate := n.fault.FrameFate(at, fr, nic.id)
		if fate.Drop {
			n.dropped++
			return at
		}
		if fate.Dup {
			n.schedule(hopDeliver, seg, seg, at, fr, nic)
		}
		if fate.Delay > 0 {
			at = at.Add(fate.Delay)
		}
	}
	n.schedule(hopDeliver, seg, seg, at, fr, nic)
	return at
}

// deliverTo completes one frame delivery at a NIC: the down filter, the
// uniform loss injector, then the receive upcall.
func (n *Network) deliverTo(nic *NIC, fr Frame) {
	if nic.down {
		n.dropped++
		if n.mx != nil {
			n.mx.dropsDown.Inc()
		}
		return
	}
	if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
		n.dropped++
		if n.mx != nil {
			n.mx.dropsLoss.Inc()
		}
		return
	}
	nic.rxFrames++
	nic.rxBytes += int64(fr.Size)
	if n.mx != nil {
		n.mx.framesRecv.Inc()
	}
	if nic.rx != nil {
		nic.rx(fr)
	}
}

func (n *Network) nicByID(id int) *NIC {
	if id < 0 || id >= len(n.nics) {
		return nil
	}
	return n.nics[id]
}

// SegmentBytes reports total payload bytes carried by segment i.
func (n *Network) SegmentBytes(i int) int64 { return n.segments[i].bytes }

// SegmentFrames reports total frames carried by segment i.
func (n *Network) SegmentFrames(i int) int64 { return n.segments[i].frames }
