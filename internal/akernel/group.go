package akernel

import (
	"errors"
	"fmt"
	"strconv"

	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrGroupSendFailed is returned by GrpSend when retransmissions are
// exhausted.
var ErrGroupSendFailed = errors.New("akernel: group send failed after retries")

const grpMaxRetries = 16

// seqPtBase is the FLIP address space for the sequencers' point-to-point
// endpoints (one per group).
const seqPtBase flip.Address = 0x9000_0000_0000_0000

func seqAddress(g GroupID) flip.Address { return seqPtBase | flip.Address(g) }

// kernPtBase is the FLIP address space for each kernel's own group-control
// endpoint (targets of unicast retransmissions).
const kernPtBase flip.Address = 0xD000_0000_0000_0000

func kernAddress(id int) flip.Address { return kernPtBase | flip.Address(id) }

// Delivery is one totally-ordered group message as seen by a member.
type Delivery struct {
	Sender  int // kernel id of the sender
	Seqno   uint64
	Payload any
	Size    int
}

type grpKind uint8

const (
	gREQ    grpKind = iota + 1 // PB: data point-to-point to the sequencer
	gDATA                      // sequenced broadcast (or retransmission)
	gBB                        // BB: large data broadcast by the sender
	gACCEPT                    // BB: sequencer's small ordering broadcast
	gRETR                      // member requests missing seqnos
	gSYNC                      // sequencer requests ack status
	gSTATUS                    // member reports delivered watermark
)

type bbKey struct {
	sender int
	tmpID  uint64
}

// grpWire is the group protocol message carried in FLIP packets.
type grpWire struct {
	kind    grpKind
	gid     GroupID
	seqno   uint64
	sender  int
	tmpID   uint64
	op      uint64 // causally traced operation of the sender (0: none)
	payload any
	size    int
	ackUpTo uint64
	from    int    // requester kernel id (gRETR/gSTATUS)
	upTo    uint64 // highest missing seqno (gRETR)
}

// grpSendState tracks one outstanding send. The records are pooled on
// the kernel; each keeps its timeout callback, bound once.
type grpSendState struct {
	mb      *member
	t       *proc.Thread
	tmpID   uint64
	msg     flip.Message
	timer   sim.Event
	armedAt sim.Time // when the retransmission timer was armed
	retries int
	err     error
	done    bool

	fire func() // sendTimeout, bound to the record
}

// member is the per-kernel state of one group; the sequencer member also
// carries the sequencer state.
type member struct {
	k       *Kernel
	gid     GroupID
	members []int // the caller's list, shared by every member (read only)
	seqID   int
	kind    string // causal operation kind ("group", or a per-shard label)
	reasm   *flip.Reassembler

	// inbox holds the wires whose protocol interrupt items are queued on
	// the processor, oldest first. The processor services its interrupt
	// items in FIFO order, so handleFn, bound once, always finds its wire
	// at the head and a received packet schedules no closure.
	inbox    []*grpWire
	handleFn func()

	// Member state.
	nextDeliver uint64 // next seqno to deliver; seqnos start at 1
	holdback    map[uint64]*grpWire
	bbData      map[bbKey]*grpWire
	bbAccept    map[bbKey]*grpWire // accepts waiting for their data
	queue       []Delivery
	waiters     []*grpRecvWaiter
	freeWaiters []*grpRecvWaiter // waiters whose GrpReceive has returned
	sends       map[uint64]*grpSendState
	tmpSeq      uint64
	retrTimer   sim.Event
	retrFn      func() // the retransmission timer's callback, bound on first use
	sinceAck    int    // deliveries since the last watermark report

	// Sequencer state (only on the sequencer's kernel).
	seqno      uint64
	history    map[uint64]*grpWire
	seen       map[bbKey]uint64 // duplicate filter: (sender,tmpID) -> seqno
	acked      map[int]uint64
	lastStatus map[int]uint64 // ack seen at the previous status probe
	watchdog   sim.Event
	watchdogFn func() // watchdogTick, bound once

	mx *grpMetrics // nil when metrics are disabled
}

// grpMetrics bundles the per-member metric handles (labeled by processor
// and group id).
type grpMetrics struct {
	pbSends     *metrics.Counter
	bbSends     *metrics.Counter
	localSends  *metrics.Counter // sender is the sequencer machine
	sendRetrans *metrics.Counter
	deliveries  *metrics.Counter
	retransReqs *metrics.Counter
	seqHistory  *metrics.Gauge // sequencer history occupancy
}

type grpRecvWaiter struct {
	t   *proc.Thread
	del Delivery
}

// GroupConfigure statically sets up group membership on this kernel: the
// member list, and which kernel runs the sequencer. Every member kernel
// must be configured identically before traffic starts (the paper's
// experiments all use static groups). The kernel keeps members itself,
// without a copy, so one list can serve every member of a large group:
// the caller must not modify it afterwards.
func (k *Kernel) GroupConfigure(gid GroupID, members []int, sequencer int) error {
	found := false
	for _, m := range members {
		if m == k.id {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("akernel: kernel %d not in member list for group %d", k.id, gid)
	}
	mb := &member{
		k:           k,
		gid:         gid,
		members:     members,
		seqID:       sequencer,
		kind:        "group",
		reasm:       flip.NewReassembler(k.sim, k.m.RetransTimeout),
		nextDeliver: 1,
		holdback:    make(map[uint64]*grpWire),
		bbData:      make(map[bbKey]*grpWire),
		bbAccept:    make(map[bbKey]*grpWire),
		sends:       make(map[uint64]*grpSendState),
	}
	mb.handleFn = mb.handleNext
	if reg := k.sim.Metrics(); reg != nil {
		lp := metrics.L("proc", k.p.Name())
		lg := metrics.L("gid", strconv.Itoa(int(gid)))
		mb.mx = &grpMetrics{
			pbSends:     reg.Counter("akernel.grp_pb_sends", lp, lg),
			bbSends:     reg.Counter("akernel.grp_bb_sends", lp, lg),
			localSends:  reg.Counter("akernel.grp_local_sends", lp, lg),
			sendRetrans: reg.Counter("akernel.grp_send_retrans", lp, lg),
			deliveries:  reg.Counter("akernel.grp_deliveries", lp, lg),
			retransReqs: reg.Counter("akernel.grp_retrans_requests", lp, lg),
		}
	}
	if sequencer == k.id {
		mb.watchdogFn = mb.watchdogTick
		mb.history = make(map[uint64]*grpWire)
		mb.seen = make(map[bbKey]uint64)
		mb.acked = make(map[int]uint64)
		mb.lastStatus = make(map[int]uint64)
		if mb.mx != nil {
			mb.mx.seqHistory = k.sim.Metrics().Gauge("akernel.seq_history",
				metrics.L("proc", k.p.Name()), metrics.L("gid", strconv.Itoa(int(gid))))
		}
		k.flip.Register(seqAddress(gid))
	}
	k.flip.Register(kernAddress(k.id))
	k.flip.JoinGroup(GroupAddress(gid))
	k.grp[gid] = mb
	return nil
}

// GroupCausalKind sets the causal operation kind GrpSend begins on the
// given group ("group" by default); sharded pools label each shard so the
// tracer attributes latency per sequencer. No-op for unknown groups.
func (k *Kernel) GroupCausalKind(gid GroupID, kind string) {
	if mb := k.grp[gid]; mb != nil && kind != "" {
		mb.kind = kind
	}
}

// GrpSend broadcasts a message to the group with total ordering and blocks
// until the sender's own message has been delivered back in order (Amoeba
// semantics: "the calling thread is suspended until the message has
// returned from the sequencer").
func (k *Kernel) GrpSend(t *proc.Thread, gid GroupID, payload any, size int) error {
	mb := k.grp[gid]
	if mb == nil {
		return fmt.Errorf("akernel: kernel %d is not a member of group %d", k.id, gid)
	}
	op := t.Op()
	topLevel := op == 0
	if topLevel {
		op = k.sim.CausalBegin(mb.kind)
		t.SetOp(op)
	}
	k.enterKernel(t)
	t.ChargeP(sim.PhaseProtoSend, k.m.ProtoGroup)

	mb.tmpSeq++
	ss := k.newGrpSend()
	ss.mb, ss.t, ss.tmpID = mb, t, mb.tmpSeq
	mb.sends[ss.tmpID] = ss
	// The request piggybacks this member's watermark: an active sender
	// needs no spontaneous acks (they would tax broadcast-heavy phases
	// with pure overhead).
	mb.sinceAck = 0
	if k.sim.Tracing() {
		k.sim.SpanBeginWith(op, k.p.Name(), "grp.send", "tmp=%d size=%d", ss.tmpID, size)
	}

	if mb.seqID == k.id {
		// The sender is the sequencer machine: sequence locally without
		// touching the wire for the request leg.
		w := &grpWire{
			kind: gREQ, gid: gid, sender: k.id, tmpID: ss.tmpID, op: op,
			payload: payload, size: size, ackUpTo: mb.nextDeliver - 1,
		}
		if mb.mx != nil {
			mb.mx.localSends.Inc()
		}
		t.Flush()
		k.p.InterruptTagged(k.m.ProtoGroup, op, sim.PhaseSeqService, func() { mb.seqHandleREQ(w) })
	} else if size <= k.m.BBThreshold {
		// PB method: point-to-point to the sequencer, which broadcasts.
		w := &grpWire{
			kind: gREQ, gid: gid, sender: k.id, tmpID: ss.tmpID, op: op,
			payload: payload, size: size, ackUpTo: mb.nextDeliver - 1,
		}
		ss.msg = flip.Message{
			Src: RawAddress(k.id), Dst: seqAddress(gid), Proto: flip.ProtoGroup,
			MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel,
			Size: size, Payload: w, Op: op,
		}
		if mb.mx != nil {
			mb.mx.pbSends.Inc()
		}
		k.flip.SendFromThread(t, ss.msg)
	} else {
		// BB method: the sender broadcasts the data itself; the sequencer
		// broadcasts a small accept message carrying the sequence number.
		w := &grpWire{
			kind: gBB, gid: gid, sender: k.id, tmpID: ss.tmpID, op: op,
			payload: payload, size: size, ackUpTo: mb.nextDeliver - 1,
		}
		mb.bbData[bbKey{sender: k.id, tmpID: ss.tmpID}] = w
		ss.msg = flip.Message{
			Src: RawAddress(k.id), Dst: GroupAddress(gid), Proto: flip.ProtoGroup,
			MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel,
			Size: size, Payload: w, Multicast: true, Op: op,
		}
		if mb.mx != nil {
			mb.mx.bbSends.Inc()
		}
		k.flip.SendFromThread(t, ss.msg)
	}
	if mb.seqID != k.id {
		ss.timer = k.sim.Schedule(k.m.RetransTimeout, ss.fire)
		ss.armedAt = k.sim.Now()
	}
	t.Block()

	// Only the handler that set done held the record, and the timer is
	// off: the record goes back to the pool.
	tmpID, err := ss.tmpID, ss.err
	delete(mb.sends, tmpID)
	*ss = grpSendState{fire: ss.fire}
	k.grpSends = append(k.grpSends, ss)
	if k.sim.Tracing() {
		k.sim.SpanEnd(op, k.p.Name(), "grp.send", "tmp=%d err=%v", tmpID, err)
	}
	k.leaveKernel(t)
	if topLevel {
		k.sim.CausalEnd(op, err != nil)
		t.SetOp(0)
	}
	return err
}

// newGrpSend takes a send record from the pool, or mints one.
func (k *Kernel) newGrpSend() *grpSendState {
	if n := len(k.grpSends); n > 0 {
		ss := k.grpSends[n-1]
		k.grpSends = k.grpSends[:n-1]
		return ss
	}
	ss := &grpSendState{}
	ss.fire = func() { ss.mb.sendTimeout(ss) }
	return ss
}

// GrpReceive blocks until the next totally-ordered message is delivered to
// this member.
func (k *Kernel) GrpReceive(t *proc.Thread, gid GroupID) (Delivery, error) {
	mb := k.grp[gid]
	if mb == nil {
		return Delivery{}, fmt.Errorf("akernel: kernel %d is not a member of group %d", k.id, gid)
	}
	k.enterKernel(t)
	if len(mb.queue) > 0 {
		d := mb.queue[0]
		mb.queue = mb.queue[0:copy(mb.queue, mb.queue[1:])]
		k.leaveKernel(t)
		return d, nil
	}
	var w *grpRecvWaiter
	if n := len(mb.freeWaiters); n > 0 {
		w = mb.freeWaiters[n-1]
		mb.freeWaiters = mb.freeWaiters[:n-1]
	} else {
		w = &grpRecvWaiter{}
	}
	w.t = t
	mb.waiters = append(mb.waiters, w)
	t.Block()
	// Only deliver wakes a receive waiter, after taking it off the list:
	// once Block returns nothing else holds w.
	d := w.del
	*w = grpRecvWaiter{}
	mb.freeWaiters = append(mb.freeWaiters, w)
	k.leaveKernel(t)
	return d, nil
}

// GrpDelivered reports the member's delivered watermark.
func (k *Kernel) GrpDelivered(gid GroupID) uint64 {
	if mb := k.grp[gid]; mb != nil {
		return mb.nextDeliver - 1
	}
	return 0
}

func (mb *member) sendTimeout(ss *grpSendState) {
	if ss.done {
		return
	}
	// The armed window elapsed with no completion: retransmission idle.
	mb.k.sim.CausalSpan(ss.msg.Op, sim.PhaseRetrans, ss.armedAt, mb.k.sim.Now())
	ss.retries++
	if ss.retries > grpMaxRetries {
		ss.err = ErrGroupSendFailed
		ss.done = true
		ss.t.Unblock()
		return
	}
	if mb.mx != nil {
		mb.mx.sendRetrans.Inc()
	}
	mb.k.flip.SendFromInterrupt(ss.msg)
	ss.timer = mb.k.sim.Schedule(mb.k.m.RetransTimeout, ss.fire)
	ss.armedAt = mb.k.sim.Now()
}

// onPacket processes group packets at interrupt level. Fragment data is
// copied to the delivery buffer as it arrives.
func (mb *member) onPacket(pk *flip.Packet) {
	if pk.Length > 0 {
		mb.k.p.InterruptTagged(mb.k.m.Copy(pk.Length), pk.Op, sim.PhaseFrag, nil)
	}
	if !mb.reasm.Add(pk) {
		return
	}
	w, ok := pk.Payload.(*grpWire)
	if !ok {
		return
	}
	k := mb.k
	// Sequencer-bound packets handled on the sequencer machine are
	// sequencer service; everything else is ordinary receive processing.
	ph := sim.PhaseProtoRecv
	if mb.seqID == k.id {
		switch w.kind {
		case gREQ, gBB, gRETR, gSTATUS:
			ph = sim.PhaseSeqService
		}
	}
	mb.inbox = append(mb.inbox, w)
	k.p.InterruptTagged(k.m.ProtoGroup, w.op, ph, mb.handleFn)
}

// handleNext handles the oldest received wire once its protocol interrupt
// item has been serviced.
func (mb *member) handleNext() {
	w := mb.inbox[0]
	n := copy(mb.inbox, mb.inbox[1:])
	mb.inbox[n] = nil
	mb.inbox = mb.inbox[:n]
	mb.handle(w)
}

func (mb *member) handle(w *grpWire) {
	isSeq := mb.seqID == mb.k.id
	switch w.kind {
	case gREQ:
		if isSeq {
			mb.seqHandleREQ(w)
		}
	case gBB:
		mb.bbData[bbKey{sender: w.sender, tmpID: w.tmpID}] = w
		if isSeq {
			mb.seqHandleBB(w)
		} else {
			mb.tryCompleteBB(bbKey{sender: w.sender, tmpID: w.tmpID})
		}
	case gDATA:
		mb.onData(w)
	case gACCEPT:
		mb.onAccept(w)
	case gRETR:
		if isSeq {
			mb.seqHandleRETR(w)
		}
	case gSYNC:
		mb.sinceAck = 0
		mb.sendStatus()
	case gSTATUS:
		if isSeq {
			mb.seqUpdateAck(w.from, w.ackUpTo)
			// Retransmit the suffix only when the member made no progress
			// since the previous probe: an active member that is merely
			// behind will catch up by itself; a stalled one lost the tail.
			// A first report is never "stalled": with no earlier report to
			// compare against, a member whose DATA is still in flight would
			// otherwise trigger a spurious full-history resend.
			last, seen := mb.lastStatus[w.from]
			stalled := seen && last == w.ackUpTo
			mb.lastStatus[w.from] = w.ackUpTo
			if stalled && w.ackUpTo < mb.seqno {
				mb.seqHandleRETR(&grpWire{
					kind: gRETR, gid: mb.gid, from: w.from,
					seqno: w.ackUpTo + 1, upTo: mb.seqno,
				})
			}
		}
	}
}

// ---- Sequencer side (runs in the kernel's interrupt handler) ----

func (mb *member) seqHandleREQ(w *grpWire) {
	mb.seqUpdateAck(w.sender, w.ackUpTo)
	key := bbKey{sender: w.sender, tmpID: w.tmpID}
	if seqno, dup := mb.seen[key]; dup {
		// Duplicate request: re-broadcast the sequenced message.
		if h := mb.history[seqno]; h != nil {
			mb.broadcastData(h)
		}
		return
	}
	mb.seqno++
	d := &grpWire{
		kind: gDATA, gid: mb.gid, seqno: mb.seqno, sender: w.sender,
		tmpID: w.tmpID, op: w.op, payload: w.payload, size: w.size,
	}
	if mb.k.sim.Tracing() {
		mb.k.sim.Trace(mb.k.p.Name(), "grp.seq", "seqno=%d sender=%d size=%d (PB)", mb.seqno, w.sender, w.size)
	}
	mb.seen[key] = mb.seqno
	mb.history[mb.seqno] = d
	if mb.mx != nil {
		mb.mx.seqHistory.Set(int64(len(mb.history)))
	}
	// FLIP multicast loops back to the local member, so the sequencer
	// machine delivers its own broadcast without special-casing.
	mb.broadcastData(d)
	mb.armWatchdog()
}

func (mb *member) seqHandleBB(w *grpWire) {
	mb.seqUpdateAck(w.sender, w.ackUpTo)
	key := bbKey{sender: w.sender, tmpID: w.tmpID}
	if seqno, dup := mb.seen[key]; dup {
		if h := mb.history[seqno]; h != nil {
			mb.broadcastAccept(h)
		}
		return
	}
	mb.seqno++
	// History keeps the payload so retransmissions can carry the data.
	d := &grpWire{
		kind: gDATA, gid: mb.gid, seqno: mb.seqno, sender: w.sender,
		tmpID: w.tmpID, op: w.op, payload: w.payload, size: w.size,
	}
	mb.seen[key] = mb.seqno
	mb.history[mb.seqno] = d
	if mb.mx != nil {
		mb.mx.seqHistory.Set(int64(len(mb.history)))
	}
	mb.broadcastAccept(d) // loops back; tryCompleteBB pairs it with the data
	mb.armWatchdog()
}

func (mb *member) broadcastData(d *grpWire) {
	k := mb.k
	k.flip.SendFromInterrupt(flip.Message{
		Src: seqAddress(mb.gid), Dst: GroupAddress(mb.gid), Proto: flip.ProtoGroup,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel,
		Size: d.size, Payload: d, Multicast: true,
		Op: d.op, SendPhase: sim.PhaseSeqService,
	})
}

func (mb *member) broadcastAccept(d *grpWire) {
	k := mb.k
	acc := &grpWire{kind: gACCEPT, gid: mb.gid, seqno: d.seqno, sender: d.sender, tmpID: d.tmpID, op: d.op}
	k.flip.SendFromInterrupt(flip.Message{
		Src: seqAddress(mb.gid), Dst: GroupAddress(mb.gid), Proto: flip.ProtoGroup,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel, Size: 0,
		Payload: acc, Multicast: true,
		Op: d.op, SendPhase: sim.PhaseSeqService,
	})
}

func (mb *member) seqHandleRETR(w *grpWire) {
	k := mb.k
	for s := w.seqno; s <= w.upTo; s++ {
		h := mb.history[s]
		if h == nil {
			continue
		}
		k.flip.SendFromInterrupt(flip.Message{
			Src: seqAddress(mb.gid), Dst: kernAddress(w.from), Proto: flip.ProtoGroup,
			MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel,
			Size: h.size, Payload: h,
			Op: h.op, SendPhase: sim.PhaseSeqService,
		})
	}
}

func (mb *member) seqUpdateAck(memberID int, upTo uint64) {
	if upTo > mb.acked[memberID] {
		mb.acked[memberID] = upTo
	}
	mb.trimHistory()
}

func (mb *member) trimHistory() {
	if len(mb.history) == 0 {
		return
	}
	min := mb.seqno
	for _, id := range mb.members {
		if id == mb.k.id {
			continue
		}
		if a := mb.acked[id]; a < min {
			min = a
		}
	}
	for s := range mb.history {
		if s <= min {
			h := mb.history[s]
			delete(mb.history, s)
			delete(mb.seen, bbKey{sender: h.sender, tmpID: h.tmpID})
		}
	}
	if mb.mx != nil && mb.mx.seqHistory != nil {
		mb.mx.seqHistory.Set(int64(len(mb.history)))
	}
}

// minAck returns the lowest delivery watermark any non-sequencer member
// has acknowledged.
func (mb *member) minAck() uint64 {
	min := mb.seqno
	for _, id := range mb.members {
		if id == mb.k.id {
			continue
		}
		if a := mb.acked[id]; a < min {
			min = a
		}
	}
	return min
}

// armWatchdog keeps a periodic sync running while some member has not yet
// acknowledged every sequenced message. This is the paper's history
// overflow prevention and also recovers "tail" losses: a member that
// missed the final broadcast has no later message to reveal the gap, so
// the sequencer must probe. Each tick unicasts gSYNC only to members
// pinned at the minimum acknowledged watermark — the ones actually
// holding the history back — capped at GroupSyncFanout, so a probe round
// costs O(stragglers) rather than triggering the group-wide SYNC/STATUS
// implosion that saturates the sequencer in large groups.
func (mb *member) armWatchdog() {
	if mb.watchdog.Pending() || mb.minAck() >= mb.seqno {
		return
	}
	mb.watchdog = mb.k.sim.Schedule(mb.k.m.RetransTimeout, mb.watchdogFn)
}

// watchdogTick probes the stragglers when the watchdog expires.
func (mb *member) watchdogTick() {
	k := mb.k
	mb.watchdog = sim.Event{}
	min := mb.minAck()
	if min >= mb.seqno {
		return
	}
	for _, id := range mb.stragglers(min) {
		sync := &grpWire{kind: gSYNC, gid: mb.gid}
		k.flip.SendFromInterrupt(flip.Message{
			Src: seqAddress(mb.gid), Dst: kernAddress(id), Proto: flip.ProtoGroup,
			MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel, Size: 0,
			Payload: sync,
		})
	}
	mb.armWatchdog()
}

// stragglers lists the members whose acknowledged watermark equals min,
// in member order, capped at GroupSyncFanout.
func (mb *member) stragglers(min uint64) []int {
	fan := mb.k.m.GroupSyncFanout
	if fan < 1 {
		fan = 1
	}
	var ids []int
	for _, id := range mb.members {
		if id == mb.k.id {
			continue
		}
		if mb.acked[id] == min {
			ids = append(ids, id)
			if len(ids) >= fan {
				break
			}
		}
	}
	return ids
}

func (mb *member) sendStatus() {
	k := mb.k
	st := &grpWire{kind: gSTATUS, gid: mb.gid, from: k.id, ackUpTo: mb.nextDeliver - 1}
	k.flip.SendFromInterrupt(flip.Message{
		Src: RawAddress(k.id), Dst: seqAddress(mb.gid), Proto: flip.ProtoGroup,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel, Size: 0, Payload: st,
	})
}

// ---- Member side ----

func (mb *member) onAccept(w *grpWire) {
	key := bbKey{sender: w.sender, tmpID: w.tmpID}
	mb.bbAccept[key] = w
	mb.tryCompleteBB(key)
}

func (mb *member) tryCompleteBB(key bbKey) {
	acc := mb.bbAccept[key]
	data := mb.bbData[key]
	if acc == nil || data == nil {
		return
	}
	delete(mb.bbAccept, key)
	delete(mb.bbData, key)
	mb.onData(&grpWire{
		kind: gDATA, gid: mb.gid, seqno: acc.seqno, sender: data.sender,
		tmpID: data.tmpID, payload: data.payload, size: data.size,
	})
}

func (mb *member) onData(w *grpWire) {
	switch {
	case w.seqno < mb.nextDeliver:
		return // duplicate
	case w.seqno > mb.nextDeliver:
		mb.holdback[w.seqno] = w
		mb.requestRetrans(w.seqno)
		return
	}
	mb.deliver(w)
	for {
		next := mb.holdback[mb.nextDeliver]
		if next == nil {
			break
		}
		delete(mb.holdback, mb.nextDeliver)
		mb.deliver(next)
	}
}

func (mb *member) deliver(w *grpWire) {
	if mb.k.sim.Tracing() {
		mb.k.sim.Trace(mb.k.p.Name(), "grp.dlv", "seqno=%d sender=%d", w.seqno, w.sender)
	}
	if mb.mx != nil {
		mb.mx.deliveries.Inc()
	}
	mb.nextDeliver = w.seqno + 1
	d := Delivery{Sender: w.sender, Seqno: w.seqno, Payload: w.payload, Size: w.size}
	if len(mb.waiters) > 0 {
		rw := mb.waiters[0]
		mb.waiters = mb.waiters[0:copy(mb.waiters, mb.waiters[1:])]
		rw.del = d
		rw.t.Unblock()
	} else {
		mb.queue = append(mb.queue, d)
	}
	// The sender's own message coming back in order completes its send.
	// Its watermark travels piggybacked on every request, so only pure
	// receivers ever report spontaneously.
	if w.sender == mb.k.id {
		mb.sinceAck = 0
		if ss := mb.sends[w.tmpID]; ss != nil && !ss.done {
			ss.done = true
			mb.k.sim.Cancel(ss.timer)
			ss.t.Unblock()
		}
	} else {
		mb.maybeAck()
	}
}

// maybeAck spontaneously reports this member's delivery watermark to the
// sequencer after every ack batch of deliveries, so history trimming
// under load does not depend on the sequencer probing every member. The
// batch scales with the group size (model.GroupAckBatch), keeping the
// sequencer's ack processing O(1) per sequenced message.
func (mb *member) maybeAck() {
	if mb.seqID == mb.k.id {
		return // the sequencer's own watermark never blocks trimming
	}
	mb.sinceAck++
	if mb.sinceAck < mb.k.m.GroupAckBatch(len(mb.members)) {
		return
	}
	mb.sinceAck = 0
	mb.sendStatus()
}

// requestRetrans asks the sequencer for the missing gap below the given
// out-of-order seqno, rate-limited to one outstanding request.
func (mb *member) requestRetrans(sawSeqno uint64) {
	if mb.retrTimer.Pending() {
		return
	}
	k := mb.k
	// Highest contiguous gap: everything from nextDeliver up to the
	// largest held-back seqno.
	upTo := sawSeqno
	for s := range mb.holdback {
		if s > upTo {
			upTo = s
		}
	}
	if k.sim.Tracing() {
		k.sim.Trace(k.p.Name(), "grp.retr", "missing %d..%d", mb.nextDeliver, upTo)
	}
	if mb.mx != nil {
		mb.mx.retransReqs.Inc()
	}
	req := &grpWire{kind: gRETR, gid: mb.gid, from: k.id, seqno: mb.nextDeliver, upTo: upTo}
	k.flip.SendFromInterrupt(flip.Message{
		Src: RawAddress(k.id), Dst: seqAddress(mb.gid), Proto: flip.ProtoGroup,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.GroupHeaderKernel, Size: 0, Payload: req,
	})
	if mb.retrFn == nil {
		// Ask again while a gap remains.
		mb.retrFn = func() {
			mb.retrTimer = sim.Event{}
			if len(mb.holdback) > 0 {
				mb.requestRetrans(0)
			}
		}
	}
	mb.retrTimer = k.sim.Schedule(k.m.RetransTimeout, mb.retrFn)
}
