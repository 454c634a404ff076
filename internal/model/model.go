// Package model holds the calibrated machine cost model for the simulated
// Amoeba testbed: a pool of 50 MHz SPARC "Tsunami" processor boards on
// 10 Mbit/s Ethernet running Amoeba 5.2, as described in §4 of the paper.
//
// Constants fall in two classes:
//
//   - Paper-given values, quoted directly from the paper's own measurements
//     (context switch, thread dispatch, register-window trap, fragmentation
//     code, header sizes, Ethernet rate).
//   - Fitted values, chosen so that the *emergent* end-to-end latencies of
//     the full protocol stacks land near Tables 1 and 2. These are the
//     per-packet processing costs of the FLIP layer, syscall crossing cost,
//     interrupt entry, and memory copy cost.
package model

import "time"

// CostModel collects every machine parameter used by the simulation. All
// durations are CPU time charged on the processor performing the action.
type CostModel struct {
	// ---- CPU / thread costs (paper-given, §4.2–4.3) ----

	// CtxSwitch is a full thread-to-thread context switch. The paper
	// measures the two client-side switches of the user-space RPC at
	// 140 µs total, i.e. 70 µs each.
	CtxSwitch time.Duration

	// IntrDispatchCold is the cost of dispatching a thread from interrupt
	// context when a different thread ran last (interrupt handler runs to
	// completion, scheduler is invoked, old context saved, new restored).
	// Paper: "an additional thread switch, which takes about 110 µs".
	IntrDispatchCold time.Duration

	// IntrDispatchWarm is the same dispatch when the target thread's
	// context is still loaded (it was the last to run). Paper: a dedicated
	// sequencer machine "effectively reduces the context switch time to
	// 60 µs, since the sequencer context is still loaded".
	IntrDispatchWarm time.Duration

	// WindowTrap is the cost of one register-window underflow or overflow
	// trap, handled in software. Paper: "about 6 µs per trap".
	WindowTrap time.Duration

	// RegisterWindows is the number of hardware register windows.
	// Paper: "Our SPARC processors use six register windows".
	RegisterWindows int

	// SyscallCross is the fixed cost of one user/kernel address-space
	// round trip (trap in + return), excluding register-window effects,
	// which are modeled separately per the Amoeba save-all/restore-one
	// policy. Fitted.
	SyscallCross time.Duration

	// WindowSave is the per-window cost of saving one register window on
	// kernel entry. Fitted small value; with six windows in use the
	// combined crossing + trap overhead approximates the paper's 50 µs.
	WindowSave time.Duration

	// RawPathOverhead is the extra per-packet cost of the unoptimized
	// Amoeba extension exposing FLIP to user space (user-to-kernel
	// address translation etc.). The paper attributes the residual
	// ~54 µs/RPC gap to it. Fitted.
	RawPathOverhead time.Duration

	// ---- Interrupt / network processing costs (fitted) ----

	// IntrEntry is the fixed CPU cost of taking a network interrupt
	// before any protocol processing runs.
	IntrEntry time.Duration

	// FLIPSend is the kernel FLIP-layer CPU cost to process one outgoing
	// packet (routing, header build, handing to the NIC).
	FLIPSend time.Duration

	// FLIPRecv is the kernel FLIP-layer CPU cost to process one incoming
	// packet (header parse, demultiplex).
	FLIPRecv time.Duration

	// CopyPerByte is the memory-copy cost per byte for moving message
	// data across the user/kernel boundary or between buffers. Each
	// boundary crossing of an N-byte message costs N*CopyPerByte.
	CopyPerByte time.Duration

	// ProtoRPC is the per-message protocol CPU cost of an RPC-layer state
	// machine action (building or consuming a request/reply header).
	ProtoRPC time.Duration

	// ProtoGroup is the per-message protocol CPU cost of a group-layer
	// action at a member (not the sequencer).
	ProtoGroup time.Duration

	// FragLayer is the CPU cost of one pass through a fragmentation /
	// reassembly layer for one message. Paper: "an overhead of about
	// 20 µs per message" for Panda's duplicated portable fragmentation.
	FragLayer time.Duration

	// MulticastExtra is the additional kernel receive-path cost of a
	// multicast packet (group-address filtering and buffering). Fitted to
	// Table 1's unicast/multicast difference (~0.05-0.09 ms).
	MulticastExtra time.Duration

	// ---- Kernel-bypass transport (fitted; RDMA/DPDK-style user NIC) ----
	// The bypass implementation maps a NIC queue pair into the process:
	// sends post descriptors pointing straight at application buffers (no
	// syscall, no kernel copy) and ring a doorbell; receives are consumed
	// from a completion queue by polling or by a NIC interrupt.

	// DoorbellWrite is the cost of posting one descriptor and ringing the
	// user-mapped doorbell register — the only per-packet send-side device
	// cost left once the kernel is out of the path.
	DoorbellWrite time.Duration

	// BypassTxPacket is the user-level per-packet send processing:
	// building the descriptor and the inline header (the NIC DMA-reads the
	// payload from the application buffer, so no per-byte copy is charged).
	BypassTxPacket time.Duration

	// BypassRxPacket is the user-level per-packet receive processing:
	// completion-queue entry parse and demultiplex, replacing the kernel's
	// IntrEntry + FLIPRecv path.
	BypassRxPacket time.Duration

	// PollCheck is one completion-queue poll probe.
	PollCheck time.Duration

	// PollSpinBudget is how long the poll-mode consumer spins on an empty
	// completion queue before parking (real CPU, stolen from whatever else
	// the processor runs — the price of polling without a dedicated core).
	// Hybrid dispatch also uses it as the idle threshold past which it
	// re-arms the NIC interrupt instead of spinning.
	PollSpinBudget time.Duration

	// BypassSharedDispatch is the per-pickup scheduling cost of running
	// the QP consumer as an ordinary time-shared thread on a worker
	// machine: poll-slot acquisition plus the cold microarchitectural
	// state from competing application threads. A dedicated sequencer
	// machine keeps the consumer context loaded and pays nothing.
	BypassSharedDispatch time.Duration

	// BypassHeaderBytes is the total transport header on bypass data
	// packets: no FLIP encapsulation, just the QP transport header.
	BypassHeaderBytes int

	// ---- Ethernet (paper-given physical parameters) ----

	// WireBytePerSec is the raw wire rate: 10 Mbit/s.
	WireBitsPerSec int64

	// FrameOverheadBytes is preamble + CRC + inter-frame gap expressed in
	// byte times (8 preamble + 4 CRC + 12 IFG = 24 byte times).
	FrameOverheadBytes int

	// EthernetHeaderBytes is the MAC header (14 bytes).
	EthernetHeaderBytes int

	// MTU is the maximum Ethernet frame payload: 1500 bytes.
	MTU int

	// MinFrameBytes is the minimum Ethernet frame size (64 bytes).
	MinFrameBytes int

	// ---- Protocol header sizes (paper-given, §4.2–4.3) ----

	// FLIPHeaderBytes is the FLIP network-layer header carried in every
	// packet.
	FLIPHeaderBytes int

	// RPCHeaderUser / RPCHeaderKernel: total protocol header on RPC data
	// messages. Paper: "slightly larger headers (64 bytes vs. 56 bytes)".
	RPCHeaderUser   int
	RPCHeaderKernel int

	// GroupHeaderUser / GroupHeaderKernel: header on sequenced group data
	// messages. Paper: user space works "with small headers of 40 bytes,
	// whereas the kernel-space implementation prepends each data message
	// with a 52 byte header".
	GroupHeaderUser   int
	GroupHeaderKernel int

	// ---- Protocol tunables ----

	// RetransTimeout is the protocol retransmission timeout (the first
	// wait; see RetransBackoff for the retry schedule).
	RetransTimeout time.Duration

	// RetransBackoffCap bounds the exponential retransmission backoff as
	// a multiple of RetransTimeout (0 disables backoff: every retry waits
	// exactly RetransTimeout).
	RetransBackoffCap int

	// AckDelay is how long the Panda RPC client waits for a piggyback
	// opportunity before sending an explicit reply acknowledgement.
	AckDelay time.Duration

	// GroupHistory is the sequencer history buffer capacity in messages.
	GroupHistory int

	// BBThreshold is the message size (bytes) above which the group
	// protocols switch from the PB method (point-to-point to sequencer,
	// sequencer broadcasts) to the BB method (sender broadcasts, the
	// sequencer broadcasts a short accept).
	BBThreshold int

	// GroupAckEvery is the base delivery-ack batch: a non-sending group
	// member spontaneously reports its delivery watermark to the sequencer
	// after this many deliveries, so history trimming does not depend on
	// probing every member. The protocols scale the effective batch with
	// the group size (see GroupAckBatch) to keep the sequencer's ack
	// processing O(1) per sequenced message.
	GroupAckEvery int

	// GroupSyncFanout caps how many stalled members one watchdog tick
	// probes. The probe targets only the members holding the history back
	// (minimum acknowledged watermark), so a tick costs O(stragglers), not
	// O(members) — the ack implosion that otherwise saturates the
	// sequencer in large groups.
	GroupSyncFanout int
}

// GroupAckBatch is the effective delivery-ack batch for a group with n
// members: at least GroupAckEvery, and at least the full group size. An
// active sender delivers its own broadcast within every n-delivery span
// and piggybacks its watermark on each request, so it never acks
// spontaneously; a pure receiver reports about once per n deliveries.
// Either way the sequencer's ack processing stays O(1) per sequenced
// message and its history depth stays O(n).
func (m *CostModel) GroupAckBatch(n int) int {
	b := m.GroupAckEvery
	if b < 1 {
		b = 1
	}
	if n > b {
		b = n
	}
	return b
}

// Calibrated returns the cost model tuned against Tables 1 and 2 of the
// paper. Paper-given constants are exact; fitted constants were adjusted so
// that the emergent microbenchmark results land near the published numbers
// (see EXPERIMENTS.md for the achieved values).
func Calibrated() *CostModel {
	return &CostModel{
		CtxSwitch:        70 * time.Microsecond,
		IntrDispatchCold: 110 * time.Microsecond,
		IntrDispatchWarm: 60 * time.Microsecond,
		WindowTrap:       6 * time.Microsecond,
		RegisterWindows:  6,
		SyscallCross:     14 * time.Microsecond,
		WindowSave:       1 * time.Microsecond,
		RawPathOverhead:  20 * time.Microsecond,

		IntrEntry:      55 * time.Microsecond,
		FLIPSend:       90 * time.Microsecond,
		FLIPRecv:       85 * time.Microsecond,
		CopyPerByte:    70 * time.Nanosecond,
		ProtoRPC:       85 * time.Microsecond,
		ProtoGroup:     110 * time.Microsecond,
		FragLayer:      20 * time.Microsecond,
		MulticastExtra: 70 * time.Microsecond,

		DoorbellWrite:        2 * time.Microsecond,
		BypassTxPacket:       8 * time.Microsecond,
		BypassRxPacket:       6 * time.Microsecond,
		PollCheck:            2 * time.Microsecond,
		PollSpinBudget:       200 * time.Microsecond,
		BypassSharedDispatch: 350 * time.Microsecond,
		BypassHeaderBytes:    24,

		WireBitsPerSec:      10_000_000,
		FrameOverheadBytes:  24,
		EthernetHeaderBytes: 14,
		MTU:                 1500,
		MinFrameBytes:       64,

		FLIPHeaderBytes:   32,
		RPCHeaderUser:     64,
		RPCHeaderKernel:   56,
		GroupHeaderUser:   40,
		GroupHeaderKernel: 52,

		RetransTimeout:    100 * time.Millisecond,
		RetransBackoffCap: 8,
		AckDelay:          100 * time.Millisecond,
		GroupHistory:      128,
		BBThreshold:       1500,
		GroupAckEvery:     16,
		GroupSyncFanout:   32,
	}
}

// WireTime returns the time a frame of the given total size (Ethernet
// payload + MAC header) occupies the wire, including preamble, CRC and the
// inter-frame gap, honoring the minimum frame size.
func (m *CostModel) WireTime(frameBytes int) time.Duration {
	if frameBytes < m.MinFrameBytes {
		frameBytes = m.MinFrameBytes
	}
	bits := int64(frameBytes+m.FrameOverheadBytes) * 8
	return time.Duration(bits * int64(time.Second) / m.WireBitsPerSec)
}

// RetransBackoff returns how long to wait before retry number retry
// (retry 0 is the first wait, before any retransmission): RetransTimeout
// doubled on every retry, capped at RetransBackoffCap times the base.
// The cap keeps a string of losses from pushing recovery out forever;
// the growth keeps loss storms from retransmitting in lockstep at a
// fixed period.
func (m *CostModel) RetransBackoff(retry int) time.Duration {
	d := m.RetransTimeout
	if m.RetransBackoffCap <= 1 {
		return d
	}
	limit := time.Duration(m.RetransBackoffCap) * m.RetransTimeout
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= limit {
			return limit
		}
	}
	return d
}

// Copy returns the CPU cost of copying n bytes.
func (m *CostModel) Copy(n int) time.Duration {
	return time.Duration(n) * m.CopyPerByte
}

// FragmentPayload is the number of message bytes that fit in one Ethernet
// frame after the FLIP header: MTU minus the FLIP header.
func (m *CostModel) FragmentPayload() int {
	return m.MTU - m.FLIPHeaderBytes
}

// FragmentsFor returns how many FLIP packets a message of n payload bytes
// occupies (at least one, even for empty messages).
func (m *CostModel) FragmentsFor(n int) int {
	p := m.FragmentPayload()
	if n <= 0 {
		return 1
	}
	return (n + p - 1) / p
}
