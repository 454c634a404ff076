// Package akernel models the Amoeba 5.2 microkernel on each processor
// board: the kernel-space 3-way RPC protocol and the syscall bridge that
// exposes raw FLIP to user space for the Panda user-space
// implementation. The kernel's totally-ordered group protocol is Panda's
// group core, which package panda runs in this kernel's interrupt handler
// over its FLIP stack; this package keeps only the group addressing.
//
// Protocol processing on the receive path runs at interrupt level on the
// owning processor, as in the real kernel. Syscalls charge address-space
// crossing costs to the calling thread, including the Amoeba
// save-all/restore-one register-window policy.
package akernel

import (
	"amoebasim/internal/ether"
	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// Port identifies an RPC service (Amoeba server port).
type Port uint32

// GroupID identifies a process group.
type GroupID uint32

// FLIP address spaces: ports, groups, and per-kernel raw endpoints live in
// disjoint ranges of the FLIP address space.
const (
	portBase  flip.Address = 0x4000_0000_0000_0000
	groupBase flip.Address = 0x8000_0000_0000_0000
	rawBase   flip.Address = 0xC000_0000_0000_0000
)

// PortAddress maps an RPC port to its FLIP address.
func PortAddress(p Port) flip.Address { return portBase | flip.Address(p) }

// GroupAddress maps a group id to its FLIP (multicast) address.
func GroupAddress(g GroupID) flip.Address { return groupBase | flip.Address(g) }

// RawAddress maps a kernel id to the FLIP address of its user-space
// (Panda system layer) endpoint.
func RawAddress(kernelID int) flip.Address { return rawBase | flip.Address(kernelID) }

// Kernel is the per-processor Amoeba microkernel instance.
type Kernel struct {
	id   int
	p    *proc.Processor
	m    *model.CostModel
	sim  *sim.Sim
	flip *flip.Stack

	rpc *rpcModule

	// rawq is the receive side of the raw FLIP interface, the kernel
	// extension the Panda user-space implementation is built on: the
	// packets for the user-space endpoint and the threads parked in a
	// raw receive. The paper notes this extension "has not yet been
	// optimized" (user-to-kernel address translation); RawPathOverhead
	// in the cost model captures that residual per-packet cost.
	// rawDiscard is RawDiscard's filter, nil when none is installed.
	rawq       proc.Queue[*flip.Packet, *rawWaiter]
	rawDiscard func(*flip.Packet) bool

	mx *kernMetrics // nil when metrics are disabled
}

// kernMetrics bundles the kernel's metrics (labeled by processor).
type kernMetrics struct {
	rpcCalls      metrics.Counter   `metric:"akernel.rpc_calls"`
	rpcRetrans    metrics.Counter   `metric:"akernel.rpc_retransmissions"`
	rpcServes     metrics.Counter   `metric:"akernel.rpc_serves"`
	rpcFailures   metrics.Counter   `metric:"akernel.rpc_failures"`
	acksExplicit  metrics.Counter   `metric:"akernel.acks_explicit"`
	rpcLatency    metrics.Histogram `metric:"akernel.rpc_latency_us"`
	reasmTimeouts metrics.Counter   `metric:"akernel.reasm_timeouts"`
	rawQueueDepth metrics.Gauge     `metric:"akernel.raw_queue_depth"`
}

// New boots a kernel on processor p, attached to segment seg of net.
func New(p *proc.Processor, net *ether.Network, seg int) (*Kernel, error) {
	st, err := flip.NewStack(p, net, seg)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		id:   p.ID(),
		p:    p,
		m:    p.Model(),
		sim:  p.Sim(),
		flip: st,
	}
	if reg := p.Sim().Metrics(); reg != nil {
		k.mx = new(kernMetrics)
		reg.Register(k.mx, metrics.L("proc", p.Name()))
	}
	k.rpc = newRPCModule(k)
	st.Handle(flip.ProtoRPC, k.rpc.onPacket)
	st.Handle(flip.ProtoSystem, k.onRawPacket)
	return k, nil
}

// ID returns the kernel's id (its processor id).
func (k *Kernel) ID() int { return k.id }

// Processor returns the processor this kernel runs on.
func (k *Kernel) Processor() *proc.Processor { return k.p }

// FLIP returns the kernel's FLIP stack (for instrumentation).
func (k *Kernel) FLIP() *flip.Stack { return k.flip }

// enterKernel models the user→kernel trap for a syscall: crossing cost and
// the Amoeba register-window policy, plus shallow kernel call nesting.
func (k *Kernel) enterKernel(t *proc.Thread) {
	t.Syscall()
	t.Call(2)
}

// leaveKernel models the return path of a syscall.
func (k *Kernel) leaveKernel(t *proc.Thread) {
	t.Return(2)
}
