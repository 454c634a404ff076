// Package orca implements the Orca runtime system (RTS) on top of Panda:
// shared data-objects with indivisible operations, object replication with
// totally-ordered write broadcasts, remote invocation via RPC for
// single-copy objects, and guarded operations implemented with
// continuations — the optimization whose interaction with the two Panda
// implementations is central to the paper's §5 results.
package orca

import (
	"time"

	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// State is an object's encapsulated shared data. Operations receive it by
// reference and may mutate it (write operations only).
type State any

// ApplyFunc executes an operation against the object state. It runs with
// the object's invariants held (operations are indivisible) in the thread
// t (a worker for local operations, a protocol daemon for remote or
// broadcast ones). It must charge its CPU cost via t.Compute/t.Charge and
// return the result value and its marshaled size in bytes.
type ApplyFunc func(t *proc.Thread, state State, args any) (result any, resultSize int)

// GuardFunc evaluates an operation's guard against the current state; the
// operation blocks (as a continuation) until it returns true.
type GuardFunc func(state State) bool

// OpDef defines one operation of an object type.
type OpDef struct {
	// Name identifies the operation in invocations.
	Name string
	// ReadOnly marks operations that never mutate state: they execute on
	// the local replica without communication when the object is
	// replicated.
	ReadOnly bool
	// Guard, if non-nil, must hold before the operation executes.
	Guard GuardFunc
	// Apply executes the operation.
	Apply ApplyFunc
	// AllowNB marks void write operations whose broadcast may use the
	// nonblocking extension without violating Orca's sequential
	// consistency (the invoker never observes the result).
	AllowNB bool
}

// ObjType is an Orca abstract data type: a set of operations over a state.
type ObjType struct {
	Name string
	Ops  map[string]*OpDef
}

// NewType builds an object type from operation definitions.
func NewType(name string, ops ...*OpDef) *ObjType {
	t := &ObjType{Name: name, Ops: make(map[string]*OpDef, len(ops))}
	for _, op := range ops {
		t.Ops[op.Name] = op
	}
	return t
}

// Placement is the RTS object-placement decision. In the real system it is
// derived from compiler-generated access-pattern hints; here the program
// supplies it directly (standing in for those hints).
type Placement int

// Placement strategies.
const (
	// Replicated stores a copy on every processor: reads are local,
	// writes broadcast with total ordering.
	Replicated Placement = iota + 1
	// Owned stores the single copy on one processor: all operations from
	// other processors go through RPC.
	Owned
)

// ObjectID identifies a shared object across the whole program.
type ObjectID int

// Handle names a declared shared object.
type Handle struct {
	ID        ObjectID
	Name      string
	Placement Placement
	Owner     int // valid for Owned placement
}

// continuation is a blocked guarded operation queued at an object. When a
// mutating operation makes the guard true, the continuation's body runs in
// the mutating thread and its completion delivers the result: a semaphore
// signal for a local invoker (contLocal), an asynchronous RPC reply for a
// remote one (contRPC, only possible without workarounds on the
// user-space Panda), or the end of a replicated write (contGroup). It is
// a value in its object's queue, so blocking allocates no record.
type continuation struct {
	op    *OpDef
	args  any
	guard GuardFunc
	kind  contKind

	inv    *localInv         // contLocal: the blocked invoker
	ctx    *panda.RPCContext // contRPC: the request to reply to
	w      *bcastWire        // contGroup: the broadcast write
	sender int               // contGroup: its sender
}

// contKind selects how a continuation completes.
type contKind uint8

const (
	contLocal contKind = iota
	contRPC
	contGroup
)

// localInv carries the result of an invocation back to a blocked invoker
// through a counting semaphore (no lost wakeups regardless of which side
// gets there first). Records come from the runtime's free list and go
// back once the invoker's Down has returned, when nothing else holds them.
type localInv struct {
	sem     proc.Semaphore
	result  any
	resSize int
}

// instance is the per-processor incarnation of a shared object.
type instance struct {
	h     Handle
	typ   *ObjType
	state State
	mu    proc.Mutex

	// blocked guarded operations, FIFO.
	conts []continuation

	// outstanding nonblocking writes by the local process (extension):
	// local reads must wait for them to preserve program order.
	outstandingNB int
	nbWaiters     []*proc.Thread

	// Stats.
	reads      int64
	writes     int64
	broadcasts int64
	rpcs       int64
	blocked    int64
}

// opOverhead is the RTS bookkeeping cost per operation invocation
// (marshaling descriptors, object table lookup).
const opOverhead = 5 * time.Microsecond
