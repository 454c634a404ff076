package panda

// WireKind is the kind of a Panda protocol message.
type WireKind uint8

const (
	WireREQ       WireKind = iota + 1 // RPC request
	WireREP                           // RPC reply
	WireACK                           // explicit acknowledgement of an RPC reply
	WireGrpREQ                        // member → sequencer: ordering request (PB method)
	WireGrpDATA                       // sequencer → members: ordered data
	WireGrpBB                         // member → all: data of the BB method
	WireGrpACCEPT                     // sequencer → members: BB-method accept
	WireGrpRETR                       // member → sequencer: retransmission request
	WireGrpSYNC                       // sequencer → member: status probe
	WireGrpSTATUS                     // member → sequencer: delivery watermark
	WireRAW                           // system-layer test message (Table 1)
)

// Wire is one Panda protocol message, header and payload, as each
// placement carries it: in the kernel's FLIP packets, over raw FLIP in
// user space, and by reference in queue-pair descriptors under bypass.
type Wire struct {
	Kind    WireKind
	GID     int // group id (group kinds only)
	From    int
	Seq     uint64
	AckSeq  uint64
	TmpID   uint64
	Lo, Hi  uint64
	Op      uint64 // a group request's causal operation, copied into its data and accept
	Payload any
	Size    int
}
