package topo

import (
	"dumbnet/internal/packet"
)

// Topology patches are the controller's stage-2 failure-handling messages
// (§4.2): small op lists that hosts apply to their TopoCache. They also
// carry the bootstrap "hello" that tells a freshly discovered host where
// the controller lives.

// PatchOpKind discriminates patch operations.
type PatchOpKind uint8

// Patch operation kinds.
const (
	OpInvalid PatchOpKind = iota
	// OpLinkDown removes the link leaving (Switch, Port).
	OpLinkDown
	// OpLinkUp adds the link A:PA <-> B:PB.
	OpLinkUp
	// Kind 3 is reserved, so that OpHello keeps its byte value;
	// UnmarshalPatch refuses it.
	_
	// OpHello carries bootstrap info: the controller's identity and the
	// tag path from the receiving host to it, plus the host's own
	// attachment point.
	OpHello
)

// PatchOp is one topology mutation.
type PatchOp struct {
	Kind PatchOpKind

	// OpLinkDown
	Switch SwitchID
	Port   Port

	// OpLinkUp
	A, B   SwitchID
	PA, PB Port

	// OpHello
	Attach   HostAttach
	Ctrl     MAC
	CtrlPath packet.Path
}

// Patch is a versioned list of ops. Version is the controller's topology
// epoch; hosts ignore patches older than what they have applied.
type Patch struct {
	Version uint64
	Ops     []PatchOp
}

// Apply mutates a subgraph cache with the patch ops. Hello ops are skipped
// (they are interpreted by the host agent, not the cache).
func (p *Patch) Apply(s *Subgraph) {
	for _, op := range p.Ops {
		switch op.Kind {
		case OpLinkDown:
			s.RemoveEdgeByPort(op.Switch, op.Port)
		case OpLinkUp:
			s.AddEdge(op.A, op.PA, op.B, op.PB)
		}
	}
}

const patchMagic = 0xD0B4

// Marshal serialises the patch. A hello's controller path is written whole,
// not truncated like a control message's: UnmarshalPatch refuses one over
// packet.MaxPathLen.
func (p *Patch) Marshal() []byte {
	var w packet.Writer
	writeHeader(&w, patchMagic)
	w.U64(p.Version)
	w.U16(uint16(len(p.Ops)))
	for _, op := range p.Ops {
		w.U8(uint8(op.Kind))
		switch op.Kind {
		case OpLinkDown:
			w.U32(uint32(op.Switch))
			w.U8(op.Port)
		case OpLinkUp:
			w.U32(uint32(op.A))
			w.U8(op.PA)
			w.U32(uint32(op.B))
			w.U8(op.PB)
		case OpHello:
			writeAttach(&w, op.Attach)
			w.MAC(op.Ctrl)
			w.U16(uint16(len(op.CtrlPath)))
			w.Raw(op.CtrlPath)
		}
	}
	return w.Bytes()
}

// UnmarshalPatch parses a serialized patch.
func UnmarshalPatch(b []byte) (*Patch, error) {
	r := packet.NewReader(b)
	readHeader(&r, patchMagic)
	p := &Patch{Version: r.U64()}
	n := int(r.U16())
	if !r.Ok() || n > 1<<20 {
		return nil, ErrBadTopology
	}
	for i := 0; i < n && r.Ok(); i++ {
		op := PatchOp{Kind: PatchOpKind(r.U8())}
		switch op.Kind {
		case OpLinkDown:
			op.Switch, op.Port = SwitchID(r.U32()), r.U8()
		case OpLinkUp:
			op.A, op.PA, op.B, op.PB = SwitchID(r.U32()), r.U8(), SwitchID(r.U32()), r.U8()
		case OpHello:
			op.Attach, op.Ctrl, op.CtrlPath = readAttach(&r), r.MAC(), r.Path()
		default:
			return nil, ErrBadTopology
		}
		p.Ops = append(p.Ops, op)
	}
	if !r.Ok() || len(r.Rest()) != 0 {
		return nil, ErrBadTopology
	}
	return p, nil
}
