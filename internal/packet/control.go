package packet

import "fmt"

// Control-plane message formats carried as DumbNet frame payloads:
// topology-discovery probes and replies (paper §4.1), the two-stage link
// failure notifications (§4.2), and host↔controller path-graph traffic
// (§4.3). Every message is a one-byte type followed by fixed binary fields
// and an optional opaque body, encoded big-endian.

// EtherTypeControl marks a DumbNet control-plane payload (inner EtherType).
const EtherTypeControl uint16 = 0x9801

// MsgType identifies a control message.
type MsgType uint8

// Control message types.
const (
	MsgInvalid MsgType = iota
	// MsgProbe is a topology-discovery probe message (PM). Its payload
	// carries the probe's origin and the entire outbound tag path so the
	// receiver can construct the reverse path.
	MsgProbe
	// MsgProbeReply answers a probe with the responder's identity.
	MsgProbeReply
	// MsgIDReply is a switch's answer to an ID-query tag: its unique ID.
	MsgIDReply
	// MsgLinkEvent is a port up/down notification originated by a switch
	// and flooded with a hop limit (failure handling stage 1, on-switch).
	MsgLinkEvent
	// MsgHostFlood is the host-based flooding of a link event (failure
	// handling stage 1, on-host).
	MsgHostFlood
	// MsgPathRequest asks the controller for paths to a destination.
	MsgPathRequest
	// MsgPathResponse returns a serialized path graph.
	MsgPathResponse
	// MsgTopoPatch is the controller's stage-2 topology patch flood.
	MsgTopoPatch
	// Wire number 9 is reserved, so that the types below keep their byte
	// values; both directions refuse it.
	_
	// MsgCongestion is a receiver's echo of a congestion-experienced mark
	// back to the sender (the ECN extension, §8): like TCP's ECE, it tells
	// the source which destination's path is congested.
	MsgCongestion
	// MsgCtrlList advertises the ordered controller replica set to a host,
	// with per-host tag paths: the bootstrap information stage-1 failover
	// to a backup controller relies on when the primary dies.
	MsgCtrlList
	// MsgStatsRequest asks a switch for its soft-state packet counters
	// (the §8 statistics extension). Carried like an ID query: the request
	// rides a probe path whose query tag punts it to the switch CPU.
	MsgStatsRequest
	// MsgStatsReply is the switch's counter snapshot.
	MsgStatsReply
	// MsgGroupEvent is a multicast-group generation notice, flooded with a
	// hop limit like a link event: the controller bumps a group's
	// generation on membership change or tree repair and hosts drop their
	// cached sender trees for that group.
	MsgGroupEvent
)

// msgNames names every known message type; a type without a name here is
// unknown to both EncodeControl and DecodeControl.
var msgNames = [...]string{
	MsgProbe:        "probe",
	MsgProbeReply:   "probe-reply",
	MsgIDReply:      "id-reply",
	MsgLinkEvent:    "link-event",
	MsgHostFlood:    "host-flood",
	MsgPathRequest:  "path-request",
	MsgPathResponse: "path-response",
	MsgTopoPatch:    "topo-patch",
	MsgCongestion:   "congestion",
	MsgCtrlList:     "ctrl-list",
	MsgStatsRequest: "stats-request",
	MsgStatsReply:   "stats-reply",
	MsgGroupEvent:   "group-event",
}

func (t MsgType) known() bool { return int(t) < len(msgNames) && msgNames[t] != "" }

// String names the message type.
func (t MsgType) String() string {
	if t.known() {
		return msgNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// SwitchID is the fixed unique identifier burned into each dumb switch.
type SwitchID uint32

// Probe is a topology-discovery probe message. The prober knows the exact
// hop sequence it is testing, so it embeds the precomputed reverse tag path
// a responder must use to reply (§4.1: "reply to the sender using the
// reverse path contained in the payload").
type Probe struct {
	Origin MAC    // the probing host
	Seq    uint64 // matches replies to outstanding probes
	Path   Path   // the full outbound tag path, as placed in the header
	Return Path   // reverse tag path from the probed endpoint back to Origin
}

// ProbeReply answers a Probe.
type ProbeReply struct {
	Responder MAC    // identity of the replying host
	Seq       uint64 // echoed from the probe
	Path      Path   // echoed outbound path the probe travelled
	KnowsCtrl bool   // responder knows the controller's location
}

// IDReply is a switch's response to an ID-query tag.
type IDReply struct {
	ID  SwitchID
	Seq uint64 // echoed from the probing packet's payload, if present
}

// LinkEvent reports a port state change at a switch.
type LinkEvent struct {
	Switch   SwitchID
	Port     Tag
	Up       bool
	Seq      uint64 // per-switch notification sequence, for suppression
	HopsLeft uint8  // flood hop limit, decremented per switch
}

// PathRequest asks the controller for paths from Src to Dst.
type PathRequest struct {
	Src, Dst MAC
	Seq      uint64
}

// StatsRequest asks for a switch's counters.
type StatsRequest struct {
	Origin MAC
	Seq    uint64
}

// StatsReply is the switch's soft-state counter snapshot — the "packet
// statistics" mechanism the paper's conclusion proposes adding to the dumb
// switch. Losing it costs nothing; it never affects forwarding.
type StatsReply struct {
	ID        SwitchID
	Seq       uint64
	Forwarded uint64
	Dropped   uint64
	Marked    uint64 // ECN marks applied
	Floods    uint64 // link-event broadcast transmissions
}

// GroupEvent announces a multicast group's new generation. It floods the
// fabric hop-limited exactly like a LinkEvent; hosts that cache a sender
// tree for Group drop it and refetch from the controller.
type GroupEvent struct {
	Group    uint32
	Gen      uint64 // group generation after the change (0 = deleted)
	HopsLeft uint8  // flood hop limit, decremented per switch
}

// Congestion is the ECN echo payload.
type Congestion struct {
	Reporter MAC    // the host that saw the CE mark
	Seq      uint64 // reporter-local sequence for dedup/rate accounting
}

// CtrlReplica is one controller replica advertisement: the replica's host
// identity plus the tag path from the advertised host to it. An empty path
// on a non-self replica means "route via your own cache".
type CtrlReplica struct {
	MAC  MAC
	Path Path
}

// CtrlList is the controller replica set, ordered by failover preference.
type CtrlList struct {
	Seq      uint64
	Replicas []CtrlReplica
}

// Blob wraps opaque bytes for MsgPathResponse, MsgTopoPatch and MsgHostFlood
// payloads whose structure belongs to higher layers.
type Blob struct {
	Seq  uint64
	Body []byte
}

// EncodeControl serialises a control message; msg must be the struct above
// that t carries (*Blob for the blob-carrying types). Paths longer than
// MaxPathLen are truncated.
func EncodeControl(t MsgType, msg any) ([]byte, error) {
	if !t.known() {
		return nil, ErrUnknownMsgType
	}
	size := 64 // every fixed-size message, and a probe whose paths total 45 tags
	if m, ok := msg.(*Blob); ok {
		size = 13 + len(m.Body)
	}
	w := NewWriter(size)
	w.U8(uint8(t))
	var carries MsgType // the type msg's layout encodes
	switch m := msg.(type) {
	case *Probe:
		carries = MsgProbe
		w.MAC(m.Origin)
		w.U64(m.Seq)
		w.Path(m.Path)
		w.Path(m.Return)
	case *ProbeReply:
		carries = MsgProbeReply
		w.MAC(m.Responder)
		w.U64(m.Seq)
		w.Bool(m.KnowsCtrl)
		w.Path(m.Path)
	case *IDReply:
		carries = MsgIDReply
		w.U32(uint32(m.ID))
		w.U64(m.Seq)
	case *LinkEvent:
		carries = MsgLinkEvent
		w.U32(uint32(m.Switch))
		w.U8(m.Port)
		w.Bool(m.Up)
		w.U64(m.Seq)
		w.U8(m.HopsLeft)
	case *PathRequest:
		carries = MsgPathRequest
		w.MAC(m.Src)
		w.MAC(m.Dst)
		w.U64(m.Seq)
	case *Congestion:
		carries = MsgCongestion
		w.MAC(m.Reporter)
		w.U64(m.Seq)
	case *StatsRequest:
		carries = MsgStatsRequest
		w.MAC(m.Origin)
		w.U64(m.Seq)
	case *StatsReply:
		carries = MsgStatsReply
		w.U32(uint32(m.ID))
		w.U64(m.Seq)
		w.U64(m.Forwarded)
		w.U64(m.Dropped)
		w.U64(m.Marked)
		w.U64(m.Floods)
	case *CtrlList:
		if len(m.Replicas) <= 255 {
			carries = MsgCtrlList
		}
		w.U64(m.Seq)
		w.U8(uint8(len(m.Replicas)))
		for _, r := range m.Replicas {
			w.MAC(r.MAC)
			w.Path(r.Path)
		}
	case *GroupEvent:
		carries = MsgGroupEvent
		w.U32(m.Group)
		w.U64(m.Gen)
		w.U8(m.HopsLeft)
	case *Blob:
		if t == MsgHostFlood || t == MsgPathResponse || t == MsgTopoPatch {
			carries = t
		}
		w.U64(m.Seq)
		w.U32(uint32(len(m.Body)))
		w.Raw(m.Body)
	}
	if carries != t {
		return nil, ErrBadControlMsg
	}
	return w.Bytes(), nil
}

// DecodeControl parses a control message, returning its type and one of the
// message structs above. Bytes after a fixed layout are ignored; a blob's
// length must cover exactly the rest.
func DecodeControl(b []byte) (MsgType, any, error) {
	if len(b) < 1 {
		return MsgInvalid, nil, ErrBadControlMsg
	}
	t := MsgType(b[0])
	if !t.known() {
		return MsgInvalid, nil, ErrUnknownMsgType
	}
	r := NewReader(b[1:])
	var msg any
	switch t {
	case MsgProbe:
		msg = &Probe{Origin: r.MAC(), Seq: r.U64(), Path: r.Path(), Return: r.Path()}
	case MsgProbeReply:
		msg = &ProbeReply{Responder: r.MAC(), Seq: r.U64(), KnowsCtrl: r.Bool(), Path: r.Path()}
	case MsgIDReply:
		msg = &IDReply{ID: SwitchID(r.U32()), Seq: r.U64()}
	case MsgLinkEvent:
		msg = &LinkEvent{Switch: SwitchID(r.U32()), Port: r.U8(), Up: r.Bool(), Seq: r.U64(), HopsLeft: r.U8()}
	case MsgPathRequest:
		msg = &PathRequest{Src: r.MAC(), Dst: r.MAC(), Seq: r.U64()}
	case MsgCongestion:
		msg = &Congestion{Reporter: r.MAC(), Seq: r.U64()}
	case MsgStatsRequest:
		msg = &StatsRequest{Origin: r.MAC(), Seq: r.U64()}
	case MsgStatsReply:
		msg = &StatsReply{ID: SwitchID(r.U32()), Seq: r.U64(),
			Forwarded: r.U64(), Dropped: r.U64(), Marked: r.U64(), Floods: r.U64()}
	case MsgCtrlList:
		m := &CtrlList{Seq: r.U64()}
		for n := r.U8(); n > 0 && r.Ok(); n-- {
			m.Replicas = append(m.Replicas, CtrlReplica{MAC: r.MAC(), Path: r.Path()})
		}
		msg = m
	case MsgGroupEvent:
		msg = &GroupEvent{Group: r.U32(), Gen: r.U64(), HopsLeft: r.U8()}
	default: // MsgHostFlood, MsgPathResponse, MsgTopoPatch
		m := &Blob{Seq: r.U64()}
		if n := r.U32(); int(n) != len(r.Rest()) {
			r.Fail()
		}
		m.Body = append([]byte(nil), r.Rest()...)
		msg = m
	}
	if !r.Ok() {
		return MsgInvalid, nil, ErrBadControlMsg
	}
	return t, msg, nil
}
