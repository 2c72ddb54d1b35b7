// Package dswitch models DumbNet's stateless switch (paper §3.1, §5.3) on
// the discrete-event simulator, plus a conventional learning switch used as
// the "native Ethernet" baseline.
//
// The dumb switch does exactly three things:
//
//  1. forward packets by examining (and popping) the first routing tag —
//     no tables, no lookup;
//  2. reply with its fixed unique ID when the first tag is the ID-query
//     marker;
//  3. monitor its ports in hardware and flood hop-limited link-event
//     notifications on state changes, with duplicate-alarm suppression.
//
// Nothing else: the switch keeps no forwarding state and needs no
// configuration.
package dswitch

import (
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/trace"
)

// Config tunes the (few) physical characteristics of a dumb switch.
type Config struct {
	// ForwardDelay is the per-hop pipeline latency (pop label + demux).
	ForwardDelay sim.Time
	// NotifyHops is the flood hop limit for link-event broadcasts
	// (paper: "a max of 5 hops is often enough").
	NotifyHops uint8
	// SuppressWindow is the minimum spacing between repeated alarms for
	// the same port (paper: "switches suppress alarms for 1 second").
	SuppressWindow sim.Time
	// ECNThreshold enables congestion marking (the §8 extension): frames
	// transmitted onto a port whose queue backlog exceeds this delay get
	// the CE flag — one constant-offset OR per frame, zero switch state.
	// 0 disables marking.
	ECNThreshold sim.Time
}

// DefaultConfig mirrors the paper's constants; forwarding latency matches a
// shallow two-stage hardware pipeline.
func DefaultConfig() Config {
	return Config{
		ForwardDelay:   500 * sim.Nanosecond,
		NotifyHops:     5,
		SuppressWindow: sim.Second,
	}
}

// Stats counts what the switch did.
type Stats struct {
	Forwarded      uint64 // data frames forwarded by tag
	IDReplies      uint64 // ID-query replies generated
	FloodsIn       uint64 // control broadcasts received (link + group events)
	FloodsOut      uint64 // control broadcast transmissions
	FloodsSquelch  uint64 // duplicate broadcast copies dropped by storm control
	McastIn        uint64 // multicast tree frames received
	McastFanout    uint64 // multicast branch copies transmitted
	DropBadMcast   uint64 // multicast frames with malformed trees
	DropNoPort     uint64 // tag named an unwired or out-of-range port
	DropLinkDown   uint64 // tag named a port whose link is down
	DropBadFrame   uint64 // unparseable frames
	DropEndOfPath  uint64 // ø reached a switch instead of a host
	DropSwitchDown uint64 // frames that arrived while the switch was crashed
	ECNMarked      uint64 // frames marked congestion-experienced
	AlarmsSent     uint64 // port state alarms originated here
	AlarmsSquelch  uint64 // alarms deferred by the per-port window
}

// Switch is one dumb switch instance.
type Switch struct {
	id    packet.SwitchID
	eng   *sim.Engine
	cfg   Config
	links []*sim.Link // index 0 unused; ports are 1-based
	up    []bool      // cached port state, updated by PortStateChanged

	alarmSeq     uint64
	lastAlarm    []sim.Time // per-port time of last alarm sent (or -inf)
	lastAlarmUp  []bool     // per-port state last advertised by an alarm
	alarmPending []bool     // per-port trailing alarm scheduled

	// floodSeen is the broadcast storm-control table: a small direct-mapped
	// signature CAM of recently forwarded link events. Multipath fabrics are
	// full of cycles, and a hop-limited flood with no duplicate suppression
	// multiplies by (ports-1) per hop — ~15^5 copies for one alarm on a k=16
	// fat-tree. Real switch ASICs bound this with storm control; we keep one
	// fixed-size table (no per-flow state, so the switch stays dumb) and
	// re-flood each distinct (switch, port, seq, up) signature at most once.
	// A collision evicts the older signature — worst case a duplicate is
	// forwarded again, never lost.
	floodSeen [128]floodSig

	// down marks a crashed switch: no forwarding, no alarms, ports dark.
	down bool
	// crashCut marks ports whose links this switch downed when it crashed,
	// so Restart brings back exactly those.
	crashCut []bool

	stats Stats
}

// New creates a switch with the given unique ID and port count.
func New(eng *sim.Engine, id packet.SwitchID, ports int, cfg Config) *Switch {
	s := &Switch{
		id:           id,
		eng:          eng,
		cfg:          cfg,
		links:        make([]*sim.Link, ports+1),
		up:           make([]bool, ports+1),
		lastAlarm:    make([]sim.Time, ports+1),
		lastAlarmUp:  make([]bool, ports+1),
		alarmPending: make([]bool, ports+1),
	}
	for i := range s.lastAlarm {
		s.lastAlarm[i] = -1 << 62
	}
	return s
}

// ID returns the switch's fixed unique identifier.
func (s *Switch) ID() packet.SwitchID { return s.id }

// Stats returns a copy of the counters.
func (s *Switch) Stats() Stats { return s.stats }

// AttachLink wires a link to a local port. Called by fabric assembly.
func (s *Switch) AttachLink(port int, l *sim.Link) {
	s.links[port] = l
	s.up[port] = l.Up()
	s.lastAlarmUp[port] = l.Up()
}

// LinkAt returns the link on a port (nil if unwired).
func (s *Switch) LinkAt(port int) *sim.Link {
	if port < 1 || port >= len(s.links) {
		return nil
	}
	return s.links[port]
}

// Ports returns the port count.
func (s *Switch) Ports() int { return len(s.links) - 1 }

// Down reports whether the switch is crashed.
func (s *Switch) Down() bool { return s.down }

// Crash powers the switch off: every attached link goes dark (its far ends
// see the physical link-down signal), arriving frames are dropped, and no
// alarms originate here — a dead switch cannot announce its own death, its
// neighbours do (§4.2 stage 1 still works because alarms are per-port and
// both sides of a link observe the loss of light).
func (s *Switch) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.crashCut = make([]bool, len(s.links))
	for p := 1; p < len(s.links); p++ {
		if l := s.links[p]; l != nil && l.Up() {
			s.crashCut[p] = true
			l.SetUp(false)
		}
	}
}

// Restart powers a crashed switch back on, restoring exactly the links it
// took down at crash time (links failed independently stay failed). Boot
// also re-advertises every port that is up: a link may have been restored
// by the far side while this switch was dark (that link-up alarm died
// here), so the boot-time port interrupts are the only way the rest of the
// fabric learns those links are back.
func (s *Switch) Restart() {
	if !s.down {
		return
	}
	s.down = false
	for p := 1; p < len(s.links); p++ {
		l := s.links[p]
		if l == nil {
			continue
		}
		if s.crashCut != nil && s.crashCut[p] {
			l.SetUp(true) // notifies both ends, alarming through PortStateChanged
			continue
		}
		if l.Up() {
			port := p
			s.eng.After(0, func() { s.PortStateChanged(port, true) })
		}
	}
	s.crashCut = nil
}

// Receive implements sim.Node: the entire dataplane. Both DumbNet
// encodings are forwarded — the native one-byte tag stack and the MPLS
// label stack used on commodity switches (§5.3); a frame's EtherType
// selects the pop stage, exactly as static MPLS label→port rules would.
func (s *Switch) Receive(inPort int, frame []byte) {
	if s.down {
		s.stats.DropSwitchDown++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropSwitchDown, frame)
		return
	}
	if len(frame) >= packet.EthernetHeaderLen {
		switch EtherTypeOf(frame) {
		case packet.EtherTypeMPLS:
			s.receiveMPLS(frame)
			return
		case packet.EtherTypeDumbNetMcast:
			s.receiveMcast(frame)
			return
		}
	}
	tag, err := packet.TopTag(frame)
	if err != nil {
		s.stats.DropBadFrame++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropBadFrame, frame)
		return
	}
	switch tag {
	case packet.TagEnd:
		s.handleEndOfPath(inPort, frame)
	case packet.TagIDQuery:
		s.handleIDQuery(frame)
	default:
		s.forward(frame)
	}
}

// receiveMPLS is the commodity-deployment pop stage: the top label is the
// output port; the ID-query label is punted to the switch "CPU" like the
// paper's UDP-based query handling.
func (s *Switch) receiveMPLS(frame []byte) {
	label, bottom, err := packet.TopLabelMPLS(frame)
	if err != nil || bottom {
		// ø at a switch: a misrouted frame in the MPLS encoding.
		s.stats.DropEndOfPath++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropEndOfPath, frame)
		return
	}
	if label == packet.TagIDQuery {
		s.handleIDQueryMPLS(frame)
		return
	}
	rest, tag, err := packet.PopLabelMPLS(frame)
	if err != nil {
		s.stats.DropBadFrame++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropBadFrame, frame)
		return
	}
	if s.transmit(int(tag), rest, &s.stats.Forwarded) {
		s.eng.Tracer().PacketHop(int64(s.eng.Now()), int64(s.cfg.ForwardDelay), s.id, tag, rest)
	}
}

// handleIDQueryMPLS answers an ID query carried in the MPLS encoding.
func (s *Switch) handleIDQueryMPLS(frame []byte) {
	var f packet.Frame
	if err := packet.DecodeMPLSFrom(&f, frame); err != nil || len(f.Tags) < 2 {
		s.stats.DropBadFrame++
		return
	}
	var seq uint64
	if t, msg, err := packet.DecodeControl(f.Payload); err == nil && t == packet.MsgProbe {
		seq = msg.(*packet.Probe).Seq
	}
	body, err := packet.EncodeControl(packet.MsgIDReply, &packet.IDReply{ID: s.id, Seq: seq})
	if err != nil {
		s.stats.DropBadFrame++
		return
	}
	returnPath := f.Tags[1:]
	reply := packet.Frame{
		Dst:       f.Src,
		Src:       f.Dst,
		Tags:      returnPath[1:],
		InnerType: packet.EtherTypeControl,
		Payload:   body,
	}
	buf := packet.GetBuffer(packet.EncodedLenMPLS(len(reply.Tags), len(reply.Payload)))
	if _, err := reply.EncodeMPLSTo(buf); err != nil {
		s.stats.DropBadFrame++
		return
	}
	s.transmit(int(returnPath[0]), buf, &s.stats.IDReplies)
}

// receiveMcast is the replicate-and-forward stage: pop the top tree block
// and transmit one copy per branch, each carrying only that branch's
// subtree. Like unicast forwarding it is stateless and allocation-free —
// branch frames come from the frame pool and the fully-consumed original
// goes back to it. Init validates the whole block before the first copy
// goes out, so a malformed tree forks nothing.
func (s *Switch) receiveMcast(frame []byte) {
	var it packet.McastBranches
	if err := it.Init(frame); err != nil {
		s.stats.DropBadMcast++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropBadFrame, frame)
		return
	}
	s.stats.McastIn++
	tail := it.Tail()
	now := int64(s.eng.Now())
	for it.Next() {
		sub := it.Sub()
		buf := packet.GetBuffer(packet.McastBranchLen(len(sub), len(tail)))
		packet.BuildMcastBranch(buf, frame, sub, tail)
		if s.transmit(int(it.Port()), buf, &s.stats.McastFanout) {
			s.eng.Tracer().PacketHop(now, int64(s.cfg.ForwardDelay), s.id, it.Port(), buf)
		}
	}
	// Every branch copied what it needed; the original is dead. The link
	// layer hands off frame ownership at Receive, so recycling is safe.
	packet.PutBuffer(frame)
}

// forward pops the top tag and transmits out that port after the pipeline
// delay.
func (s *Switch) forward(frame []byte) {
	rest, tag, err := packet.PopTag(frame)
	if err != nil {
		s.stats.DropBadFrame++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropBadFrame, frame)
		return
	}
	if s.transmit(int(tag), rest, &s.stats.Forwarded) {
		s.eng.Tracer().PacketHop(int64(s.eng.Now()), int64(s.cfg.ForwardDelay), s.id, tag, rest)
	}
}

// transmit sends a frame out a port, counting okCounter on success; it
// reports whether the frame went out.
func (s *Switch) transmit(port int, frame []byte, okCounter *uint64) bool {
	if port < 1 || port >= len(s.links) || s.links[port] == nil {
		s.stats.DropNoPort++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropNoPort, frame)
		return false
	}
	l := s.links[port]
	if !l.Up() {
		s.stats.DropLinkDown++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropLinkDown, frame)
		return false
	}
	if okCounter != nil {
		*okCounter++
	}
	if s.cfg.ECNThreshold > 0 && l.Backlog(s) > s.cfg.ECNThreshold {
		packet.MarkCE(frame)
		s.stats.ECNMarked++
	}
	l.SendFromAfter(s, frame, s.cfg.ForwardDelay)
	return true
}

// handleIDQuery implements the switch-CPU punt path: the tag stack after
// the query marker is the return path. A probe payload gets the fixed-ID
// reply with its sequence echoed; a stats request (the §8 extension) gets
// the soft-state counter snapshot.
func (s *Switch) handleIDQuery(frame []byte) {
	var f packet.Frame
	if err := packet.DecodeFrom(&f, frame); err != nil || len(f.Tags) < 2 {
		// Need at least the query marker plus one return hop.
		s.stats.DropBadFrame++
		return
	}
	var seq uint64
	var body []byte
	var err error
	t, msg, derr := packet.DecodeControl(f.Payload)
	if derr == nil && t == packet.MsgStatsRequest {
		req := msg.(*packet.StatsRequest)
		body, err = packet.EncodeControl(packet.MsgStatsReply, &packet.StatsReply{
			ID:        s.id,
			Seq:       req.Seq,
			Forwarded: s.stats.Forwarded,
			Dropped:   s.stats.DropNoPort + s.stats.DropLinkDown + s.stats.DropBadFrame + s.stats.DropEndOfPath,
			Marked:    s.stats.ECNMarked,
			Floods:    s.stats.FloodsOut,
		})
	} else {
		if derr == nil && t == packet.MsgProbe {
			seq = msg.(*packet.Probe).Seq
		}
		body, err = packet.EncodeControl(packet.MsgIDReply, &packet.IDReply{ID: s.id, Seq: seq})
	}
	if err != nil {
		s.stats.DropBadFrame++
		return
	}
	returnPath := f.Tags[1:] // drop the query marker
	reply := packet.Frame{
		Dst:       f.Src,
		Src:       f.Dst,
		Tags:      returnPath[1:],
		InnerType: packet.EtherTypeControl,
		Payload:   body,
	}
	buf := packet.GetBuffer(packet.EncodedLen(len(reply.Tags), len(reply.Payload)))
	if _, err := reply.EncodeTo(buf); err != nil {
		s.stats.DropBadFrame++
		return
	}
	s.transmit(int(returnPath[0]), buf, &s.stats.IDReplies)
}

// handleEndOfPath processes frames whose path terminates at this switch.
// The only legitimate case is a hop-limited link-event broadcast; anything
// else is a misrouted data frame and is dropped.
func (s *Switch) handleEndOfPath(inPort int, frame []byte) {
	var f packet.Frame
	if err := packet.DecodeFrom(&f, frame); err != nil || f.InnerType != packet.EtherTypeControl {
		s.stats.DropEndOfPath++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropEndOfPath, frame)
		return
	}
	t, msg, err := packet.DecodeControl(f.Payload)
	if err != nil {
		s.stats.DropEndOfPath++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropEndOfPath, frame)
		return
	}
	switch t {
	case packet.MsgLinkEvent:
		ev := msg.(*packet.LinkEvent)
		s.stats.FloodsIn++
		if ev.HopsLeft == 0 {
			return
		}
		if s.floodSeenBefore(floodKindLink, uint32(ev.Switch), ev.Port, ev.Seq, ev.Up) {
			s.stats.FloodsSquelch++
			return
		}
		ev.HopsLeft--
		s.floodLinkEvent(ev, inPort)
	case packet.MsgGroupEvent:
		ev := msg.(*packet.GroupEvent)
		s.stats.FloodsIn++
		if ev.HopsLeft == 0 {
			return
		}
		if s.floodSeenBefore(floodKindGroup, ev.Group, 0, ev.Gen, false) {
			s.stats.FloodsSquelch++
			return
		}
		ev.HopsLeft--
		s.floodGroupEvent(ev, inPort)
	default:
		s.stats.DropEndOfPath++
		s.eng.Tracer().PacketDrop(int64(s.eng.Now()), s.id, trace.DropEndOfPath, frame)
	}
}

// Storm-control signature kinds. The table is shared by every flooded
// control event type, so the kind is part of the signature: without it a
// group event whose (group, gen) happened to collide with a link event's
// (switch, seq) in the same slot would be squelched as a duplicate —
// storm control silently eating legitimate tree-maintenance traffic.
const (
	floodKindLink uint8 = iota + 1
	floodKindGroup
)

// floodSig is one storm-control signature; HopsLeft is deliberately
// excluded so copies arriving over different-length paths still match.
type floodSig struct {
	kind uint8
	sw   uint32
	port packet.Tag
	seq  uint64
	up   bool
	used bool
}

// floodSeenBefore checks the storm-control table for the event's signature
// and records it when absent. Returns true if this switch already forwarded
// (or originated) the event.
func (s *Switch) floodSeenBefore(kind uint8, sw uint32, port packet.Tag, seq uint64, up bool) bool {
	sig := floodSig{kind: kind, sw: sw, port: port, seq: seq, up: up, used: true}
	slot := (uint64(sw)*2654435761 + uint64(port)*40503 + seq*2246822519 + uint64(kind)*97) % uint64(len(s.floodSeen))
	if s.floodSeen[slot] == sig {
		return true
	}
	s.floodSeen[slot] = sig
	return false
}

// floodGroupEvent re-floods a group-generation notice out every up port
// except exceptPort, exactly like a link event.
func (s *Switch) floodGroupEvent(ev *packet.GroupEvent, exceptPort int) {
	body, err := packet.EncodeControl(packet.MsgGroupEvent, ev)
	if err != nil {
		return
	}
	f := packet.Frame{
		Dst:       packet.BroadcastMAC,
		Tags:      nil,
		InnerType: packet.EtherTypeControl,
		Payload:   body,
	}
	need := packet.EncodedLen(0, len(body))
	for port := 1; port < len(s.links); port++ {
		if port == exceptPort || s.links[port] == nil || !s.links[port].Up() {
			continue
		}
		buf := packet.GetBuffer(need)
		if _, err := f.EncodeTo(buf); err != nil {
			return
		}
		s.transmit(port, buf, &s.stats.FloodsOut)
	}
}

// floodLinkEvent sends a link-event broadcast out every up port except
// exceptPort (0 floods everywhere).
func (s *Switch) floodLinkEvent(ev *packet.LinkEvent, exceptPort int) {
	body, err := packet.EncodeControl(packet.MsgLinkEvent, ev)
	if err != nil {
		return
	}
	f := packet.Frame{
		Dst:       packet.BroadcastMAC,
		Tags:      nil, // ø immediately: consumed by each receiver
		InnerType: packet.EtherTypeControl,
		Payload:   body,
	}
	need := packet.EncodedLen(0, len(body))
	for port := 1; port < len(s.links); port++ {
		if port == exceptPort || s.links[port] == nil || !s.links[port].Up() {
			continue
		}
		// Each port gets its own buffer: the link owns it after transmit.
		buf := packet.GetBuffer(need)
		if _, err := f.EncodeTo(buf); err != nil {
			return
		}
		s.transmit(port, buf, &s.stats.FloodsOut)
	}
}

// PortStateChanged implements sim.PortMonitor: the hardware link signal.
// The switch originates a hop-limited link-event flood, damping flapping
// links with the per-port suppression window. Suppression is deferred, not
// lossy: a change inside the window schedules a trailing alarm at window
// expiry that advertises the port's state at that moment if it differs from
// the last state alarmed — so the network always eventually hears the truth,
// at most one alarm per window per port.
func (s *Switch) PortStateChanged(port int, up bool) {
	if port >= 1 && port < len(s.up) {
		s.up[port] = up
	}
	if s.down {
		return // a crashed switch raises no alarms
	}
	now := s.eng.Now()
	if now-s.lastAlarm[port] < s.cfg.SuppressWindow {
		s.stats.AlarmsSquelch++
		if port >= 1 && port < len(s.alarmPending) && !s.alarmPending[port] {
			s.alarmPending[port] = true
			s.eng.At(s.lastAlarm[port]+s.cfg.SuppressWindow, func() { s.trailingAlarm(port) })
		}
		return
	}
	s.sendAlarm(port, up)
}

// trailingAlarm fires when a port's suppression window expires: if the port
// state settled somewhere the last alarm did not advertise, alarm now.
func (s *Switch) trailingAlarm(port int) {
	s.alarmPending[port] = false
	if s.down {
		return
	}
	if s.up[port] == s.lastAlarmUp[port] {
		return // flapped back to the advertised state; nothing to say
	}
	s.sendAlarm(port, s.up[port])
}

// sendAlarm originates one link-event flood and opens a new suppression
// window for the port.
func (s *Switch) sendAlarm(port int, up bool) {
	s.lastAlarm[port] = s.eng.Now()
	s.lastAlarmUp[port] = up
	s.alarmSeq++
	s.stats.AlarmsSent++
	s.eng.Tracer().Recovery(int64(s.eng.Now()), trace.RecoveryDetect, s.id, packet.Tag(port), up, packet.MAC{}, packet.MAC{})
	ev := &packet.LinkEvent{
		Switch:   s.id,
		Port:     packet.Tag(port),
		Up:       up,
		Seq:      s.alarmSeq,
		HopsLeft: s.cfg.NotifyHops,
	}
	// Record our own alarm in the storm-control table so copies echoed back
	// around fabric cycles die here instead of re-flooding.
	s.floodSeenBefore(floodKindLink, uint32(ev.Switch), ev.Port, ev.Seq, ev.Up)
	s.floodLinkEvent(ev, 0)
}
