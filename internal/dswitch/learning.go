package dswitch

import (
	"encoding/binary"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// LearningSwitch is a conventional Ethernet switch: it floods unknown
// destinations and learns source MAC → port bindings from traffic. It is
// the "native Ethernet" baseline in the latency experiments and the
// substrate the spanning-tree baseline (internal/stp) runs on.
//
// Unlike the dumb switch it keeps per-address forwarding state — exactly
// the state DumbNet exists to remove.
type LearningSwitch struct {
	id    packet.SwitchID
	eng   *sim.Engine
	delay sim.Time
	links []*sim.Link
	table map[packet.MAC]int // learned MAC -> port

	// blocked marks ports disabled by a spanning-tree controller; frames
	// are neither accepted from nor flooded to blocked ports.
	blocked []bool

	// monitor, when set, receives port state changes (used by STP).
	monitor func(port int, up bool)

	// control, when set, sees every incoming frame before normal
	// switching; returning true consumes it (BPDUs are processed even on
	// blocked ports, per 802.1D). It must not keep the frame: the switch
	// returns a consumed frame to the pool.
	control func(inPort int, frame []byte) bool

	// mplsRules enables the static DumbNet label→port rules.
	mplsRules bool

	stats LearningStats
}

// LearningStats counts learning-switch activity.
type LearningStats struct {
	Forwarded uint64
	Flooded   uint64
	Learned   uint64
	Dropped   uint64
}

// NewLearning creates a learning switch.
func NewLearning(eng *sim.Engine, id packet.SwitchID, ports int, forwardDelay sim.Time) *LearningSwitch {
	return &LearningSwitch{
		id:      id,
		eng:     eng,
		delay:   forwardDelay,
		links:   make([]*sim.Link, ports+1),
		table:   make(map[packet.MAC]int),
		blocked: make([]bool, ports+1),
	}
}

// ID returns the switch identifier.
func (s *LearningSwitch) ID() packet.SwitchID { return s.id }

// Stats returns a copy of the counters.
func (s *LearningSwitch) Stats() LearningStats { return s.stats }

// AttachLink wires a link to a port.
func (s *LearningSwitch) AttachLink(port int, l *sim.Link) { s.links[port] = l }

// LinkAt returns the link on a port.
func (s *LearningSwitch) LinkAt(port int) *sim.Link {
	if port < 1 || port >= len(s.links) {
		return nil
	}
	return s.links[port]
}

// Ports returns the port count.
func (s *LearningSwitch) Ports() int { return len(s.links) - 1 }

// SetBlocked marks a port blocked (spanning tree) and flushes the table, as
// reconvergence invalidates learned locations.
func (s *LearningSwitch) SetBlocked(port int, blocked bool) {
	if port >= 1 && port < len(s.blocked) && s.blocked[port] != blocked {
		s.blocked[port] = blocked
		s.table = make(map[packet.MAC]int)
	}
}

// Blocked reports a port's blocking state.
func (s *LearningSwitch) Blocked(port int) bool {
	return port >= 1 && port < len(s.blocked) && s.blocked[port]
}

// FlushTable clears learned bindings.
func (s *LearningSwitch) FlushTable() { s.table = make(map[packet.MAC]int) }

// SetMonitor installs a port-state observer.
func (s *LearningSwitch) SetMonitor(fn func(port int, up bool)) { s.monitor = fn }

// SetControl installs a control-frame interceptor (the STP BPDU handler),
// which must not keep the frames it sees.
func (s *LearningSwitch) SetControl(fn func(inPort int, frame []byte) bool) { s.control = fn }

// SendRaw transmits a frame out a specific port, bypassing learning and
// blocking — the transmit primitive for protocol frames like BPDUs.
func (s *LearningSwitch) SendRaw(port int, frame []byte) {
	l := s.LinkAt(port)
	if l == nil || !l.Up() {
		return
	}
	l.SendFromAfter(s, frame, s.delay)
}

// PortStateChanged implements sim.PortMonitor.
func (s *LearningSwitch) PortStateChanged(port int, up bool) {
	// A topology change invalidates learned state.
	s.table = make(map[packet.MAC]int)
	if s.monitor != nil {
		s.monitor(port, up)
	}
}

// EnableMPLS installs the static MPLS label→port rules that turn a
// commodity switch into a DumbNet forwarder (§5.3: "inserting static rules
// that statically map the MPLS labels to the physical port numbers") while
// ordinary Ethernet traffic keeps flowing through the learning path — the
// paper's incremental-deployment mode.
func (s *LearningSwitch) EnableMPLS() { s.mplsRules = true }

// receiveMPLS forwards a DumbNet-over-MPLS frame by the static label rules.
func (s *LearningSwitch) receiveMPLS(frame []byte) {
	rest, tag, err := packet.PopLabelMPLS(frame)
	if err != nil {
		s.drop(frame)
		return
	}
	s.send(int(tag), rest, &s.stats.Forwarded)
}

// Receive implements sim.Node: learn, then forward or flood. A frame that
// goes no further goes back to the pool.
func (s *LearningSwitch) Receive(inPort int, frame []byte) {
	if len(frame) < packet.EthernetHeaderLen {
		s.drop(frame)
		return
	}
	if s.control != nil && s.control(inPort, frame) {
		packet.PutBuffer(frame)
		return
	}
	if s.mplsRules && EtherTypeOf(frame) == packet.EtherTypeMPLS {
		s.receiveMPLS(frame)
		return
	}
	if s.Blocked(inPort) {
		// BPDU-style control traffic is handled by the STP layer before
		// frames reach here; data on blocked ports is discarded.
		s.drop(frame)
		return
	}
	var dst, src packet.MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	if !src.IsZero() {
		if old, ok := s.table[src]; !ok || old != inPort {
			s.table[src] = inPort
			s.stats.Learned++
		}
	}
	if dst != packet.BroadcastMAC {
		if out, ok := s.table[dst]; ok {
			s.send(out, frame, &s.stats.Forwarded)
			return
		}
	}
	// Flood.
	for port := 1; port < len(s.links); port++ {
		if port == inPort || s.links[port] == nil || s.Blocked(port) {
			continue
		}
		dup := packet.GetBuffer(len(frame))
		copy(dup, frame)
		s.send(port, dup, &s.stats.Flooded)
	}
	packet.PutBuffer(frame)
}

func (s *LearningSwitch) send(port int, frame []byte, counter *uint64) {
	l := s.LinkAt(port)
	if l == nil || !l.Up() {
		s.drop(frame)
		return
	}
	*counter++
	l.SendFromAfter(s, frame, s.delay)
}

// drop counts a frame the switch discards and returns it to the pool.
func (s *LearningSwitch) drop(frame []byte) {
	s.stats.Dropped++
	packet.PutBuffer(frame)
}

// EtherTypeOf extracts the EtherType of a raw Ethernet frame (helper shared
// with the STP layer).
func EtherTypeOf(frame []byte) uint16 {
	if len(frame) < packet.EthernetHeaderLen {
		return 0
	}
	return binary.BigEndian.Uint16(frame[12:14])
}
