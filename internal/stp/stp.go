// Package stp implements a rapid-spanning-tree protocol instance over
// learning switches — the off-the-shelf Ethernet baseline DumbNet's failure
// recovery is compared against in Fig 11(b).
//
// The protocol follows the 802.1D/802.1w structure: bridges exchange BPDUs
// carrying (root, cost, bridge, port) priority vectors; each bridge selects
// a root port (best vector heard), marks ports where its own vector wins as
// designated (forwarding), and blocks the rest. Stale information ages out
// after maxAge, and hello-timed BPDUs repair the tree after failures —
// which is exactly why recovery takes several hello rounds where DumbNet
// needs one notification flood.
package stp

import (
	"encoding/binary"

	"dumbnet/internal/dswitch"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// EtherTypeBPDU marks spanning-tree protocol frames.
const EtherTypeBPDU uint16 = 0x8181

// Protocol timers: rapid-STP scale (commodity switches in a data center
// run RSTP; classic 802.1D's 2 s hello / 20 s max-age would make the
// baseline absurdly slow).
const (
	// helloInterval is the BPDU transmission period.
	helloInterval = 50 * sim.Millisecond
	// maxAge is how long a stored BPDU stays valid without refresh.
	maxAge = 300 * sim.Millisecond
	// forwardTransition is the delay before a previously blocked port may
	// forward again — the RSTP proposal/agreement (or legacy
	// listening+learning) phase that dominates real reconvergence time.
	forwardTransition = 150 * sim.Millisecond
	// linkCost is the cost of every link (uniform fabric).
	linkCost = 1
)

// bpdu is the priority vector exchanged between bridges.
type bpdu struct {
	Root   uint32 // lowest known bridge ID
	Cost   uint32 // path cost to root
	Bridge uint32 // transmitting bridge
	Port   uint16 // transmitting port
}

// better reports whether a beats b (lower is better, lexicographically).
func (a bpdu) better(b bpdu) bool {
	if a.Root != b.Root {
		return a.Root < b.Root
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Bridge != b.Bridge {
		return a.Bridge < b.Bridge
	}
	return a.Port < b.Port
}

const bpduLen = packet.EthernetHeaderLen + 14

var bpduDst = packet.MAC{0x01, 0x80, 0xC2, 0x00, 0x00, 0x00}

func encodeBPDU(v bpdu) []byte {
	buf := make([]byte, bpduLen)
	copy(buf[0:6], bpduDst[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeBPDU)
	off := packet.EthernetHeaderLen
	binary.BigEndian.PutUint32(buf[off:], v.Root)
	binary.BigEndian.PutUint32(buf[off+4:], v.Cost)
	binary.BigEndian.PutUint32(buf[off+8:], v.Bridge)
	binary.BigEndian.PutUint16(buf[off+12:], v.Port)
	return buf
}

func decodeBPDU(frame []byte) (bpdu, bool) {
	if len(frame) < bpduLen || dswitch.EtherTypeOf(frame) != EtherTypeBPDU {
		return bpdu{}, false
	}
	off := packet.EthernetHeaderLen
	return bpdu{
		Root:   binary.BigEndian.Uint32(frame[off:]),
		Cost:   binary.BigEndian.Uint32(frame[off+4:]),
		Bridge: binary.BigEndian.Uint32(frame[off+8:]),
		Port:   binary.BigEndian.Uint16(frame[off+12:]),
	}, true
}

// PortRole is a port's spanning-tree role.
type PortRole uint8

// Port roles.
const (
	RoleDesignated PortRole = iota // forwarding, we own the segment
	RoleRoot                       // forwarding, toward the root
	RoleBlocked                    // discarding
	RoleEdge                       // forwarding, host-facing (no BPDUs heard)
)

// Bridge is one spanning-tree participant bound to a learning switch.
type Bridge struct {
	sw  *dswitch.LearningSwitch
	eng *sim.Engine
	id  uint32

	// best BPDU heard per port and when it was heard.
	heard   map[int]bpdu
	heardAt map[int]sim.Time
	roles   map[int]PortRole
	// unblockEpoch invalidates stale forward-transition timers when a
	// port's role flaps during the transition.
	unblockEpoch map[int]uint64
}

// NewBridge attaches spanning tree to a learning switch and starts its
// hello timer. Bridge ID is the switch ID.
func NewBridge(eng *sim.Engine, sw *dswitch.LearningSwitch) *Bridge {
	b := &Bridge{
		sw:           sw,
		eng:          eng,
		id:           uint32(sw.ID()),
		heard:        make(map[int]bpdu),
		heardAt:      make(map[int]sim.Time),
		roles:        make(map[int]PortRole),
		unblockEpoch: make(map[int]uint64),
	}
	sw.SetControl(b.onFrame)
	sw.SetMonitor(b.onPortChange)
	b.helloLoop()
	return b
}

// Role returns a port's current role.
func (b *Bridge) Role(port int) PortRole {
	if r, ok := b.roles[port]; ok {
		return r
	}
	return RoleEdge
}

// RootID returns the bridge's current view of the root.
func (b *Bridge) RootID() uint32 { return b.myVector().Root }

// IsRoot reports whether this bridge believes it is the root.
func (b *Bridge) IsRoot() bool { return b.RootID() == b.id }

// myVector computes the bridge's own priority vector: the best heard root
// plus link cost, or itself if nothing better is known.
func (b *Bridge) myVector() bpdu {
	best := bpdu{Root: b.id, Cost: 0, Bridge: b.id}
	now := b.eng.Now()
	for port, v := range b.heard {
		if now-b.heardAt[port] > maxAge {
			continue // aged out
		}
		cand := bpdu{Root: v.Root, Cost: v.Cost + linkCost, Bridge: b.id}
		if cand.Root < best.Root || (cand.Root == best.Root && cand.Cost < best.Cost) {
			best = cand
		}
	}
	return best
}

// onFrame consumes BPDUs.
func (b *Bridge) onFrame(inPort int, frame []byte) bool {
	v, ok := decodeBPDU(frame)
	if !ok {
		return false
	}
	prev, had := b.heard[inPort]
	b.heard[inPort] = v
	b.heardAt[inPort] = b.eng.Now()
	if !had || prev != v {
		b.recompute()
	}
	return true
}

// onPortChange reacts to the physical signal: a dead port's stored BPDU is
// flushed immediately (RSTP-style fast aging).
func (b *Bridge) onPortChange(port int, up bool) {
	if !up {
		delete(b.heard, port)
		delete(b.heardAt, port)
	}
	b.recompute()
	b.sendHellos()
}

// helloLoop transmits BPDUs periodically and expires stale entries.
func (b *Bridge) helloLoop() {
	b.expireStale()
	b.sendHellos()
	b.eng.After(helloInterval, func() { b.helloLoop() })
}

func (b *Bridge) expireStale() {
	now := b.eng.Now()
	changed := false
	for port, at := range b.heardAt {
		if now-at > maxAge {
			delete(b.heard, port)
			delete(b.heardAt, port)
			changed = true
		}
	}
	if changed {
		b.recompute()
	}
}

// sendHellos transmits the bridge's vector on every non-edge port (and on
// edge ports too — that is how neighbors learn we exist).
func (b *Bridge) sendHellos() {
	mine := b.myVector()
	for port := 1; port <= b.sw.Ports(); port++ {
		if b.sw.LinkAt(port) == nil {
			continue
		}
		v := mine
		v.Port = uint16(port)
		b.sw.SendRaw(port, encodeBPDU(v))
	}
}

// recompute reassigns port roles and programs blocking on the switch.
func (b *Bridge) recompute() {
	mine := b.myVector()
	now := b.eng.Now()

	// Root port: the port with the best live heard vector, if it beats us.
	rootPort := -1
	var rootBest bpdu
	for port := 1; port <= b.sw.Ports(); port++ {
		v, ok := b.heard[port]
		if !ok || now-b.heardAt[port] > maxAge {
			continue
		}
		cand := bpdu{Root: v.Root, Cost: v.Cost + linkCost, Bridge: v.Bridge, Port: v.Port}
		if rootPort == -1 || cand.better(rootBest) {
			rootPort, rootBest = port, cand
		}
	}
	if rootPort != -1 && rootBest.Root >= mine.Root && mine.Root == b.id {
		// We are the best root we know: no root port.
		rootPort = -1
	}

	for port := 1; port <= b.sw.Ports(); port++ {
		if b.sw.LinkAt(port) == nil {
			continue
		}
		var role PortRole
		switch {
		case port == rootPort:
			role = RoleRoot
		default:
			v, ok := b.heard[port]
			if !ok || now-b.heardAt[port] > maxAge {
				role = RoleEdge // nothing on this segment speaks STP
			} else {
				ours := mine
				ours.Port = uint16(port)
				theirs := bpdu{Root: v.Root, Cost: v.Cost, Bridge: v.Bridge, Port: v.Port}
				// Compare our vector (as transmitted) against the
				// segment's: whoever is better is designated.
				if (bpdu{Root: ours.Root, Cost: ours.Cost, Bridge: ours.Bridge}).better(theirs) {
					role = RoleDesignated
				} else {
					role = RoleBlocked
				}
			}
		}
		prev := b.roles[port]
		b.roles[port] = role
		if role == RoleBlocked {
			// Blocking is always immediate (safety).
			b.unblockEpoch[port]++
			b.sw.SetBlocked(port, true)
		} else if b.sw.Blocked(port) {
			// Unblocking waits out the forwarding-transition delay, as a
			// real bridge's proposal/agreement (or listening+learning)
			// phase would.
			b.unblockEpoch[port]++
			epoch := b.unblockEpoch[port]
			p := port
			b.eng.After(forwardTransition, func() {
				if b.unblockEpoch[p] == epoch && b.roles[p] != RoleBlocked {
					b.sw.SetBlocked(p, false)
				}
			})
		}
		_ = prev
	}
}

// Domain manages the bridges of one layer-2 domain.
type Domain struct {
	Bridges map[packet.SwitchID]*Bridge
}

// Converged reports whether all bridges agree on one root and no two
// forwarding ports form a cycle candidate (approximated by agreement on the
// root — sufficient for tests on our small fabrics).
func (d *Domain) Converged() bool {
	var root uint32
	first := true
	for _, b := range d.Bridges {
		if first {
			root = b.RootID()
			first = false
		} else if b.RootID() != root {
			return false
		}
	}
	return true
}
