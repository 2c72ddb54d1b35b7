package stp

import (
	"dumbnet/internal/dswitch"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// EthernetFabric is a conventional switched-Ethernet deployment of a
// topology: learning switches, spanning tree, and raw host attachment
// points. It is the baseline network for Fig 10 (native Ethernet latency)
// and Fig 11(b) (STP failure recovery).
type EthernetFabric struct {
	Eng      *sim.Engine
	Topo     *topo.Topology
	Switches map[packet.SwitchID]*dswitch.LearningSwitch
	Domain   *Domain
}

// BuildEthernet assembles learning switches and links for t and starts
// spanning tree. Hosts attach afterwards with AttachHost.
func BuildEthernet(eng *sim.Engine, t *topo.Topology, link sim.LinkConfig, fwdDelay sim.Time) (*EthernetFabric, error) {
	f := &EthernetFabric{
		Eng:      eng,
		Topo:     t,
		Switches: make(map[packet.SwitchID]*dswitch.LearningSwitch),
	}
	for _, id := range t.SwitchIDs() {
		ports, err := t.PortCount(id)
		if err != nil {
			return nil, err
		}
		f.Switches[id] = dswitch.NewLearning(eng, id, ports, fwdDelay)
	}
	for _, c := range t.Links() {
		l := sim.NewLink(eng, f.Switches[c.A], int(c.PA), f.Switches[c.B], int(c.PB), link)
		f.Switches[c.A].AttachLink(int(c.PA), l)
		f.Switches[c.B].AttachLink(int(c.PB), l)
	}
	// Bridges start in ID order: each sends its first hellos as it starts.
	f.Domain = &Domain{Bridges: make(map[packet.SwitchID]*Bridge, len(f.Switches))}
	for _, id := range t.SwitchIDs() {
		f.Domain.Bridges[id] = NewBridge(eng, f.Switches[id])
	}
	return f, nil
}

// AttachHost wires a host node at its topology attachment point.
func (f *EthernetFabric) AttachHost(mac packet.MAC, node sim.Node, link sim.LinkConfig) (*sim.Link, error) {
	at, err := f.Topo.HostAt(mac)
	if err != nil {
		return nil, err
	}
	sw := f.Switches[at.Switch]
	l := sim.NewLink(f.Eng, sw, int(at.Port), node, 1, link)
	sw.AttachLink(int(at.Port), l)
	return l, nil
}

// LinkBetween returns the link connecting two adjacent switches: of
// parallel links, the one on the lower-ID switch's lowest port.
func (f *EthernetFabric) LinkBetween(a, b packet.SwitchID) (*sim.Link, error) {
	lo, hi := min(a, b), max(a, b)
	p, err := f.Topo.PortToward(lo, hi)
	if err != nil {
		return nil, err
	}
	return f.Switches[lo].LinkAt(int(p)), nil
}

// FailLink injects a failure between two adjacent switches.
func (f *EthernetFabric) FailLink(a, b packet.SwitchID) error {
	l, err := f.LinkBetween(a, b)
	if err != nil {
		return err
	}
	l.Fail()
	return nil
}
