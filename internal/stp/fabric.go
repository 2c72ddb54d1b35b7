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
	links    map[[2]packet.SwitchID]*sim.Link
}

// BuildEthernet assembles learning switches and links for t and starts
// spanning tree. Hosts attach afterwards with AttachHost.
func BuildEthernet(eng *sim.Engine, t *topo.Topology, link sim.LinkConfig, fwdDelay sim.Time) (*EthernetFabric, error) {
	f := &EthernetFabric{
		Eng:      eng,
		Topo:     t,
		Switches: make(map[packet.SwitchID]*dswitch.LearningSwitch),
		links:    make(map[[2]packet.SwitchID]*sim.Link),
	}
	for _, id := range t.SwitchIDs() {
		ports, err := t.PortCount(id)
		if err != nil {
			return nil, err
		}
		f.Switches[id] = dswitch.NewLearning(eng, id, ports, fwdDelay)
	}
	for _, id := range t.SwitchIDs() {
		for _, nb := range t.Neighbors(id) {
			if nb.Sw < id {
				continue
			}
			farPort, err := t.PortToward(nb.Sw, id)
			if err != nil {
				return nil, err
			}
			l := sim.NewLink(eng, f.Switches[id], int(nb.Port), f.Switches[nb.Sw], int(farPort), link)
			f.Switches[id].AttachLink(int(nb.Port), l)
			f.Switches[nb.Sw].AttachLink(int(farPort), l)
			f.links[[2]packet.SwitchID{id, nb.Sw}] = l
		}
	}
	f.Domain = NewDomain(eng, f.Switches)
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

// LinkBetween returns the link connecting two adjacent switches.
func (f *EthernetFabric) LinkBetween(a, b packet.SwitchID) (*sim.Link, error) {
	if a > b {
		a, b = b, a
	}
	if l, ok := f.links[[2]packet.SwitchID{a, b}]; ok {
		return l, nil
	}
	return nil, topo.ErrNoLink
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
