package topo

import "dumbnet/internal/packet"

// Offset rebuilds a topology with every switch ID shifted by swOff and
// every host MAC shifted by macOff (applied to the generator's 40-bit
// address payload; the locally-administered prefix byte is preserved).
// The generators assign the same deterministic IDs and MACs on every call,
// so two independently generated fabrics collide on both namespaces;
// federation uses Offset to give each member fabric a disjoint ID and
// address space before interconnecting them. The input is not mutated.
func Offset(t *Topology, swOff SwitchID, macOff uint64) (*Topology, error) {
	out := New()
	for _, sw := range t.switches {
		if err := out.AddSwitch(sw.id+swOff, sw.ports); err != nil {
			return nil, err
		}
	}
	for _, l := range t.Links() {
		if err := out.Connect(l.A+swOff, l.PA, l.B+swOff, l.PB); err != nil {
			return nil, err
		}
	}
	for _, at := range t.Hosts() {
		if err := out.AttachHost(offsetMAC(at.Host, macOff), at.Switch+swOff, at.Port); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// offsetMAC adds off to the 40-bit numeric payload of a generator MAC
// (the MACFromUint64 layout), keeping byte 0 intact.
func offsetMAC(m MAC, off uint64) MAC {
	nm := packet.MACFromUint64(m.Uint64()&(1<<40-1) + off)
	nm[0] = m[0]
	return nm
}
