package topo

import "dumbnet/internal/packet"

// Binary serialization for topologies, subgraphs and path graphs. These are
// the payloads of MsgPathResponse / MsgTopoPatch control messages and the
// entries replicated between controllers, so the formats are versioned and
// deterministic (maps are emitted in sorted order). Fields go through the
// packet package's Writer and Reader, big-endian.

const (
	topoMagic     = 0xD0B1
	subgraphMagic = 0xD0B2
	pathgrafMagic = 0xD0B3
	wireVersion   = 1
)

// writeHeader writes a format's magic and version.
func writeHeader(w *packet.Writer, magic uint16) {
	w.U16(magic)
	w.U8(wireVersion)
}

// readHeader reads a format's magic and version, failing r on a mismatch.
func readHeader(r *packet.Reader, magic uint16) {
	if r.U16() != magic || r.U8() != wireVersion {
		r.Fail()
	}
}

func writeAttach(w *packet.Writer, at HostAttach) {
	w.MAC(at.Host)
	w.U32(uint32(at.Switch))
	w.U8(at.Port)
}

func readAttach(r *packet.Reader) HostAttach {
	return HostAttach{Host: r.MAC(), Switch: SwitchID(r.U32()), Port: r.U8()}
}

// Marshal serialises the full topology.
func (t *Topology) Marshal() []byte {
	var w packet.Writer
	writeHeader(&w, topoMagic)
	w.U32(uint32(len(t.switches)))
	for i := range t.switches {
		sw := &t.switches[i]
		w.U32(uint32(sw.id))
		w.U16(uint16(sw.ports))
		n := 0
		for _, ep := range sw.wired {
			if ep.Kind != EndpointNone {
				n++
			}
		}
		w.U16(uint16(n))
		for i, ep := range sw.wired {
			if ep.Kind == EndpointNone {
				continue
			}
			w.U8(Port(i + 1))
			w.U8(uint8(ep.Kind))
			switch ep.Kind {
			case EndpointSwitch:
				w.U32(uint32(ep.Switch))
				w.U8(ep.Port)
			case EndpointHost:
				w.MAC(ep.Host)
			}
		}
	}
	return w.Bytes()
}

// UnmarshalTopology parses a serialized topology.
func UnmarshalTopology(b []byte) (*Topology, error) {
	r := packet.NewReader(b)
	readHeader(&r, topoMagic)
	n := int(r.U32())
	if !r.Ok() || n > 1<<22 {
		return nil, ErrBadTopology
	}
	t := New()
	var links []Link
	var hosts []HostAttach
	for i := 0; i < n; i++ {
		id := SwitchID(r.U32())
		ports := int(r.U16())
		if !r.Ok() {
			return nil, ErrBadTopology
		}
		if err := t.AddSwitch(id, ports); err != nil {
			return nil, err
		}
		// A truncated entry zeroes every later read, so its next kind byte
		// (EndpointNone) or the next switch's Ok check refuses it.
		for j := int(r.U16()); j > 0; j-- {
			p := r.U8()
			switch EndpointKind(r.U8()) {
			case EndpointSwitch:
				far, fp := SwitchID(r.U32()), r.U8()
				// Record each link once (from the lower (id,port) side).
				if id < far || (id == far && p < fp) {
					links = append(links, Link{A: id, PA: p, B: far, PB: fp})
				}
			case EndpointHost:
				hosts = append(hosts, HostAttach{Host: r.MAC(), Switch: id, Port: p})
			default:
				return nil, ErrBadTopology
			}
		}
	}
	if !r.Ok() || len(r.Rest()) != 0 {
		return nil, ErrBadTopology
	}
	for _, l := range links {
		if err := t.Connect(l.A, l.PA, l.B, l.PB); err != nil {
			return nil, err
		}
	}
	for _, h := range hosts {
		if err := t.AttachHost(h.Host, h.Switch, h.Port); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Marshal serialises the subgraph.
func (s *Subgraph) Marshal() []byte {
	var w packet.Writer
	writeHeader(&w, subgraphMagic)
	w.U32(uint32(len(s.rows)))
	for _, r := range s.rows { // ID order, each row in neighbour ID order
		w.U32(uint32(r.id))
		w.U16(uint16(len(r.nbs)))
		for _, nb := range r.nbs {
			w.U32(uint32(nb.Sw))
			w.U8(nb.Port)
		}
	}
	hosts := s.Hosts() // MAC order
	w.U32(uint32(len(hosts)))
	for _, h := range hosts {
		writeAttach(&w, h)
	}
	return w.Bytes()
}

// Marshal serialises the path graph for a MsgPathResponse payload.
func (pg *PathGraph) Marshal() []byte {
	var w packet.Writer
	writeHeader(&w, pathgrafMagic)
	w.MAC(pg.Src)
	w.MAC(pg.Dst)
	for _, p := range []SwitchPath{pg.Primary, pg.Backup} {
		w.U16(uint16(len(p)))
		for _, sw := range p {
			w.U32(uint32(sw))
		}
	}
	w.Raw(pg.Graph.Marshal())
	return w.Bytes()
}

// UnmarshalPathGraph parses a serialized path graph.
func UnmarshalPathGraph(b []byte) (*PathGraph, error) {
	return DecodePathGraph(b, NewSubgraph())
}

// DecodePathGraph reads a serialized path graph into s and returns it with
// Graph set to s. It checks all of b before it writes anything, so a
// rejected b leaves s as it was; an accepted one is merged in, the incoming
// port winning on a conflict. This is how a host takes a path response
// into its TopoCache with no Subgraph in between.
func DecodePathGraph(b []byte, s *Subgraph) (*PathGraph, error) {
	r := packet.NewReader(b)
	readHeader(&r, pathgrafMagic)
	readPath := func() SwitchPath {
		n := int(r.U16())
		if n > packet.MaxPathLen*4 || len(r.Rest()) < 4*n {
			r.Fail()
			return nil
		}
		p := make(SwitchPath, n)
		for i := range p {
			p[i] = SwitchID(r.U32())
		}
		return p
	}
	pg := &PathGraph{Src: r.MAC(), Dst: r.MAC(), Primary: readPath(), Backup: readPath(), Graph: s}
	// The graph: every switch with its (neighbour, port) list, then the
	// host attachments. Check the counts and the length first.
	body := r.Rest()
	readHeader(&r, subgraphMagic)
	n := r.U32()
	if n > 1<<22 {
		r.Fail()
	}
	for i := n; i > 0 && r.Ok(); i-- {
		r.Skip(4)
		r.Skip(5 * int(r.U16()))
	}
	hn := r.U32()
	if hn > 1<<22 {
		r.Fail()
	}
	if r.Skip(11 * int(hn)); !r.Ok() || len(r.Rest()) != 0 {
		return nil, ErrBadTopology
	}
	// One pass adds the rows s lacks, in one merge; then each switch's list
	// is merged into its row link by link, a later port overwriting an
	// earlier one. Order on the wire is not trusted: a list may be
	// unsorted or name a neighbour twice, and a switch may come twice.
	r = packet.NewReader(body[3:])
	recs, old := r, len(s.rows)
	for i := r.U32(); i > 0; i-- {
		id := SwitchID(r.U32())
		if _, ok := findRow(s.rows[:old], id); !ok {
			s.rows = append(s.rows, sgRow{id: id})
		}
		r.Skip(5 * int(r.U16()))
	}
	s.mergeRows(old)
	for i := recs.U32(); i > 0; i-- {
		j, _ := findRow(s.rows, SwitchID(recs.U32()))
		row, cnt := &s.rows[j], recs.U16()
		if row.nbs == nil {
			row.nbs = make([]Neighbor, 0, cnt)
		}
		for ; cnt > 0; cnt-- {
			row.nbs = setNeighbor(row.nbs, SwitchID(recs.U32()), recs.U8()) // neighbour, then port
		}
	}
	r = recs
	if need := len(s.hostTable) + int(hn); need > cap(s.hostTable) {
		s.hostTable = append(make(hostTable, 0, need), s.hostTable...)
	}
	for i := r.U32(); i > 0; i-- {
		s.hostTable.set(readAttach(&r))
	}
	return pg, nil
}
