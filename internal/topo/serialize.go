package topo

import (
	"encoding/binary"
	"slices"
	"sort"

	"dumbnet/internal/packet"
)

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
	for _, r := range s.rows { // ID order, each row in cable order
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
// rejected b leaves s as it was; an accepted one is merged in cable by
// cable, each displacing any cached cable on either of its ports. The k-th
// entry a switch lists toward a neighbour pairs with the k-th the neighbour
// lists back, so a body is refused unless its switches ascend, each
// switch's neighbours ascend and exclude itself, and both ends of a switch
// pair list the same count (both writers' cable order keeps all three).
func DecodePathGraph(b []byte, s *Subgraph) (*PathGraph, error) {
	type bodyRec struct { // a switch's record: its entries start at b[at]; its row in s
		id           SwitchID
		at, cnt, row int
	}
	type bodyCable struct { // a paired cable: its ends' record indices and ports
		a, b   int32
		pa, pb Port
	}
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
	// The graph: each switch's (neighbour, port) list, then the hosts. Check
	// it all, pairing each run toward a lower ID with the one read back.
	readHeader(&r, subgraphMagic)
	n := r.U32()
	if n > 1<<22 {
		r.Fail()
	}
	nbAt := func(at int) SwitchID { return SwitchID(binary.BigEndian.Uint32(b[at:])) }
	var recStack [64]bodyRec
	var cableStack [128]bodyCable
	recs, cables, ends := slices.Grow(recStack[:0], int(min(n, uint32(len(r.Rest())/6)))), cableStack[:0], 0
	for i := n; i > 0 && r.Ok(); i-- {
		rc := bodyRec{id: SwitchID(r.U32()), cnt: int(r.U16())}
		rc.at = len(b) - len(r.Rest())
		if len(recs) > 0 && rc.id <= recs[len(recs)-1].id {
			r.Fail()
		}
		c, k, end := 0, 0, 0 // the lower neighbour's record, its next entry back, its end
		for j, prev := 0, SwitchID(0); j < rc.cnt && r.Ok(); j++ {
			nb, p := SwitchID(r.U32()), r.U8()
			switch {
			case nb < prev || nb == rc.id:
				r.Fail()
			case nb < rc.id && (j == 0 || nb != prev):
				c = search(recs, uint64(nb), func(x *bodyRec) uint64 { return uint64(x.id) })
				if c == len(recs) || recs[c].id != nb {
					r.Fail()
					break
				}
				lo := recs[c]
				k = lo.at + 5*sort.Search(lo.cnt, func(i int) bool { return nbAt(lo.at+5*i) >= rc.id })
				end = lo.at + 5*lo.cnt
				fallthrough
			case nb < rc.id:
				if k == end || nbAt(k) != rc.id {
					r.Fail()
					break
				}
				cables = append(cables, bodyCable{a: int32(c), b: int32(len(recs)), pa: b[k+4], pb: p})
				k += 5
			}
			prev = nb
		}
		recs, ends = append(recs, rc), ends+rc.cnt
	}
	hosts := r
	hn := r.U32()
	if hn > 1<<22 {
		r.Fail()
	}
	if r.Skip(11 * int(hn)); !r.Ok() || len(r.Rest()) != 0 || 2*len(cables) != ends {
		return nil, ErrBadTopology // malformed, or an entry left unpaired
	}
	// One pass adds the rows s lacks, sized for their entries, in one
	// merge; then the cables go in, in body order of their higher-ID ends.
	old := len(s.rows)
	for _, rc := range recs {
		if _, ok := findRow(s.rows[:old], rc.id); !ok {
			s.rows = append(s.rows, sgRow{id: rc.id, nbs: make([]Neighbor, 0, rc.cnt)})
		}
	}
	s.mergeRows(old)
	for i := range recs {
		recs[i].row, _ = findRow(s.rows, recs[i].id)
	}
	for _, c := range cables {
		s.addCable(recs[c.a].row, c.pa, recs[c.b].row, c.pb)
	}
	r = hosts
	if need := len(s.hostTable) + int(hn); need > cap(s.hostTable) {
		s.hostTable = append(make(hostTable, 0, need), s.hostTable...)
	}
	for i := r.U32(); i > 0; i-- {
		s.hostTable.set(readAttach(&r))
	}
	return pg, nil
}
