package topo

import (
	"math/rand"
	"slices"

	"dumbnet/internal/packet"
)

// Subgraph is a lightweight partial view of the fabric: the structure hosts
// cache locally (TopoCache), a tenant's slice, and a decoded path graph.
// It stores the cables it knows, each at both ends (a port holds at most
// one), as rows in ascending switch ID, each row in cable order (cableKey):
// the order View promises, kept in storage so that reading it copies and
// sorts nothing, and the same at both ends of a switch pair, which is how
// the wire pairs the ends. The hosts are a hostTable, ascending by MAC.
// Nothing is built lazily, so concurrent readers are safe.
type Subgraph struct {
	rows []sgRow
	hostTable
}

// sgRow is one switch and its cables, in cable order.
type sgRow struct {
	id  SwitchID
	nbs []Neighbor
}

// NewSubgraph returns an empty subgraph.
func NewSubgraph() *Subgraph { return &Subgraph{} }

// cableKey is where cable nb sorts in switch self's row: by neighbour, then
// by the cable's port at its lower-ID end.
func cableKey(self SwitchID, nb Neighbor) uint64 {
	p := nb.Port
	if nb.Sw < self {
		p = nb.FarPort
	}
	return uint64(nb.Sw)<<8 | uint64(p)
}

// findRow locates switch id among ascending rows: its index, or where it
// would be inserted.
func findRow(rows []sgRow, id SwitchID) (int, bool) {
	i := search(rows, uint64(id), func(r *sgRow) uint64 { return uint64(r.id) })
	return i, i < len(rows) && rows[i].id == id
}

// row returns switch id's cables (nil when s has no row for it).
func (s *Subgraph) row(id SwitchID) []Neighbor {
	if i, ok := findRow(s.rows, id); ok {
		return s.rows[i].nbs
	}
	return nil
}

// addRow returns the index of switch id's row, inserting an empty one.
func (s *Subgraph) addRow(id SwitchID) int {
	i, ok := findRow(s.rows, id)
	if !ok {
		s.rows = slices.Insert(s.rows, i, sgRow{id: id})
	}
	return i
}

// portIndex returns the index of the entry on port p in a row, or -1.
func portIndex(nbs []Neighbor, p Port) int {
	for j := range nbs {
		if nbs[j].Port == p {
			return j
		}
	}
	return -1
}

// insertCable files cable nb in switch self's row, in cable order.
func insertCable(nbs []Neighbor, self SwitchID, nb Neighbor) []Neighbor {
	j := search(nbs, cableKey(self, nb), func(n *Neighbor) uint64 { return cableKey(self, *n) })
	return slices.Insert(nbs, j, nb)
}

// removeHalf deletes and returns the entry on port p of switch sw's row.
func (s *Subgraph) removeHalf(sw SwitchID, p Port) (Neighbor, bool) {
	if i, ok := findRow(s.rows, sw); ok {
		r := &s.rows[i]
		if j := portIndex(r.nbs, p); j >= 0 {
			nb := r.nbs[j]
			r.nbs = slices.Delete(r.nbs, j, j+1)
			return nb, true
		}
	}
	return Neighbor{}, false
}

// AddEdge records the cable a:pa <-> b:pb. A cable already on either port
// goes first, since a port holds one cable; a self-link is ignored.
func (s *Subgraph) AddEdge(a SwitchID, pa Port, b SwitchID, pb Port) {
	if a == b {
		return
	}
	s.addRow(a)
	ib := s.addRow(b)
	ia, _ := findRow(s.rows, a)
	s.addCable(ia, pa, ib, pb)
}

// addCable is AddEdge between the switches of rows ia and ib, which differ.
func (s *Subgraph) addCable(ia int, pa Port, ib int, pb Port) {
	ra, rb := &s.rows[ia], &s.rows[ib]
	ja, jb := portIndex(ra.nbs, pa), portIndex(rb.nbs, pb)
	if ja >= 0 && ra.nbs[ja] == (Neighbor{Sw: rb.id, Port: pa, FarPort: pb}) {
		return
	}
	if ja >= 0 || jb >= 0 {
		s.RemoveEdgeByPort(ra.id, pa)
		s.RemoveEdgeByPort(rb.id, pb)
	}
	ra.nbs = insertCable(ra.nbs, ra.id, Neighbor{Sw: rb.id, Port: pa, FarPort: pb})
	rb.nbs = insertCable(rb.nbs, rb.id, Neighbor{Sw: ra.id, Port: pb, FarPort: pa})
}

// RemoveEdgeByPort deletes the cached cable on switch sw's port p, both
// ends of it, and reports whether there was one. Link failure
// notifications identify links as (switch, port), so this is how hosts
// patch their TopoCache (§4.2).
func (s *Subgraph) RemoveEdgeByPort(sw SwitchID, p Port) bool {
	nb, ok := s.removeHalf(sw, p)
	if ok {
		s.removeHalf(nb.Sw, nb.FarPort)
	}
	return ok
}

// CableAt returns the far end of the cached cable on switch sw's port p.
func (s *Subgraph) CableAt(sw SwitchID, p Port) (PortRef, bool) {
	nbs := s.row(sw)
	if j := portIndex(nbs, p); j >= 0 {
		return PortRef{Switch: nbs[j].Sw, Port: nbs[j].FarPort}, true
	}
	return PortRef{}, false
}

// RemoveHost forgets a cached host attachment. Tenant membership changes
// revoke attachments from caches that are no longer permitted to hold them.
func (s *Subgraph) RemoveHost(h MAC) { s.hostTable.remove(h) }

// AddHost records a host attachment.
func (s *Subgraph) AddHost(at HostAttach) {
	s.hostTable.set(at)
	s.addRow(at.Switch)
}

// HasSwitch reports whether the subgraph knows switch id.
func (s *Subgraph) HasSwitch(id SwitchID) bool {
	_, ok := findRow(s.rows, id)
	return ok
}

// NumSwitches reports how many switches the subgraph covers.
func (s *Subgraph) NumSwitches() int { return len(s.rows) }

// NumLinks reports how many cables the subgraph covers.
func (s *Subgraph) NumLinks() int {
	n := 0
	for _, r := range s.rows {
		n += len(r.nbs)
	}
	return n / 2
}

// SwitchIDs lists the covered switch IDs in ascending order.
func (s *Subgraph) SwitchIDs() []SwitchID { return s.appendIDs(make([]SwitchID, 0, len(s.rows))) }

// appendIDs appends the covered switch IDs to ids in ascending order.
func (s *Subgraph) appendIDs(ids []SwitchID) []SwitchID {
	for _, r := range s.rows {
		ids = append(ids, r.id)
	}
	return ids
}

// Neighbors implements View in cable order. The list is s's own storage:
// callers must not modify it, and it is valid until the next change to s.
func (s *Subgraph) Neighbors(id SwitchID) []Neighbor { return slices.Clip(s.row(id)) }

// firstCable returns a's port on its first cable toward b in cable order:
// the cable a hop named only by its two switches is taken to cross.
func (s *Subgraph) firstCable(a, b SwitchID) (Port, bool) {
	for _, nb := range s.row(a) {
		if nb.Sw == b {
			return nb.Port, true
		}
	}
	return 0, false
}

// Clone deep-copies the subgraph: the cables of every row share one array,
// each row capped at its own length so that growing one reallocates it.
func (s *Subgraph) Clone() *Subgraph {
	flat := make([]Neighbor, 0, 2*s.NumLinks()+1)
	c := &Subgraph{rows: make([]sgRow, len(s.rows)), hostTable: slices.Clone(s.hostTable)}
	for i, r := range s.rows {
		off := len(flat)
		flat = append(flat, r.nbs...)
		c.rows[i] = sgRow{id: r.id, nbs: flat[off:len(flat):len(flat)]}
	}
	return c
}

// mergeRows merges the rows appended to s.rows past old (switches the
// ascending rows before old lack, ascending) into place: parked past the
// merged length and merged in from the top down, so no row moves twice.
func (s *Subgraph) mergeRows(old int) {
	m := len(s.rows) - old
	s.rows = slices.Grow(s.rows, m)[:old+2*m]
	park := s.rows[old+m:]
	copy(park, s.rows[old:old+m])
	for i, j, w := old-1, m-1, old+m-1; j >= 0; w-- {
		if i >= 0 && s.rows[i].id > park[j].id {
			s.rows[w], i = s.rows[i], i-1
		} else {
			s.rows[w], j = park[j], j-1
		}
	}
	s.rows = s.rows[:old+m]
}

// HostPath computes a tag path between two cached hosts over the subgraph.
func (s *Subgraph) HostPath(src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	return hostPath(s, src, dst, rng)
}
