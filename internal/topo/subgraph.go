package topo

import (
	"cmp"
	"math/rand"
	"slices"

	"dumbnet/internal/packet"
)

// Subgraph is a lightweight partial view of the fabric: the structure hosts
// cache locally (TopoCache), a tenant's slice, and a decoded path graph.
// Unlike Topology it stores only directed port mappings between switches it
// knows about, plus the host attachments it has learned. The switches are
// rows in ascending ID order, each with its links in ascending neighbour ID
// order, one per neighbour: the order View promises, kept in storage so
// that reading it copies and sorts nothing. A neighbour may lack a row of
// its own (a path-graph body need not list both ends of a link). The hosts
// are a hostTable, ascending by MAC. Nothing is built lazily, so concurrent
// readers are safe.
type Subgraph struct {
	rows []sgRow
	hostTable
}

// sgRow is one switch and its outgoing links, ascending by neighbour ID.
type sgRow struct {
	id  SwitchID
	nbs []Neighbor
}

// NewSubgraph returns an empty subgraph.
func NewSubgraph() *Subgraph { return &Subgraph{} }

func byRowID(a, b sgRow) int                 { return cmp.Compare(a.id, b.id) }
func neighborIs(n Neighbor, id SwitchID) int { return cmp.Compare(n.Sw, id) }

// findRow locates switch id among ascending rows: its index, or where it
// would be inserted.
func findRow(rows []sgRow, id SwitchID) (int, bool) {
	i := search(rows, uint64(id), func(r *sgRow) uint64 { return uint64(r.id) })
	return i, i < len(rows) && rows[i].id == id
}

// row returns switch id's links (nil when s has no row for it).
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

// link records a's port toward b, creating a's row.
func (s *Subgraph) link(a, b SwitchID, p Port) {
	r := &s.rows[s.addRow(a)]
	r.nbs = setNeighbor(r.nbs, b, p)
}

// setNeighbor sets the port toward nb in a row, overwriting the link to nb
// or inserting it where it sorts.
func setNeighbor(nbs []Neighbor, nb SwitchID, p Port) []Neighbor {
	j, ok := slices.BinarySearchFunc(nbs, nb, neighborIs)
	if ok {
		nbs[j].Port = p
		return nbs
	}
	return slices.Insert(nbs, j, Neighbor{Sw: nb, Port: p})
}

// unlink forgets a's link toward b.
func (s *Subgraph) unlink(a, b SwitchID) {
	if i, ok := findRow(s.rows, a); ok {
		r := &s.rows[i]
		if j, ok := slices.BinarySearchFunc(r.nbs, b, neighborIs); ok {
			r.nbs = slices.Delete(r.nbs, j, j+1)
		}
	}
}

// AddEdge records the bidirectional link a:pa <-> b:pb.
func (s *Subgraph) AddEdge(a SwitchID, pa Port, b SwitchID, pb Port) {
	s.link(a, b, pa)
	s.link(b, a, pb)
}

// RemoveEdge deletes the link between a and b in both directions.
func (s *Subgraph) RemoveEdge(a, b SwitchID) {
	s.unlink(a, b)
	s.unlink(b, a)
}

// RemoveEdgeByPort deletes the cached link leaving switch sw through the
// given local port, if any, and reports whether an edge was removed. Link
// failure notifications identify links as (switch, port), so this is how
// hosts patch their TopoCache (§4.2). Should two cached links share the
// port, the one neighborAt names goes.
func (s *Subgraph) RemoveEdgeByPort(sw SwitchID, p Port) bool {
	nb, ok := s.neighborAt(sw, p)
	if ok {
		s.RemoveEdge(sw, nb)
	}
	return ok
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

// NumLinks reports how many links the subgraph covers.
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

// Neighbors implements View with deterministic (ID-sorted) order. The list
// is s's own storage: callers must not modify it, and it is valid until the
// next change to s.
func (s *Subgraph) Neighbors(id SwitchID) []Neighbor { return slices.Clip(s.row(id)) }

// neighborAt implements attachedView. Should a merge have left two cached
// links on one port, the lower switch ID wins, as in Neighbors order.
func (s *Subgraph) neighborAt(sw SwitchID, p Port) (SwitchID, bool) {
	for _, nb := range s.row(sw) {
		if nb.Port == p {
			return nb.Sw, true
		}
	}
	return 0, false
}

// PortToward returns the local port on from toward adjacent switch to.
func (s *Subgraph) PortToward(from, to SwitchID) (Port, error) {
	nbs := s.row(from)
	if j, ok := slices.BinarySearchFunc(nbs, to, neighborIs); ok {
		return nbs[j].Port, nil
	}
	return 0, ErrNoLink
}

// Clone deep-copies the subgraph: the links of every row share one array,
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
// ascending rows before old lack, in any order, repeats allowed) into
// place: sorted, parked past the merged length and merged in from the top
// down, so no row moves twice.
func (s *Subgraph) mergeRows(old int) {
	add := s.rows[old:]
	slices.SortFunc(add, byRowID)
	m := len(slices.CompactFunc(add, func(a, b sgRow) bool { return a.id == b.id }))
	s.rows = slices.Grow(s.rows[:old+m], m)[:old+2*m]
	park := s.rows[old+m:]
	copy(park, add[:m])
	for i, j, w := old-1, m-1, old+m-1; j >= 0; w-- {
		if i >= 0 && s.rows[i].id > park[j].id {
			s.rows[w], i = s.rows[i], i-1
		} else {
			s.rows[w], j = park[j], j-1
		}
	}
	s.rows = s.rows[:old+m]
}

// TagsForSwitchPath encodes a switch path into port tags using only cached
// knowledge, ending at dst's attachment port.
func (s *Subgraph) TagsForSwitchPath(sp SwitchPath, dst MAC) (packet.Path, error) {
	return tagsForSwitchPath(s, sp, dst)
}

// HostPath computes a tag path between two cached hosts over the subgraph.
func (s *Subgraph) HostPath(src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	return hostPath(s, src, dst, rng)
}
