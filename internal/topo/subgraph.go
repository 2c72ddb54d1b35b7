package topo

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"sort"

	"dumbnet/internal/packet"
)

// Subgraph is a lightweight partial view of the fabric: the structure hosts
// cache locally (TopoCache) and the body of a controller-issued path graph.
// Unlike Topology it stores only directed port mappings between switches it
// knows about, plus the host attachments it has learned.
type Subgraph struct {
	adj   map[SwitchID]map[SwitchID]Port // adj[a][b] = a's port toward b
	hosts map[MAC]HostAttach
}

// NewSubgraph returns an empty subgraph.
func NewSubgraph() *Subgraph {
	return &Subgraph{
		adj:   make(map[SwitchID]map[SwitchID]Port),
		hosts: make(map[MAC]HostAttach),
	}
}

// AddEdge records the bidirectional link a:pa <-> b:pb.
func (s *Subgraph) AddEdge(a SwitchID, pa Port, b SwitchID, pb Port) {
	if s.adj[a] == nil {
		s.adj[a] = make(map[SwitchID]Port)
	}
	if s.adj[b] == nil {
		s.adj[b] = make(map[SwitchID]Port)
	}
	s.adj[a][b] = pa
	s.adj[b][a] = pb
}

// RemoveEdge deletes the link between a and b in both directions.
func (s *Subgraph) RemoveEdge(a, b SwitchID) {
	if m := s.adj[a]; m != nil {
		delete(m, b)
	}
	if m := s.adj[b]; m != nil {
		delete(m, a)
	}
}

// RemoveEdgeByPort deletes the cached link leaving switch sw through the
// given local port, if any, and reports whether an edge was removed. Link
// failure notifications identify links as (switch, port), so this is how
// hosts patch their TopoCache (§4.2).
func (s *Subgraph) RemoveEdgeByPort(sw SwitchID, p Port) bool {
	for nb, port := range s.adj[sw] {
		if port == p {
			s.RemoveEdge(sw, nb)
			return true
		}
	}
	return false
}

// RemoveSwitch deletes a switch and all links touching it.
func (s *Subgraph) RemoveSwitch(id SwitchID) {
	for nb := range s.adj[id] {
		delete(s.adj[nb], id)
	}
	delete(s.adj, id)
}

// RemoveHost forgets a cached host attachment. Tenant membership changes
// revoke attachments from caches that are no longer permitted to hold them.
func (s *Subgraph) RemoveHost(h MAC) {
	delete(s.hosts, h)
}

// AddHost records a host attachment.
func (s *Subgraph) AddHost(at HostAttach) {
	s.hosts[at.Host] = at
	if s.adj[at.Switch] == nil {
		s.adj[at.Switch] = make(map[SwitchID]Port)
	}
}

// HostAt returns a host's attachment point, if known.
func (s *Subgraph) HostAt(h MAC) (HostAttach, error) {
	at, ok := s.hosts[h]
	if !ok {
		return HostAttach{}, ErrNoHost
	}
	return at, nil
}

// HasSwitch reports whether the subgraph knows switch id.
func (s *Subgraph) HasSwitch(id SwitchID) bool {
	_, ok := s.adj[id]
	return ok
}

// NumSwitches reports how many switches the subgraph covers.
func (s *Subgraph) NumSwitches() int { return len(s.adj) }

// NumLinks reports how many links the subgraph covers.
func (s *Subgraph) NumLinks() int {
	n := 0
	for _, m := range s.adj {
		n += len(m)
	}
	return n / 2
}

// NumHosts reports how many host attachments are cached.
func (s *Subgraph) NumHosts() int { return len(s.hosts) }

// SwitchIDs lists the covered switch IDs in ascending order.
func (s *Subgraph) SwitchIDs() []SwitchID {
	out := make([]SwitchID, 0, len(s.adj))
	for id := range s.adj {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Hosts returns the cached attachments (unsorted).
func (s *Subgraph) Hosts() []HostAttach {
	out := make([]HostAttach, 0, len(s.hosts))
	for _, at := range s.hosts {
		out = append(out, at)
	}
	// MAC-sorted so callers that fan frames out over this list (the stage-1
	// host flood) schedule sends in a deterministic order.
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].Host[:], out[j].Host[:]) < 0
	})
	return out
}

// Neighbors implements View with deterministic (ID-sorted) order.
func (s *Subgraph) Neighbors(id SwitchID) []Neighbor {
	m := s.adj[id]
	if len(m) == 0 {
		return nil
	}
	out := make([]Neighbor, 0, len(m))
	for sw, p := range m {
		out = append(out, Neighbor{Sw: sw, Port: p})
	}
	slices.SortFunc(out, func(a, b Neighbor) int { return cmp.Compare(a.Sw, b.Sw) })
	return out
}

// PortToward returns the local port on from toward adjacent switch to.
func (s *Subgraph) PortToward(from, to SwitchID) (Port, error) {
	if p, ok := s.adj[from][to]; ok {
		return p, nil
	}
	return 0, ErrNoLink
}

// Merge unions other into s. On conflicting port assignments the incoming
// value wins (newer information from the controller supersedes stale cache).
func (s *Subgraph) Merge(other *Subgraph) {
	for a, m := range other.adj {
		for b, p := range m {
			if s.adj[a] == nil {
				s.adj[a] = make(map[SwitchID]Port)
			}
			s.adj[a][b] = p
		}
		if s.adj[a] == nil {
			s.adj[a] = make(map[SwitchID]Port)
		}
	}
	for h, at := range other.hosts {
		s.hosts[h] = at
	}
}

// Clone deep-copies the subgraph.
func (s *Subgraph) Clone() *Subgraph {
	c := NewSubgraph()
	c.Merge(s)
	return c
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
