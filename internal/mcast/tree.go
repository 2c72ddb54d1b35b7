// Package mcast computes source-routed multicast trees: the controller-side
// half of DumbNet multicast. A tree is a Steiner-style approximation built
// on the shortest-path DAG of the CSR dense graph — the union of one
// shortest path per member back to the source's attachment switch, with
// equal-cost parents broken by a seeded draw so a (group, source, seed)
// triple always yields the same tree (the determinism the chaos digests and
// the route cache's generation discipline rely on). The encoded form is the
// replicate-and-forward tree of internal/packet: switches keep no group
// state, they just fork.
package mcast

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// GroupID identifies one multicast group fabric-wide.
type GroupID uint32

// Errors.
var (
	ErrNoMembers = fmt.Errorf("mcast: group has no members besides the source")
	ErrBadTree   = fmt.Errorf("mcast: tree does not match topology")
)

// Tree is one computed multicast distribution tree. Hops and the wire form
// are immutable after construction; Clone copies the mutable-adjacent
// fields for callers that hold trees across cache evictions.
type Tree struct {
	Group GroupID
	Src   packet.MAC
	// Root is the source host's attachment switch.
	Root topo.SwitchID
	// Members is the delivery set: deduplicated, sorted, excluding Src.
	Members []packet.MAC
	// Depth is the maximum switch-path length to any member, plus the host
	// hop.
	Depth int
	// Hops is the decoded tree rooted at Root.
	Hops []packet.TreeHop
	wire []byte
}

// Wire returns the encoded tree block (shared, read-only).
func (t *Tree) Wire() []byte { return t.wire }

// Clone returns a copy whose Members and wire are private to the caller.
// Hops is shared: it is immutable by contract.
func (t *Tree) Clone() *Tree {
	c := *t
	c.Members = append([]packet.MAC(nil), t.Members...)
	c.wire = append([]byte(nil), t.wire...)
	return &c
}

// SortMembers deduplicates and sorts a member list, dropping src. The
// canonical order makes member lists comparable and the builder's rng draw
// sequence independent of caller ordering.
func SortMembers(src packet.MAC, members []packet.MAC) []packet.MAC {
	out := make([]packet.MAC, 0, len(members))
	for _, m := range members {
		if m != src {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b packet.MAC) int { return cmp.Compare(a.Uint64(), b.Uint64()) })
	return slices.Compact(out)
}

// BuildTree computes the group's distribution tree from src over top. The
// same (top generation, src, members, seed) inputs produce a bit-identical
// tree. sc may be nil (a private scratch is used).
func BuildTree(top *topo.Topology, group GroupID, src packet.MAC, members []packet.MAC, seed int64, sc *topo.DenseScratch) (*Tree, error) {
	srcAt, err := top.HostAt(src)
	if err != nil {
		return nil, fmt.Errorf("mcast: source %v: %w", src, err)
	}
	sorted := SortMembers(src, members)
	if len(sorted) == 0 {
		return nil, ErrNoMembers
	}
	if sc == nil {
		sc = topo.NewDenseScratch()
	}
	g := top.Dense()
	root, ok := g.IndexOf(srcAt.Switch)
	if !ok {
		return nil, fmt.Errorf("mcast: root switch %d: %w", srcAt.Switch, topo.ErrNoPath)
	}
	dist := g.DistTo(sc, root)

	n := g.NumNodes()
	parent := make([]int32, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	inTree[root] = true

	// hostPorts collects member delivery ports per tree node; attach order
	// follows the sorted member list, then ports are sorted per node.
	hostPorts := make(map[int32][]topo.Port)
	depth := 0
	rng := rand.New(rand.NewSource(seed))
	var cand []int32
	for _, m := range sorted {
		at, err := top.HostAt(m)
		if err != nil {
			return nil, fmt.Errorf("mcast: member %v: %w", m, err)
		}
		idx, ok := g.IndexOf(at.Switch)
		if !ok || dist[idx] < 0 {
			return nil, fmt.Errorf("mcast: member %v unreachable from %v: %w", m, src, topo.ErrNoPath)
		}
		if d := int(dist[idx]) + 1; d > depth {
			depth = d
		}
		hostPorts[idx] = append(hostPorts[idx], at.Port)
		// Walk toward the root, picking one parent per node among the
		// equal-cost candidates; stop at the first node already in the
		// tree — its path to the root is settled.
		for cur := idx; !inTree[cur]; {
			want := dist[cur] - 1
			cand = cand[:0]
			lo, hi := g.EdgeRange(cur)
			for e := lo; e < hi; e++ {
				if nb := g.EdgeTarget(e); dist[nb] == want {
					cand = append(cand, nb)
				}
			}
			if len(cand) == 0 {
				return nil, fmt.Errorf("mcast: member %v: %w", m, topo.ErrNoPath)
			}
			next := cand[0]
			if len(cand) > 1 {
				next = cand[rng.Intn(len(cand))]
			}
			parent[cur] = next
			inTree[cur] = true
			cur = next
		}
	}

	children := make(map[int32][]int32)
	for i := int32(0); i < int32(n); i++ {
		if p := parent[i]; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for _, ports := range hostPorts {
		slices.Sort(ports)
	}

	var build func(node int32) ([]packet.TreeHop, error)
	build = func(node int32) ([]packet.TreeHop, error) {
		hops := make([]packet.TreeHop, 0, len(hostPorts[node])+len(children[node]))
		for _, p := range hostPorts[node] {
			hops = append(hops, packet.TreeHop{Port: packet.Tag(p)})
		}
		for _, c := range children[node] {
			port, ok := g.PortBetween(node, c)
			if !ok {
				return nil, fmt.Errorf("mcast: no port %d->%d: %w", node, c, topo.ErrNoPath)
			}
			sub, err := build(c)
			if err != nil {
				return nil, err
			}
			hops = append(hops, packet.TreeHop{Port: packet.Tag(port), Sub: sub})
		}
		return hops, nil
	}
	hops, err := build(root)
	if err != nil {
		return nil, err
	}
	wire, err := packet.EncodeTree(hops)
	if err != nil {
		return nil, fmt.Errorf("mcast: group %d tree: %w", group, err)
	}
	return &Tree{
		Group:   group,
		Src:     src,
		Root:    srcAt.Switch,
		Members: sorted,
		Depth:   depth,
		Hops:    hops,
		wire:    wire,
	}, nil
}

// Validate replays the encoded tree over a topology view and checks every
// property a distribution tree owes the fabric: ports are wired to what the
// encoding claims (switch vs host), no switch is visited twice (loop-free),
// the delivered host set is exactly the member set with no duplicates, and
// the depth bound holds. It is the invariant the property tests and the
// chaos auditor run against controller views.
func (t *Tree) Validate(top *topo.Topology) error {
	if err := packet.ValidateTreeWire(t.wire); err != nil {
		return fmt.Errorf("%w: wire: %v", ErrBadTree, err)
	}
	want := make(map[packet.MAC]bool, len(t.Members))
	for _, m := range t.Members {
		want[m] = true
	}
	visited := map[topo.SwitchID]bool{t.Root: true}
	delivered := make(map[packet.MAC]bool, len(t.Members))
	var walk func(sw topo.SwitchID, hops []packet.TreeHop, depth int) error
	walk = func(sw topo.SwitchID, hops []packet.TreeHop, depth int) error {
		if depth > packet.MaxMcastDepth {
			return fmt.Errorf("%w: depth %d exceeds bound", ErrBadTree, depth)
		}
		for _, h := range hops {
			ep, err := top.EndpointAt(sw, topo.Port(h.Port))
			if err != nil {
				return fmt.Errorf("%w: switch %d port %d: %v", ErrBadTree, sw, h.Port, err)
			}
			if len(h.Sub) == 0 {
				if ep.Kind != topo.EndpointHost {
					return fmt.Errorf("%w: switch %d port %d delivers to a non-host", ErrBadTree, sw, h.Port)
				}
				if !want[ep.Host] {
					return fmt.Errorf("%w: delivers to non-member %v", ErrBadTree, ep.Host)
				}
				if delivered[ep.Host] {
					return fmt.Errorf("%w: member %v delivered twice", ErrBadTree, ep.Host)
				}
				delivered[ep.Host] = true
				continue
			}
			if ep.Kind != topo.EndpointSwitch {
				return fmt.Errorf("%w: switch %d port %d forwards to a non-switch", ErrBadTree, sw, h.Port)
			}
			if visited[ep.Switch] {
				return fmt.Errorf("%w: switch %d visited twice", ErrBadTree, ep.Switch)
			}
			visited[ep.Switch] = true
			if err := walk(ep.Switch, h.Sub, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root, t.Hops, 1); err != nil {
		return err
	}
	for _, m := range t.Members {
		if !delivered[m] {
			return fmt.Errorf("%w: member %v never delivered", ErrBadTree, m)
		}
	}
	return nil
}
