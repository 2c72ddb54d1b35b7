package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"dumbnet/internal/packet"
)

// View is a read-only adjacency view of a switch graph. Both the full
// Topology and a Subgraph (a host's TopoCache, a path-graph body, a tenant
// slice) implement it, so the routing kernels run unchanged on either: hosts
// route within their cache, the controller within the global view.
type View interface {
	// SwitchIDs lists the view's switches in ascending order.
	SwitchIDs() []SwitchID
	// Neighbors returns adjacent switches in deterministic order.
	Neighbors(id SwitchID) []Neighbor
}

// attachedView is a View that also knows where hosts plug in.
type attachedView interface {
	View
	HostAt(h MAC) (HostAttach, error)
	PortToward(from, to SwitchID) (Port, error)
}

// SwitchPath is a hop-by-hop sequence of switch IDs, source-side first.
type SwitchPath []SwitchID

// Equal reports element-wise equality.
func (p SwitchPath) Equal(o SwitchPath) bool { return slices.Equal(p, o) }

// Clone copies the path.
func (p SwitchPath) Clone() SwitchPath { return append(SwitchPath(nil), p...) }

// scratchPool serves the entry points that take no scratch of their own.
// Pooling, rather than a scratch field on the view, is what keeps a Topology
// safe for concurrent readers and keeps a thousand host TopoCaches from each
// pinning buffers.
var scratchPool = sync.Pool{New: func() any { return NewDenseScratch() }}

// denseOf returns the CSR form of v: the per-generation snapshot a Topology
// caches, or for any other view (there may be thousands of host caches) a
// snapshot built into sc that lasts until sc's next denseOf.
func denseOf(v View, sc *DenseScratch) *DenseGraph {
	if t, ok := v.(*Topology); ok {
		return t.Dense()
	}
	sc.g.snapshot(v, 0)
	return &sc.g
}

// densePair resolves two switches of v to node indices of its CSR form.
func densePair(v View, sc *DenseScratch, src, dst SwitchID) (g *DenseGraph, si, di int32, err error) {
	g = denseOf(v, sc)
	si, sok := g.IndexOf(src)
	di, dok := g.IndexOf(dst)
	if !sok || !dok {
		return nil, 0, 0, ErrNoPath
	}
	return g, si, di, nil
}

// ShortestPath returns one shortest switch path from src to dst. When rng is
// non-nil, ties between equal-cost next hops are broken uniformly at random
// (paper §4.3: "randomizes the choice for equal cost links ... useful for
// load balancing"); with a nil rng the first neighbor in the view's order
// wins, making the result deterministic.
func ShortestPath(v View, src, dst SwitchID, rng *rand.Rand) (SwitchPath, error) {
	if src == dst {
		return SwitchPath{src}, nil
	}
	sc := scratchPool.Get().(*DenseScratch)
	defer scratchPool.Put(sc)
	g, si, di, err := densePair(v, sc, src, dst)
	if err != nil {
		return nil, err
	}
	if sc.path, err = g.ShortestPathInto(sc, si, di, rng, sc.path); err != nil {
		return nil, err
	}
	return g.idsOf(sc.path), nil
}

// PrimaryBackup returns the §4.3 route pair between two switches of v: a
// shortest path with randomized equal-cost choice, and a backup that avoids
// the primary's links where opts.BackupPenalty makes that cheaper (nil when
// there is none).
func PrimaryBackup(v View, src, dst SwitchID, opts PathGraphOptions, rng *rand.Rand) (primary, backup SwitchPath, err error) {
	sc := scratchPool.Get().(*DenseScratch)
	defer scratchPool.Put(sc)
	g, si, di, err := densePair(v, sc, src, dst)
	if err != nil {
		return nil, nil, err
	}
	if err := g.primaryBackupInto(sc, si, di, opts.withDefaults().BackupPenalty, rng); err != nil {
		return nil, nil, err
	}
	if len(sc.pathB) > 0 {
		backup = g.idsOf(sc.pathB)
	}
	return g.idsOf(sc.path), backup, nil
}

// KShortestPaths returns up to k loop-free shortest paths from src to dst in
// ascending length order (Yen's algorithm over the unweighted view). Paths
// of equal length are ordered deterministically.
func KShortestPaths(v View, src, dst SwitchID, k int) ([]SwitchPath, error) {
	sc := scratchPool.Get().(*DenseScratch)
	defer scratchPool.Put(sc)
	g, si, di, err := densePair(v, sc, src, dst)
	if err != nil {
		return nil, err
	}
	return g.KShortestPaths(sc, si, di, k)
}

// tagsForSwitchPath encodes a switch-level path into the outgoing-port tag
// sequence a packet header carries: for each hop the local port toward the
// next switch, and finally the port where the destination host attaches.
func tagsForSwitchPath(v attachedView, sp SwitchPath, dst MAC) (packet.Path, error) {
	if len(sp) == 0 {
		return nil, ErrNoPath
	}
	at, err := v.HostAt(dst)
	if err != nil {
		return nil, err
	}
	if at.Switch != sp[len(sp)-1] {
		return nil, fmt.Errorf("%w: path ends at switch %d, host on %d", ErrPathInvalid, sp[len(sp)-1], at.Switch)
	}
	tags := make(packet.Path, 0, len(sp))
	for i := 0; i+1 < len(sp); i++ {
		p, err := v.PortToward(sp[i], sp[i+1])
		if err != nil {
			return nil, fmt.Errorf("%w: no link %d->%d", ErrNoLink, sp[i], sp[i+1])
		}
		tags = append(tags, p)
	}
	return append(tags, at.Port), nil
}

// hostPath computes one source-routed tag path from host src to host dst
// over v, with randomized equal-cost choice when rng != nil.
func hostPath(v attachedView, src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	sat, err := v.HostAt(src)
	if err != nil {
		return nil, err
	}
	dat, err := v.HostAt(dst)
	if err != nil {
		return nil, err
	}
	sp, err := ShortestPath(v, sat.Switch, dat.Switch, rng)
	if err != nil {
		return nil, err
	}
	return tagsForSwitchPath(v, sp, dst)
}

// TagsForSwitchPath encodes a switch path as header tags ending at dst's
// attachment port.
func (t *Topology) TagsForSwitchPath(sp SwitchPath, dst MAC) (packet.Path, error) {
	return tagsForSwitchPath(t, sp, dst)
}

// HostPath computes one source-routed tag path from host src to host dst
// over the topology, with randomized equal-cost choice when rng != nil.
func (t *Topology) HostPath(src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	return hostPath(t, src, dst, rng)
}

// WalkTags follows a tag path starting from the switch where host src
// attaches and returns the endpoint the final tag reaches. It is the host
// agent's path verifier (§6.1): a route is accepted only if walking it lands
// on the intended destination.
func (t *Topology) WalkTags(src MAC, tags packet.Path) (Endpoint, error) {
	at, err := t.HostAt(src)
	if err != nil {
		return Endpoint{}, err
	}
	cur := at.Switch
	for i, tag := range tags {
		ep, err := t.EndpointAt(cur, tag)
		if err != nil {
			return Endpoint{}, err
		}
		switch ep.Kind {
		case EndpointNone:
			return Endpoint{}, fmt.Errorf("%w: hop %d dead port %d on switch %d", ErrPathInvalid, i, tag, cur)
		case EndpointHost:
			if i != len(tags)-1 {
				return Endpoint{}, fmt.Errorf("%w: reached host mid-path at hop %d", ErrPathInvalid, i)
			}
			return ep, nil
		case EndpointSwitch:
			if i == len(tags)-1 {
				return Endpoint{}, fmt.Errorf("%w: path ends on a switch-to-switch link", ErrPathInvalid)
			}
			cur = ep.Switch
		}
	}
	return Endpoint{}, fmt.Errorf("%w: empty path", ErrPathInvalid)
}

// VerifyTags reports whether tags routes src's packets to dst.
func (t *Topology) VerifyTags(src, dst MAC, tags packet.Path) error {
	ep, err := t.WalkTags(src, tags)
	if err != nil {
		return err
	}
	if ep.Kind != EndpointHost || ep.Host != dst {
		return fmt.Errorf("%w: path reaches %v, want %v", ErrPathInvalid, ep.Host, dst)
	}
	return nil
}

// ReverseTags computes the reverse tag path for a forward path from src to
// dst (ports differ per direction, so this requires topology knowledge).
func (t *Topology) ReverseTags(src, dst MAC, tags packet.Path) (packet.Path, error) {
	sat, err := t.HostAt(src)
	if err != nil {
		return nil, err
	}
	if err := t.VerifyTags(src, dst, tags); err != nil {
		return nil, err
	}
	// Collect the switch sequence along the forward path.
	seq := SwitchPath{sat.Switch}
	cur := sat.Switch
	for i := 0; i+1 < len(tags); i++ {
		ep, err := t.EndpointAt(cur, tags[i])
		if err != nil {
			return nil, err
		}
		cur = ep.Switch
		seq = append(seq, cur)
	}
	rev := make(SwitchPath, len(seq))
	for i, sw := range seq {
		rev[len(seq)-1-i] = sw
	}
	return t.TagsForSwitchPath(rev, src)
}
