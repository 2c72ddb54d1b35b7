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
	// CableAt returns the far end of the cable on port p of sw, if any.
	CableAt(sw SwitchID, p Port) (PortRef, bool)
}

// SwitchPath is a hop-by-hop sequence of switch IDs, source-side first.
type SwitchPath []SwitchID

// Equal reports element-wise equality.
func (p SwitchPath) Equal(o SwitchPath) bool { return slices.Equal(p, o) }

// Clone copies the path.
func (p SwitchPath) Clone() SwitchPath { return append(SwitchPath(nil), p...) }

// Route is a path as the cables it crosses: hop i leaves switch r[i].Switch
// by port r[i].Port, the tag the kernel's cable gives. The last hop's Port
// is 0 until a caller names the host port the route delivers to.
type Route []PortRef

// Switches lists the switches the route visits.
func (r Route) Switches() SwitchPath {
	out := make(SwitchPath, len(r))
	for i, h := range r {
		out[i] = h.Switch
	}
	return out
}

// Tags returns the route's tag stack: each hop's port.
func (r Route) Tags() packet.Path {
	out := make(packet.Path, len(r))
	for i, h := range r {
		out[i] = h.Port
	}
	return out
}

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

// ShortestPath returns one shortest route from src to dst. When rng is
// non-nil, ties between equal-cost cables are broken uniformly at random
// (paper §4.3: "randomizes the choice for equal cost links ... useful for
// load balancing"); with a nil rng the first cable in the view's order
// wins, making the result deterministic.
func ShortestPath(v View, src, dst SwitchID, rng *rand.Rand) (Route, error) {
	if src == dst {
		return Route{{Switch: src}}, nil
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
	return g.routeOf(si, sc.path), nil
}

// PrimaryBackup returns the §4.3 route pair between two switches of v: a
// shortest route with randomized equal-cost choice, and a backup that
// avoids the primary's cables where opts.BackupPenalty makes that cheaper.
func PrimaryBackup(v View, src, dst SwitchID, opts PathGraphOptions, rng *rand.Rand) (primary, backup Route, err error) {
	sc := scratchPool.Get().(*DenseScratch)
	defer scratchPool.Put(sc)
	g, si, di, err := densePair(v, sc, src, dst)
	if err != nil {
		return nil, nil, err
	}
	if err := g.primaryBackupInto(sc, si, di, opts.withDefaults().BackupPenalty, rng); err != nil {
		return nil, nil, err
	}
	return g.routeOf(si, sc.path), g.routeOf(si, sc.pathB), nil
}

// KShortestPaths returns up to k loop-free shortest routes from src to dst
// in ascending length order (Yen's algorithm over the unweighted view),
// equal lengths in a fixed order; twin cables give twin routes.
func KShortestPaths(v View, src, dst SwitchID, k int) ([]Route, error) {
	sc := scratchPool.Get().(*DenseScratch)
	defer scratchPool.Put(sc)
	g, si, di, err := densePair(v, sc, src, dst)
	if err != nil {
		return nil, err
	}
	return g.KShortestPaths(sc, si, di, k)
}

// attachPair looks up where hosts src and dst attach in v.
func attachPair(v attachedView, src, dst MAC) (sat, dat HostAttach, err error) {
	if sat, err = v.HostAt(src); err == nil {
		dat, err = v.HostAt(dst)
	}
	return sat, dat, err
}

// hostPath computes one source-routed tag path from host src to host dst
// over v, with randomized equal-cost choice when rng != nil.
func hostPath(v attachedView, src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	sat, dat, err := attachPair(v, src, dst)
	if err != nil {
		return nil, err
	}
	r, err := ShortestPath(v, sat.Switch, dat.Switch, rng)
	if err != nil {
		return nil, err
	}
	r[len(r)-1].Port = dat.Port
	return r.Tags(), nil
}

// HostPath computes one source-routed tag path from host src to host dst
// over the topology, with randomized equal-cost choice when rng != nil.
func (t *Topology) HostPath(src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	return hostPath(t, src, dst, rng)
}

// FollowTags is the source-route walker (§6.1, Table 2 "Path Verify"): from
// host src's switch, every tag but the last must name a port v wires to
// another switch, and the last must be dst's attachment port. v is a
// *Topology or a *Subgraph (a host's TopoCache, a tenant slice). visit, when
// non-nil, sees each switch the route reads a tag at, in order, and may stop
// the walk with an error. On failure hop is the index of the offending tag
// and at the switch it was read at (hop is -1 when v does not know src or
// dst). A successful walk does not allocate.
func FollowTags(v attachedView, src, dst MAC, tags packet.Path, visit func(SwitchID) error) (hop int, at SwitchID, err error) {
	sat, dat, err := attachPair(v, src, dst)
	if err != nil {
		return -1, 0, err
	}
	cur := sat.Switch
	if len(tags) == 0 {
		return 0, cur, fmt.Errorf("%w: empty path", ErrPathInvalid)
	}
	last := len(tags) - 1
	for i, tag := range tags {
		if visit != nil {
			if err := visit(cur); err != nil {
				return i, cur, err
			}
		}
		if i == last {
			if cur != dat.Switch || tag != dat.Port {
				return i, cur, fmt.Errorf("%w: hop %d: tag %d at switch %d does not reach %v", ErrPathInvalid, i, tag, cur, dst)
			}
			break
		}
		far, ok := v.CableAt(cur, tag)
		if !ok {
			return i, cur, fmt.Errorf("%w: hop %d: tag %d at switch %d is not a switch link", ErrPathInvalid, i, tag, cur)
		}
		cur = far.Switch
	}
	return len(tags), cur, nil
}

// VerifyTags reports whether tags routes src's packets to dst.
func (t *Topology) VerifyTags(src, dst MAC, tags packet.Path) error {
	_, _, err := FollowTags(t, src, dst, tags, nil)
	return err
}
