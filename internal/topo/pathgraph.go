package topo

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
)

// Path graph construction (paper §4.3, Algorithm 1). A path graph is the
// unit of caching between controller and host: a primary shortest path,
// "s-steps ε-good" local detours around every segment of it, and a backup
// path that avoids the primary's cables where possible.

// PathGraphOptions tunes Algorithm 1.
type PathGraphOptions struct {
	// S is the maximum number of consecutive primary-path hops a local
	// detour may replace (paper constant s, default 2).
	S int
	// Epsilon is the allowed extra length of a detour: a detour around an
	// s-hop segment may be up to s+ε hops (paper constant ε; 0 allows no
	// slack, a negative value means 1).
	Epsilon int
	// BackupPenalty is the multiplicative link cost applied to the primary
	// path's cables when computing the backup path (default 8).
	BackupPenalty float64
}

func (o PathGraphOptions) withDefaults() PathGraphOptions {
	if o.S <= 0 {
		o.S = 2
	}
	if o.Epsilon < 0 {
		o.Epsilon = 1
	}
	if o.BackupPenalty <= 0 {
		o.BackupPenalty = 8
	}
	return o
}

// PathGraph is the answer to a path request as a host reads it: a connected
// subgraph of the fabric containing the primary path, local detours, and a
// backup path, plus the attachment points needed to turn switch paths into
// tag paths. The controller keeps only the wire form (WritePathGraph).
type PathGraph struct {
	Src, Dst MAC
	Primary  SwitchPath
	Backup   SwitchPath
	Graph    *Subgraph
}

// BuildPathGraph runs Algorithm 1 on the full topology for the host pair
// (src, dst). rng (optional) randomizes equal-cost primary choices.
func BuildPathGraph(t *Topology, src, dst MAC, opts PathGraphOptions, rng *rand.Rand) (*PathGraph, error) {
	return BuildPathGraphInto(NewSubgraph(), t, src, dst, opts, rng, NewDenseScratch())
}

// BuildPathGraphScratch is BuildPathGraph over caller-owned scratch buffers.
func BuildPathGraphScratch(t *Topology, src, dst MAC, opts PathGraphOptions, rng *rand.Rand, sc *DenseScratch) (*PathGraph, error) {
	return BuildPathGraphInto(NewSubgraph(), t, src, dst, opts, rng, sc)
}

// BuildPathGraphInto runs Algorithm 1 for (src, dst) and reads the answer
// into s the way a host reads a path response into its TopoCache: the wire
// form WritePathGraph writes, through DecodePathGraph. It returns the path
// graph with Graph set to s.
func BuildPathGraphInto(s *Subgraph, t *Topology, src, dst MAC, opts PathGraphOptions, rng *rand.Rand, sc *DenseScratch) (*PathGraph, error) {
	wire, _, err := WritePathGraph(t, src, dst, opts, rng, sc)
	if err != nil {
		return nil, err
	}
	return DecodePathGraph(wire, s)
}

// WritePathGraph runs Algorithm 1 for the host pair (src, dst) and returns
// the answer in wire form (the MsgPathResponse body, PathGraph.Marshal's
// layout) and how many switches its graph holds. No Subgraph is built: the
// body is written from the dense node set, over sc's buffers. The
// controller's route service holds one scratch per shard, so the path and
// Dijkstra state behind every cache miss is reused instead of reallocated.
//
// The graph lists every node of the set in ascending ID order (each has a
// neighbour in the set, or is the one switch of a same-switch pair), and
// each node's cables to in-set nodes in cable order (cableKey): by
// neighbour ID, then, toward one neighbour, by the cable's port at its
// lower-ID end, so the k-th entry either end lists names the same cable
// (TestPathGraphWireMatchesOracle).
func WritePathGraph(t *Topology, src, dst MAC, opts PathGraphOptions, rng *rand.Rand, sc *DenseScratch) (wire []byte, switches int, err error) {
	opts = opts.withDefaults()
	sat, dat, err := attachPair(t, src, dst)
	if err != nil {
		return nil, 0, err
	}
	g, si, di, err := densePair(t, sc, sat.Switch, dat.Switch)
	if err != nil {
		return nil, 0, err
	}
	if err := g.primaryBackupInto(sc, si, di, opts.BackupPenalty, rng); err != nil {
		return nil, 0, err
	}
	nodes := pathGraphNodes(g, sc, si, opts)

	w := &sc.w
	w.Reset()
	writeHeader(w, pathgrafMagic)
	w.MAC(src)
	w.MAC(dst)
	for _, p := range [2][]int32{sc.path, sc.pathB} {
		w.U16(uint16(len(p) + 1))
		w.U32(uint32(sat.Switch))
		for _, e := range p {
			w.U32(uint32(g.ids[g.nbr[e]]))
		}
	}
	writeHeader(w, subgraphMagic)
	countAt := len(w.Bytes())
	w.U32(0)
	for i := int32(0); i < int32(len(g.ids)); i++ {
		if !nodes.Has(i) {
			continue
		}
		// In-set cables as their cableKey and local port: sorted, that is
		// cable order.
		nbrs := sc.nbrs[:0]
		for e := g.start[i]; e < g.start[i+1]; e++ {
			if nb := g.nbr[e]; nodes.Has(nb) {
				key := cableKey(g.ids[i], Neighbor{Sw: g.ids[nb], Port: g.port[e], FarPort: g.far[e]})
				nbrs = append(nbrs, key<<8|uint64(g.port[e]))
			}
		}
		slices.Sort(nbrs)
		w.U32(uint32(g.ids[i]))
		w.U16(uint16(len(nbrs)))
		for _, v := range nbrs {
			w.U32(uint32(v >> 16))
			w.U8(Port(v))
		}
		sc.nbrs = nbrs
		switches++
	}
	binary.BigEndian.PutUint32(w.Bytes()[countAt:], uint32(switches))
	hosts := []HostAttach{sat, dat}
	slices.SortFunc(hosts, byHost)
	hosts = slices.CompactFunc(hosts, func(a, b HostAttach) bool { return a.Host == b.Host })
	w.U32(uint32(len(hosts)))
	for _, at := range hosts {
		writeAttach(w, at)
	}
	return bytes.Clone(w.Bytes()), switches, nil
}

// pathGraphNodes marks Algorithm 1's node set in sc.nodes: the primary and
// backup paths (held in sc.path and sc.pathB as edges from src) and, for
// every s-hop window [a=p_i, b=p_{i+s}] of the primary (the last window cut
// short at the path's end), all switches x with dist(a,x)+dist(x,b) <= s+ε,
// advancing i by s/2 (at least 1). The distances are g's cached rows, so g
// must be a Topology's snapshot; the node set is a bitmap.
func pathGraphNodes(g *DenseGraph, sc *DenseScratch, src int32, opts PathGraphOptions) *Bitset {
	sc.nodes.Reset(len(g.ids))
	sc.nodes.Set(src)
	for _, p := range [2][]int32{sc.path, sc.pathB} {
		for _, e := range p {
			sc.nodes.Set(g.nbr[e])
		}
	}
	node := func(i int) int32 {
		if i == 0 {
			return src
		}
		return g.nbr[sc.path[i-1]]
	}
	last, step := len(sc.path), max(opts.S/2, 1)
	bound := int32(opts.S + opts.Epsilon)
	for i := 0; i < last; i += step {
		// a and b are connected, so x reaches both or neither.
		da, db := g.DistTo(sc, node(i)), g.DistTo(sc, node(min(i+opts.S, last)))
		for x, d := range da {
			if d >= 0 && d+db[x] <= bound {
				sc.nodes.Set(int32(x))
			}
		}
	}
	return &sc.nodes
}

// Validate checks that the primary, and the backup if there is one, run
// from the source's switch to the destination's over cached cables.
func (pg *PathGraph) Validate() error {
	sat, err := pg.Graph.HostAt(pg.Src)
	if err != nil {
		return fmt.Errorf("pathgraph: src attach missing: %w", err)
	}
	for i, p := range []SwitchPath{pg.Primary, pg.Backup} {
		if i == 1 && len(p) == 0 {
			break
		}
		if _, err := pg.RouteOf(p); err != nil || p[0] != sat.Switch {
			return fmt.Errorf("pathgraph: %s path %v, from switch %d: %w", [2]string{"primary", "backup"}[i], p, sat.Switch, cmp.Or(err, ErrPathInvalid))
		}
	}
	return nil
}

// RouteOf turns Primary or Backup, which the wire names by switches only,
// into the route over Graph that delivers to Dst: each hop takes its first
// cached cable toward the next switch.
func (pg *PathGraph) RouteOf(sp SwitchPath) (Route, error) {
	at, err := pg.Graph.HostAt(pg.Dst)
	if err != nil || len(sp) == 0 {
		return nil, cmp.Or(err, ErrNoPath)
	}
	if sp[len(sp)-1] != at.Switch {
		return nil, fmt.Errorf("%w: path %v does not end at switch %d, where the host is", ErrPathInvalid, sp, at.Switch)
	}
	r := make(Route, len(sp))
	r[len(sp)-1] = PortRef{Switch: at.Switch, Port: at.Port}
	for i := 0; i+1 < len(sp); i++ {
		p, ok := pg.Graph.firstCable(sp[i], sp[i+1])
		if !ok {
			return nil, fmt.Errorf("%w: no link %d->%d", ErrNoLink, sp[i], sp[i+1])
		}
		r[i] = PortRef{Switch: sp[i], Port: p}
	}
	return r, nil
}
