package topo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
)

// Path graph construction (paper §4.3, Algorithm 1). A path graph is the
// unit of caching between controller and host: a primary shortest path,
// "s-steps ε-good" local detours around every segment of it, and a backup
// path that avoids the primary's links where possible.

// PathGraphOptions tunes Algorithm 1.
type PathGraphOptions struct {
	// S is the maximum number of consecutive primary-path hops a local
	// detour may replace (paper constant s, default 2).
	S int
	// Epsilon is the allowed extra length of a detour: a detour around an
	// s-hop segment may be up to s+ε hops (paper constant ε; 0 allows no
	// slack, a negative value means 1).
	Epsilon int
	// BackupPenalty is the multiplicative link cost applied to primary
	// path links when computing the backup path (default 8).
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
// each node's in-set neighbours in ascending ID order. On parallel links a
// node names its lowest port toward a higher-ID neighbour and its highest
// toward a lower-ID one: the ports a Subgraph induced in ascending node and
// port order is left with, so the bytes are the ones its Marshal wrote
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
	nodes := pathGraphNodes(g, sc, opts)

	w := &sc.w
	w.Reset()
	writeHeader(w, pathgrafMagic)
	w.MAC(src)
	w.MAC(dst)
	for _, p := range [2][]int32{sc.path, sc.pathB} {
		w.U16(uint16(len(p)))
		for _, idx := range p {
			w.U32(uint32(g.ids[idx]))
		}
	}
	writeHeader(w, subgraphMagic)
	countAt := len(w.Bytes())
	w.U32(0)
	for i := int32(0); i < int32(len(g.ids)); i++ {
		if !nodes.Has(i) {
			continue
		}
		// In-set edges as neighbour<<8 | port, the port inverted toward a
		// lower ID: sorted, each neighbour's first entry is the one to keep.
		nbrs := sc.nbrs[:0]
		for e := g.start[i]; e < g.start[i+1]; e++ {
			if nb, p := g.nbr[e], g.port[e]; nodes.Has(nb) {
				if nb < i {
					p = ^p
				}
				nbrs = append(nbrs, uint64(nb)<<8|uint64(p))
			}
		}
		slices.Sort(nbrs)
		nbrs = slices.CompactFunc(nbrs, func(a, b uint64) bool { return a>>8 == b>>8 })
		w.U32(uint32(g.ids[i]))
		w.U16(uint16(len(nbrs)))
		for _, v := range nbrs {
			nb, p := int32(v>>8), Port(v)
			if nb < i {
				p = ^p
			}
			w.U32(uint32(g.ids[nb]))
			w.U8(p)
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
// backup paths (held in sc.path and sc.pathB as dense indices) and, for
// every s-hop window [a=p_i, b=p_{i+s}] of the primary (the last window cut
// short at the path's end), all switches x with dist(a,x)+dist(x,b) <= s+ε,
// advancing i by s/2 (at least 1). The distances are g's cached rows, so g
// must be a Topology's snapshot; the node set is a bitmap.
func pathGraphNodes(g *DenseGraph, sc *DenseScratch, opts PathGraphOptions) *Bitset {
	sc.nodes.Reset(len(g.ids))
	for _, p := range [2][]int32{sc.path, sc.pathB} {
		for _, idx := range p {
			sc.nodes.Set(idx)
		}
	}
	primary := sc.path
	last, step := len(primary)-1, max(opts.S/2, 1)
	bound := int32(opts.S + opts.Epsilon)
	for i := 0; i < last; i += step {
		// a and b are connected, so x reaches both or neither.
		da, db := g.DistTo(sc, primary[i]), g.DistTo(sc, primary[min(i+opts.S, last)])
		for x, d := range da {
			if d >= 0 && d+db[x] <= bound {
				sc.nodes.Set(int32(x))
			}
		}
	}
	return &sc.nodes
}

// Validate checks internal consistency: primary and backup lie inside the
// subgraph and connect the two attachment switches.
func (pg *PathGraph) Validate() error {
	sat, err := pg.Graph.HostAt(pg.Src)
	if err != nil {
		return fmt.Errorf("pathgraph: src attach missing: %w", err)
	}
	dat, err := pg.Graph.HostAt(pg.Dst)
	if err != nil {
		return fmt.Errorf("pathgraph: dst attach missing: %w", err)
	}
	check := func(name string, p SwitchPath) error {
		if len(p) == 0 {
			return nil
		}
		if p[0] != sat.Switch || p[len(p)-1] != dat.Switch {
			return fmt.Errorf("pathgraph: %s endpoints %d..%d, want %d..%d",
				name, p[0], p[len(p)-1], sat.Switch, dat.Switch)
		}
		for i := 0; i+1 < len(p); i++ {
			if _, err := pg.Graph.PortToward(p[i], p[i+1]); err != nil {
				return fmt.Errorf("pathgraph: %s hop %d->%d not in subgraph", name, p[i], p[i+1])
			}
		}
		return nil
	}
	if len(pg.Primary) == 0 {
		return fmt.Errorf("pathgraph: empty primary path")
	}
	if err := check("primary", pg.Primary); err != nil {
		return err
	}
	return check("backup", pg.Backup)
}

// PrimaryTags encodes the primary path as header tags.
func (pg *PathGraph) PrimaryTags() (p []Port, err error) {
	return pg.Graph.TagsForSwitchPath(pg.Primary, pg.Dst)
}

// BackupTags encodes the backup path as header tags (ErrNoPath when the
// path graph has no backup).
func (pg *PathGraph) BackupTags() ([]Port, error) {
	if len(pg.Backup) == 0 {
		return nil, ErrNoPath
	}
	return pg.Graph.TagsForSwitchPath(pg.Backup, pg.Dst)
}
