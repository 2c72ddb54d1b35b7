package topo

import (
	"fmt"
	"math/rand"
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

// PathGraph is the controller's answer to a path request: a connected
// subgraph of the fabric containing the primary path, local detours, and a
// backup path, plus the attachment points needed to turn switch paths into
// tag paths.
type PathGraph struct {
	Src, Dst MAC
	Primary  SwitchPath
	Backup   SwitchPath
	Graph    *Subgraph
}

// BuildPathGraph runs Algorithm 1 on the full topology for the host pair
// (src, dst). rng (optional) randomizes equal-cost primary choices.
func BuildPathGraph(t *Topology, src, dst MAC, opts PathGraphOptions, rng *rand.Rand) (*PathGraph, error) {
	return BuildPathGraphScratch(t, src, dst, opts, rng, NewDenseScratch())
}

// BuildPathGraphScratch is BuildPathGraph over caller-owned scratch buffers.
// The controller's route service holds one scratch per shard, so the path
// and Dijkstra state behind every cache miss is reused instead of reallocated.
func BuildPathGraphScratch(t *Topology, src, dst MAC, opts PathGraphOptions, rng *rand.Rand, sc *DenseScratch) (*PathGraph, error) {
	opts = opts.withDefaults()
	sat, err := t.HostAt(src)
	if err != nil {
		return nil, err
	}
	dat, err := t.HostAt(dst)
	if err != nil {
		return nil, err
	}
	g, si, di, err := densePair(t, sc, sat.Switch, dat.Switch)
	if err != nil {
		return nil, err
	}
	if err := g.primaryBackupInto(sc, si, di, opts.BackupPenalty, rng); err != nil {
		return nil, err
	}
	primary := g.idsOf(sc.path)
	var backup SwitchPath
	if len(sc.pathB) > 0 {
		backup = g.idsOf(sc.pathB)
	}

	nodes := detourNodesDense(g, sc, opts)
	for _, idx := range sc.pathB {
		nodes.Set(idx)
	}

	// Induce the subgraph on the node set, in ascending node order.
	sub := NewSubgraph()
	for i := int32(0); i < int32(len(g.ids)); i++ {
		if !nodes.Has(i) {
			continue
		}
		for e := g.start[i]; e < g.start[i+1]; e++ {
			nb := g.nbr[e]
			if !nodes.Has(nb) {
				continue
			}
			rp, ok := g.PortBetween(nb, i)
			if !ok {
				return nil, ErrNoLink
			}
			sub.AddEdge(g.ids[i], g.port[e], g.ids[nb], rp)
		}
	}
	sub.AddHost(sat)
	sub.AddHost(dat)
	return &PathGraph{Src: src, Dst: dst, Primary: primary, Backup: backup, Graph: sub}, nil
}

// detourNodesDense implements the loop body of Algorithm 1: for every s-hop
// window [a=p_i, b=p_{i+s}] of the primary path (held in sc.path as dense
// indices; the last window is cut short at the path's end), mark all switches x with dist(a,x)+dist(x,b) <= s+ε in sc.nodes,
// advancing i by s/2 (at least 1). The distances are g's cached rows, so g
// must be a Topology's snapshot; the node set is a bitmap.
func detourNodesDense(g *DenseGraph, sc *DenseScratch, opts PathGraphOptions) *Bitset {
	sc.nodes.Reset(len(g.ids))
	primary := sc.path
	for _, idx := range primary {
		sc.nodes.Set(idx)
	}
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

// Clone deep-copies the path graph, so callers may mutate the result without
// aliasing a cached instance.
func (pg *PathGraph) Clone() *PathGraph {
	return &PathGraph{
		Src:     pg.Src,
		Dst:     pg.Dst,
		Primary: pg.Primary.Clone(),
		Backup:  pg.Backup.Clone(),
		Graph:   pg.Graph.Clone(),
	}
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
