package topo

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"dumbnet/internal/packet"
)

// The routing kernels. BFS, weighted shortest path and Yen's k-shortest
// paths exist once, here, over an index-compressed CSR graph and reusable
// slice-backed scratch: a DenseGraph maps switch IDs to contiguous ints and
// lays the adjacency out flat, so the kernels allocate nothing in steady
// state (guarded by AllocsPerRun tests, like the dataplane). The entry
// points in route.go, pathgraph.go and mcast run on them; the map-based
// walks they replaced live on in oracle_test.go as the reference.

// DenseGraph is an index-compressed CSR snapshot of a View's switch graph.
// Node indices are the rank of each switch ID in ascending order; an edge
// is one direction of one cable, and per-node edge order equals the view's
// Neighbors order (local port order for a Topology, cable order for a
// Subgraph), which fixes equal-cost tie-breaking and the rng draw sequence.
type DenseGraph struct {
	ids   []SwitchID // node index -> switch ID, ascending
	start []int32    // CSR row offsets, len(ids)+1
	nbr   []int32    // edge target node index
	port  []Port     // local out-port per edge, parallel to nbr
	far   []Port     // the port the edge's cable arrives at, parallel to nbr
	// rows caches, per destination node, the hop count from every node to
	// it (DistTo). Only a Topology's per-generation snapshot has rows: a
	// mutation drops the snapshot and its rows together, while a scratch
	// snapshot of any other view (nil rows) is rebuilt on every call.
	rows []atomic.Pointer[[]int32]
}

// snapshot rebuilds g from v in place, reusing the edge arrays; edges is a
// capacity hint for a first build (a reused g has grown to fit already). A
// Subgraph's switch list is read in place, its rows already in ID order.
func (g *DenseGraph) snapshot(v View, edges int) {
	if s, ok := v.(*Subgraph); ok {
		g.ids = s.appendIDs(g.ids[:0])
	} else {
		g.ids = v.SwitchIDs()
	}
	g.start = append(slices.Grow(g.start[:0], len(g.ids)+1), 0)
	g.nbr, g.port, g.far = slices.Grow(g.nbr[:0], edges), slices.Grow(g.port[:0], edges), slices.Grow(g.far[:0], edges)
	for _, id := range g.ids {
		for _, nb := range v.Neighbors(id) {
			if j, ok := g.IndexOf(nb.Sw); ok {
				g.nbr = append(g.nbr, j)
				g.port = append(g.port, nb.Port)
				g.far = append(g.far, nb.FarPort)
			}
		}
		g.start = append(g.start, int32(len(g.nbr)))
	}
}

// NumNodes reports the number of switches in the snapshot.
func (g *DenseGraph) NumNodes() int { return len(g.ids) }

// IndexOf maps a switch ID to its dense node index.
func (g *DenseGraph) IndexOf(id SwitchID) (int32, bool) {
	i, ok := slices.BinarySearch(g.ids, id)
	return int32(i), ok
}

// IDOf maps a dense node index back to its switch ID.
func (g *DenseGraph) IDOf(i int32) SwitchID { return g.ids[i] }

// EdgeRange returns the CSR edge index range [lo, hi) of node i's
// adjacency, for callers building their own walks over the snapshot (the
// multicast tree builder is one).
func (g *DenseGraph) EdgeRange(i int32) (lo, hi int32) { return g.start[i], g.start[i+1] }

// EdgeTarget returns edge e's target node index.
func (g *DenseGraph) EdgeTarget(e int32) int32 { return g.nbr[e] }

// EdgePort returns the local out-port of edge e.
func (g *DenseGraph) EdgePort(e int32) Port { return g.port[e] }

// EdgeFarPort returns the port edge e's cable arrives at.
func (g *DenseGraph) EdgeFarPort(e int32) Port { return g.far[e] }

// edgeFrom returns the node edge e leaves.
func (g *DenseGraph) edgeFrom(e int32) int32 {
	i, _ := slices.BinarySearch(g.start, e+1)
	return int32(i - 1)
}

// maskCable hides edge e and the edge its cable comes back by: a cable is
// masked both ways.
func (g *DenseGraph) maskCable(edges *Bitset, e int32) {
	edges.Set(e)
	from, to := g.edgeFrom(e), g.nbr[e]
	for r := g.start[to]; r < g.start[to+1]; r++ {
		if g.nbr[r] == from && g.port[r] == g.far[e] {
			edges.Set(r)
		}
	}
}

// routeOf turns the edges a dense path takes from src into a Route.
func (g *DenseGraph) routeOf(src int32, edges []int32) Route {
	out := make(Route, len(edges)+1)
	cur := src
	for i, e := range edges {
		out[i] = PortRef{Switch: g.ids[cur], Port: g.port[e]}
		cur = g.nbr[e]
	}
	out[len(edges)] = PortRef{Switch: g.ids[cur]}
	return out
}

// Bitset is a reusable set over dense node (or edge) indices.
type Bitset struct {
	words []uint64
}

// Reset clears the set and ensures capacity for n bits.
func (b *Bitset) Reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		return
	}
	b.words = b.words[:w]
	for i := range b.words {
		b.words[i] = 0
	}
}

// Set marks index i.
func (b *Bitset) Set(i int32) { b.words[i>>6] |= 1 << uint(i&63) }

// Has reports whether index i is marked.
func (b *Bitset) Has(i int32) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// DenseScratch holds the reusable buffers the dense kernels run over. One
// scratch serves one goroutine at a time; the zero value is ready to use and
// grows to the largest graph it has seen.
type DenseScratch struct {
	g      DenseGraph    // snapshot of a view that keeps none of its own (denseOf)
	dist   []int32       // BFS hop counts (-1 = unreached)
	queue  []int32       // BFS work queue
	wdist  []float64     // Dijkstra tentative distances (+Inf: unreached, -1: settled)
	prev   []int32       // Dijkstra: the edge each node was reached by
	nodes  Bitset        // path-graph node set under construction
	path   []int32       // primary path buffer (its edges)
	pathB  []int32       // backup path buffer (its edges)
	nbrs   []uint64      // path-graph writer: one node's in-set edges
	w      packet.Writer // path-graph writer: the answer's wire form
	cand   []int32       // equal-cost candidate edges
	mask   denseMask     // Yen: root nodes and used cables hidden from a spur search; backup: primary cables
	arena  []int32       // Yen: accepted and candidate paths' edges, back to back
	found  []span        // Yen: accepted paths, in order
	queued []span        // Yen: candidates not yet accepted
}

// denseMask hides nodes and CSR edges from a search.
type denseMask struct {
	nodes, edges Bitset
}

// span locates one path's edges inside DenseScratch.arena.
type span struct{ off, n int32 }

func (sc *DenseScratch) at(s span) []int32 { return sc.arena[s.off : s.off+s.n] }

// NewDenseScratch returns an empty scratch; buffers grow on first use.
func NewDenseScratch() *DenseScratch { return &DenseScratch{} }

// grow returns s resized to n elements, reallocating only when it must; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bfsInto runs BFS from src, filling dist with hop counts (-1 unreached);
// queue is the work buffer, returned for reuse. A non-nil mask hides its
// nodes and edges.
func (g *DenseGraph) bfsInto(dist, queue []int32, src int32, mask *denseMask) ([]int32, []int32) {
	n := len(g.ids)
	dist = grow(dist, n)
	for i := range dist {
		dist[i] = -1
	}
	if cap(queue) < n {
		queue = make([]int32, 0, n)
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for e := g.start[cur]; e < g.start[cur+1]; e++ {
			nb := g.nbr[e]
			if dist[nb] >= 0 || (mask != nil && (mask.edges.Has(e) || mask.nodes.Has(nb))) {
				continue
			}
			dist[nb] = dist[cur] + 1
			queue = append(queue, nb)
		}
	}
	return dist, queue
}

// DistTo returns the hop count from every node to dst (-1 unreached), which
// the caller must not modify. On a Topology's snapshot the row is computed
// by its first reader and shared by every later one until the next
// mutation; on any other snapshot it is a BFS into sc, overwritten by sc's
// next kernel call.
func (g *DenseGraph) DistTo(sc *DenseScratch, dst int32) []int32 {
	if g.rows == nil {
		sc.dist, sc.queue = g.bfsInto(sc.dist, sc.queue, dst, nil)
		return sc.dist
	}
	if r := g.rows[dst].Load(); r != nil {
		return *r
	}
	var row []int32
	row, sc.queue = g.bfsInto(nil, sc.queue, dst, nil)
	return *publish(&g.rows[dst], &row)
}

// ShortestPathInto appends the edges of one shortest path from src to dst
// to buf[:0] and returns them: a downhill walk over DistTo's row, the first
// candidate edge winning with a nil rng (lowest port on a Topology), a
// uniform draw otherwise (paper §4.3: "randomizes the choice for equal cost
// links"). On error the result is buf emptied, so `sc.path, err = ...`
// keeps the buffer.
func (g *DenseGraph) ShortestPathInto(sc *DenseScratch, src, dst int32, rng *rand.Rand, buf []int32) ([]int32, error) {
	return g.shortestPath(sc, src, dst, rng, buf, nil)
}

func (g *DenseGraph) shortestPath(sc *DenseScratch, src, dst int32, rng *rand.Rand, buf []int32, mask *denseMask) ([]int32, error) {
	buf = buf[:0]
	if src == dst {
		return buf, nil
	}
	var dist []int32
	if mask == nil {
		dist = g.DistTo(sc, dst)
	} else {
		sc.dist, sc.queue = g.bfsInto(sc.dist, sc.queue, dst, mask)
		dist = sc.dist
	}
	if dist[src] < 0 {
		return buf, ErrNoPath
	}
	for cur := src; cur != dst; {
		want := dist[cur] - 1
		sc.cand = sc.cand[:0]
		for e := g.start[cur]; e < g.start[cur+1]; e++ {
			// Masked nodes are unreached; a masked edge may still lead
			// to a node that was reached another way.
			if dist[g.nbr[e]] == want && (mask == nil || !mask.edges.Has(e)) {
				sc.cand = append(sc.cand, e)
			}
		}
		if len(sc.cand) == 0 {
			return buf[:0], ErrNoPath
		}
		e := sc.cand[0]
		if rng != nil && len(sc.cand) > 1 {
			e = sc.cand[rng.Intn(len(sc.cand))]
		}
		buf = append(buf, e)
		cur = g.nbr[e]
	}
	return buf, nil
}

// WeightedShortestPathInto runs Dijkstra from src to dst, appending the
// path's edges to buf[:0]: an edge in heavy costs penalty (> 0), any other
// 1. It is the backup search of §4.3, heavy holding the primary's cables. Nodes
// settle by smallest distance, then smallest node index (= smallest switch
// ID), with strict-improvement relaxation, so results are reproducible.
// Weights are positive, so every open node at the smallest open distance is
// final and nothing relaxed from one can join them: one scan finds that
// distance and one ascending pass settles the whole level, in the order a
// heap of (distance, index) would pop it. A settled node's distance reads
// -1, below any relaxed one, so relaxing needs no visited set.
func (g *DenseGraph) WeightedShortestPathInto(sc *DenseScratch, src, dst int32, heavy *Bitset, penalty float64, buf []int32) ([]int32, error) {
	n := len(g.ids)
	sc.wdist = grow(sc.wdist, n)
	sc.prev = grow(sc.prev, n)
	for i := range sc.wdist {
		sc.wdist[i] = math.Inf(1)
		sc.prev[i] = -1
	}
	sc.wdist[src] = 0
settle:
	for {
		bd := math.Inf(1)
		for _, d := range sc.wdist {
			if d < bd && d >= 0 {
				bd = d
			}
		}
		if math.IsInf(bd, 1) {
			return buf[:0], ErrNoPath
		}
		for best := int32(0); best < int32(n); best++ {
			if sc.wdist[best] != bd {
				continue
			}
			if best == dst {
				break settle
			}
			sc.wdist[best] = -1
			for e := g.start[best]; e < g.start[best+1]; e++ {
				nb, w := g.nbr[e], 1.0
				if heavy.Has(e) {
					w = penalty
				}
				if nd := bd + w; nd < sc.wdist[nb] {
					sc.wdist[nb] = nd
					sc.prev[nb] = e
				}
			}
		}
	}
	buf = buf[:0]
	for cur := dst; cur != src; cur = g.edgeFrom(buf[len(buf)-1]) {
		buf = append(buf, sc.prev[cur])
	}
	slices.Reverse(buf)
	return buf, nil
}

// primaryBackupInto computes the §4.3 route pair between src and dst: a
// shortest path with randomized equal-cost choice into sc.path, and into
// sc.pathB the shortest path once every primary cable costs penalty both
// ways, so the two share as few cables as they can. A penalty only raises
// costs, so there is a backup whenever there is a primary.
func (g *DenseGraph) primaryBackupInto(sc *DenseScratch, src, dst int32, penalty float64, rng *rand.Rand) error {
	var err error
	if sc.path, err = g.ShortestPathInto(sc, src, dst, rng, sc.path); err != nil {
		return err
	}
	sc.mask.edges.Reset(len(g.nbr))
	for _, e := range sc.path {
		g.maskCable(&sc.mask.edges, e)
	}
	sc.pathB, err = g.WeightedShortestPathInto(sc, src, dst, &sc.mask.edges, penalty, sc.pathB)
	return err
}

// KShortestPaths returns up to k loop-free shortest routes from src to dst
// in ascending length order (Yen's algorithm over unit weights; ties as in
// less, so twin cables give twin routes). Each spur search is the
// shortest-path kernel under a mask that hides the root's nodes and the
// cables earlier paths took out of the spur node. Only the returned routes
// are allocated; the candidate pool lives in sc.
func (g *DenseGraph) KShortestPaths(sc *DenseScratch, src, dst int32, k int) ([]Route, error) {
	var err error
	if sc.path, err = g.ShortestPathInto(sc, src, dst, nil, sc.path); err != nil {
		return nil, err
	}
	sc.arena = append(sc.arena[:0], sc.path...)
	sc.found = append(sc.found[:0], span{0, int32(len(sc.path))})
	sc.queued = sc.queued[:0]
	for len(sc.found) < k {
		last := sc.found[len(sc.found)-1]
		for i := int32(0); i < last.n; i++ {
			root := sc.at(last)[:i]
			sc.mask.nodes.Reset(len(g.ids))
			sc.mask.edges.Reset(len(g.nbr))
			spur := src
			for _, e := range root {
				sc.mask.nodes.Set(spur)
				spur = g.nbr[e]
			}
			for _, s := range sc.found {
				if p := sc.at(s); s.n > i && slices.Equal(p[:i], root) {
					g.maskCable(&sc.mask.edges, p[i])
				}
			}
			if sc.pathB, err = g.shortestPath(sc, spur, dst, nil, sc.pathB, &sc.mask); err != nil {
				continue
			}
			// root aliases the arena; appending from it is safe because
			// the copy source sits below the append point.
			off := int32(len(sc.arena))
			sc.arena = append(append(sc.arena, root...), sc.pathB...)
			total := span{off, int32(len(sc.arena)) - off}
			if sc.known(total) {
				sc.arena = sc.arena[:off]
				continue
			}
			sc.queued = append(sc.queued, total)
		}
		if len(sc.queued) == 0 {
			break
		}
		best := 0
		for c := 1; c < len(sc.queued); c++ {
			if g.less(sc, sc.queued[c], sc.queued[best]) {
				best = c
			}
		}
		sc.found = append(sc.found, sc.queued[best])
		sc.queued[best] = sc.queued[len(sc.queued)-1]
		sc.queued = sc.queued[:len(sc.queued)-1]
	}
	out := make([]Route, len(sc.found))
	for i, s := range sc.found {
		out[i] = g.routeOf(src, sc.at(s))
	}
	return out, nil
}

// known reports whether path s was already accepted or queued.
func (sc *DenseScratch) known(s span) bool {
	p := sc.at(s)
	for _, list := range [2][]span{sc.found, sc.queued} {
		for _, o := range list {
			if slices.Equal(sc.at(o), p) {
				return true
			}
		}
	}
	return false
}

// less orders paths from one node by length, then hop by hop by the node
// reached (ranked like its switch ID), then by edge, in the view's order.
func (g *DenseGraph) less(sc *DenseScratch, a, b span) bool {
	if a.n != b.n {
		return a.n < b.n
	}
	pa, pb := sc.at(a), sc.at(b)
	for i := range pa {
		if na, nb := g.nbr[pa[i]], g.nbr[pb[i]]; na != nb {
			return na < nb
		}
	}
	return slices.Compare(pa, pb) < 0
}
