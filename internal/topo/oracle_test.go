package topo

import (
	"encoding/binary"
	"math/rand"
	"sort"
)

// The reference implementations of the routing algorithms: the map-based
// walks the shipped code ran before the dense kernels replaced them, kept
// verbatim so the kernels in dense.go can be held to the same answers — the
// same paths, the same tie-breaks, the same rng draws.

// oracleView is all the map kernels need from a graph.
type oracleView interface {
	Neighbors(id SwitchID) []Neighbor
}

// Distances returns BFS hop counts from src to every reachable switch.
func OracleDistances(v oracleView, src SwitchID) map[SwitchID]int {
	dist := map[SwitchID]int{src: 0}
	queue := []SwitchID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range v.Neighbors(cur) {
			if _, ok := dist[nb.Sw]; !ok {
				dist[nb.Sw] = dist[cur] + 1
				queue = append(queue, nb.Sw)
			}
		}
	}
	return dist
}

// oracleShortestPath returns one shortest switch path from src to dst: BFS
// from dst, then a downhill walk. A non-nil rng breaks ties between
// equal-cost next hops uniformly; with a nil rng the first neighbor wins.
func oracleShortestPath(v oracleView, src, dst SwitchID, rng *rand.Rand) (SwitchPath, error) {
	if src == dst {
		return SwitchPath{src}, nil
	}
	dist := OracleDistances(v, dst)
	if _, ok := dist[src]; !ok {
		return nil, ErrNoPath
	}
	path := SwitchPath{src}
	cur := src
	for cur != dst {
		var candidates []SwitchID
		want := dist[cur] - 1
		for _, nb := range v.Neighbors(cur) {
			if d, ok := dist[nb.Sw]; ok && d == want {
				candidates = append(candidates, nb.Sw)
			}
		}
		if len(candidates) == 0 {
			return nil, ErrNoPath
		}
		next := candidates[0]
		if rng != nil && len(candidates) > 1 {
			next = candidates[rng.Intn(len(candidates))]
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// oracleWeightedShortestPath runs Dijkstra with per-link weights given by
// cost (1 when cost returns 0 or less), smallest ID first among equals.
func oracleWeightedShortestPath(v oracleView, src, dst SwitchID, cost func(a, b SwitchID) float64) (SwitchPath, error) {
	type qitem struct {
		sw   SwitchID
		dist float64
	}
	dist := map[SwitchID]float64{src: 0}
	prev := map[SwitchID]SwitchID{}
	visited := map[SwitchID]bool{}
	for {
		best := qitem{dist: -1}
		for sw, d := range dist {
			if visited[sw] {
				continue
			}
			if best.dist < 0 || d < best.dist || (d == best.dist && sw < best.sw) {
				best = qitem{sw: sw, dist: d}
			}
		}
		if best.dist < 0 {
			return nil, ErrNoPath
		}
		if best.sw == dst {
			break
		}
		visited[best.sw] = true
		for _, nb := range v.Neighbors(best.sw) {
			if visited[nb.Sw] {
				continue
			}
			w := cost(best.sw, nb.Sw)
			if w <= 0 {
				w = 1
			}
			nd := best.dist + w
			if d, ok := dist[nb.Sw]; !ok || nd < d {
				dist[nb.Sw] = nd
				prev[nb.Sw] = best.sw
			}
		}
	}
	var rev SwitchPath
	for cur := dst; ; {
		rev = append(rev, cur)
		if cur == src {
			break
		}
		p, ok := prev[cur]
		if !ok {
			return nil, ErrNoPath
		}
		cur = p
	}
	out := make(SwitchPath, len(rev))
	for i, sw := range rev {
		out[len(rev)-1-i] = sw
	}
	return out, nil
}

// oracleKShortestPaths is Yen's algorithm over the unweighted view: up to k
// loop-free paths in ascending length order, equal lengths by lessPath.
func oracleKShortestPaths(v oracleView, src, dst SwitchID, k int) ([]SwitchPath, error) {
	first, err := oracleShortestPath(v, src, dst, nil)
	if err != nil {
		return nil, err
	}
	paths := []SwitchPath{first}
	if k <= 1 {
		return paths, nil
	}
	seen := map[string]bool{pathKey(first): true}
	var candidates []SwitchPath
	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last)-1; i++ {
			spur := last[i]
			root := last[:i+1].Clone()
			// Hide the links previous paths sharing this root took out of
			// the spur node, and the root's own nodes.
			removedEdges := map[[2]SwitchID]bool{}
			for _, p := range paths {
				if len(p) > i && p[:i+1].Equal(root) && len(p) > i+1 {
					removedEdges[[2]SwitchID{p[i], p[i+1]}] = true
					removedEdges[[2]SwitchID{p[i+1], p[i]}] = true
				}
			}
			removedNodes := map[SwitchID]bool{}
			for _, sw := range root[:len(root)-1] {
				removedNodes[sw] = true
			}
			fv := filteredView{v: v, edges: removedEdges, nodes: removedNodes}
			spurPath, err := oracleShortestPath(fv, spur, dst, nil)
			if err != nil {
				continue
			}
			total := append(root[:len(root)-1].Clone(), spurPath...)
			if key := pathKey(total); !seen[key] {
				seen[key] = true
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			return lessPath(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// pathKey returns the big-endian byte encoding of a path — the hash-set key
// oracleKShortestPaths dedups with.
func pathKey(p SwitchPath) string {
	b := make([]byte, 4*len(p))
	for i, sw := range p {
		binary.BigEndian.PutUint32(b[4*i:], uint32(sw))
	}
	return string(b)
}

func lessPath(a, b SwitchPath) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// filteredView hides a set of edges and nodes from an underlying view.
type filteredView struct {
	v     oracleView
	edges map[[2]SwitchID]bool
	nodes map[SwitchID]bool
}

func (f filteredView) Neighbors(id SwitchID) []Neighbor {
	if f.nodes[id] {
		return nil
	}
	var out []Neighbor
	for _, nb := range f.v.Neighbors(id) {
		if f.nodes[nb.Sw] || f.edges[[2]SwitchID{id, nb.Sw}] {
			continue
		}
		out = append(out, nb)
	}
	return out
}
