package topo

import "slices"

// PartitionShards splits a topology's switches into n balanced,
// locality-preserving regions for parallel (sharded) simulation. The
// assignment is deterministic for a given (topology, n).
//
// The algorithm is multi-seed BFS region growing: n seed switches are picked
// evenly spaced through the host-bearing switches (on a fat-tree these are
// the edge switches, so seeds land in distinct pods), then the regions grow
// breadth-first in round-robin order, each capped at ceil(S/n) switches.
// Growing from the host edge inward keeps each host's first hop — the
// hottest traffic locality — inside its own shard, and on a fat-tree
// reproduces the natural "one shard per pod group, core spread across
// shards" cut. Switches unreachable from any seed (disconnected components)
// are appended to the least-loaded regions.
//
// n is clamped to [1, NumSwitches]. The result maps every switch to a shard
// in [0, n).
func PartitionShards(t *Topology, n int) map[SwitchID]int {
	ids := t.SwitchIDs()
	if n < 1 {
		n = 1
	}
	if n > len(ids) {
		n = len(ids)
	}
	part := make(map[SwitchID]int, len(ids))
	if n == 1 {
		for _, id := range ids {
			part[id] = 0
		}
		return part
	}

	// Seeds: evenly spaced host-bearing switches; fall back to evenly
	// spaced switches when fewer than n switches carry hosts.
	var edge []SwitchID
	seen := make(map[SwitchID]bool)
	for _, h := range t.Hosts() { // Hosts() is MAC-ordered → deterministic
		if !seen[h.Switch] {
			seen[h.Switch] = true
			edge = append(edge, h.Switch)
		}
	}
	slices.Sort(edge)
	pool := edge
	if len(pool) < n {
		pool = ids
	}
	seeds := make([]SwitchID, n)
	for s := 0; s < n; s++ {
		seeds[s] = pool[s*len(pool)/n]
	}

	// Round-robin BFS growth with a per-region cap.
	cap := (len(ids) + n - 1) / n
	size := make([]int, n)
	frontier := make([][]SwitchID, n)
	for s, id := range seeds {
		if _, taken := part[id]; taken {
			continue // duplicate seed (tiny pools); region starts empty
		}
		part[id] = s
		size[s]++
		frontier[s] = append(frontier[s], id)
	}
	for remaining := len(ids) - len(part); remaining > 0; {
		grew := false
		for s := 0; s < n; s++ {
			if size[s] >= cap || len(frontier[s]) == 0 {
				continue
			}
			// Pop one frontier switch and claim one unclaimed neighbor per
			// turn, re-queuing the switch while it still has unclaimed
			// neighbors — this interleaves regions finely enough to stay
			// balanced.
			id := frontier[s][0]
			claimed := false
			for _, nb := range t.Neighbors(id) {
				if _, taken := part[nb.Sw]; taken {
					continue
				}
				part[nb.Sw] = s
				size[s]++
				remaining--
				frontier[s] = append(frontier[s], nb.Sw)
				claimed = true
				grew = true
				break
			}
			if !claimed {
				frontier[s] = frontier[s][1:]
			}
		}
		if !grew {
			exhausted := true
			for s := 0; s < n; s++ {
				if len(frontier[s]) > 0 && size[s] < cap {
					exhausted = false
				}
			}
			if exhausted {
				break // capped out or disconnected leftovers
			}
		}
	}

	// Leftovers: capped-out frontiers or disconnected switches go to the
	// least-loaded shard, smallest ID first.
	for _, id := range ids {
		if _, ok := part[id]; ok {
			continue
		}
		least := 0
		for s := 1; s < n; s++ {
			if size[s] < size[least] {
				least = s
			}
		}
		part[id] = least
		size[least]++
	}
	return part
}

// PartitionStats summarises a partition for inspection: per-shard switch
// counts and the number of links crossing shards.
func PartitionStats(t *Topology, part map[SwitchID]int) (sizes []int, crossLinks int) {
	n := 0
	for _, s := range part {
		if s+1 > n {
			n = s + 1
		}
	}
	sizes = make([]int, n)
	for _, s := range part {
		sizes[s]++
	}
	for _, l := range t.Links() {
		if part[l.A] != part[l.B] {
			crossLinks++
		}
	}
	return sizes, crossLinks
}
