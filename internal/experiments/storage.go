package experiments

import (
	"fmt"
	"math/rand"

	"dumbnet/internal/controller"
	"dumbnet/internal/host"
	"dumbnet/internal/metrics"
	"dumbnet/internal/topo"
)

// StorageOverhead reproduces the §7.3 storage claim: "even in a large data
// center with 2,000 switches and 100,000 hosts, saving both TopoCache and
// PathTable will cost at most 10MB of memory". We build a host's caches on
// a large fat-tree, measure their serialized footprint per destination, and
// extrapolate to the paper's scale.

// subgraphBytes estimates a TopoCache's size from its wire encoding.
func subgraphBytes(s *topo.Subgraph) int { return len(s.Marshal()) }

// pathTableBytes estimates a PathTable's footprint: tags plus hop refs.
func pathTableBytes(pt *host.PathTable) int {
	total := 0
	for _, dst := range pt.Destinations() {
		e := pt.Lookup(dst)
		total += 6 // key
		for _, p := range e.Paths {
			total += len(p.Tags) + len(p.Hops)*5
		}
		if e.Backup != nil {
			total += len(e.Backup.Tags) + len(e.Backup.Hops)*5
		}
	}
	return total
}

// StorageOverhead measures cache growth against destination count.
func StorageOverhead(k int, destinations int, seed int64) (*Result, error) {
	if k <= 0 {
		k = 32 // 1,280 switches, plenty for the trend
	}
	if destinations <= 0 {
		destinations = 200
	}
	ft, err := topo.FatTree(k, 1, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	hosts := ft.Hosts()
	src := hosts[0].Host

	cache, sc := topo.NewSubgraph(), topo.NewDenseScratch()
	pt := host.NewPathTable()
	tbl := metrics.NewTable(
		fmt.Sprintf("§7.3 storage overhead: host caches on a k=%d fat-tree (%d switches)", k, ft.NumSwitches()),
		"destinations cached", "TopoCache bytes", "PathTable bytes")

	var lastTotal int
	var perDest float64
	samplePoints := []int{destinations / 4, destinations / 2, destinations}
	sampled := 0
	for i := 1; i <= destinations; i++ {
		dst := hosts[rng.Intn(len(hosts))].Host
		if dst == src {
			continue
		}
		pg, err := topo.BuildPathGraphInto(cache, ft, src, dst, controller.PathGraphOptions(), rng, sc)
		if err != nil {
			return nil, err
		}
		sat, _ := cache.HostAt(src)
		dat, _ := cache.HostAt(dst)
		routes, err := topo.KShortestPaths(cache, sat.Switch, dat.Switch, 4)
		if err != nil {
			continue
		}
		// Store what a host's path response installs: each route's tags and
		// hops, and the answer's backup.
		entry := &host.TableEntry{}
		for _, r := range routes {
			r[len(r)-1].Port = dat.Port
			entry.Paths = append(entry.Paths, host.CachedPath{Tags: r.Tags(), Hops: r})
		}
		if r, err := pg.RouteOf(pg.Backup); err == nil {
			entry.Backup = &host.CachedPath{Tags: r.Tags(), Hops: r}
		}
		pt.Install(dst, entry)
		if sampled < len(samplePoints) && i == samplePoints[sampled] {
			sampled++
			tc, ptb := subgraphBytes(cache), pathTableBytes(pt)
			tbl.AddRow(i, tc, ptb)
			lastTotal = tc + ptb
			perDest = float64(lastTotal) / float64(i)
		}
	}

	// Extrapolate to the paper's scale: a host talking to 1,000 distinct
	// peers (far more than typical) in a 2,000-switch/100,000-host DCN.
	extrapolated := perDest * 1000
	tbl.AddRow("extrapolated: 1,000 peers", fmt.Sprintf("%.1f MB total", extrapolated/1e6), "")

	res := &Result{
		Name:  "§7.3 — host cache storage overhead",
		Table: tbl,
		Notes: []string{"paper: TopoCache + PathTable cost at most 10 MB even at 2,000-switch scale"},
	}
	res.Checks = append(res.Checks,
		Check{
			Claim: "per-destination cache cost stays in the kilobyte range",
			Pass:  perDest > 0 && perDest < 50_000,
			Got:   fmt.Sprintf("%.0f bytes/destination", perDest),
		},
		Check{
			Claim: "a 1,000-peer host stays well under the paper's 10 MB bound",
			Pass:  extrapolated < 10e6,
			Got:   fmt.Sprintf("%.1f MB", extrapolated/1e6),
		},
	)
	return res, nil
}
