package experiments

import (
	"fmt"
	"math/rand"

	"dumbnet/internal/controller"
	"dumbnet/internal/host"
	"dumbnet/internal/metrics"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// Table 2 — kernel-module function latencies. The paper measures, on a
// fat-tree with 5,120 switches and 131,072 links, with 10 K random
// PathTable entries and a verified path of length 16:
//
//	PathTable lookup 0.37 µs, path verify 7.17 µs, find path 1.50 µs
//
// These are real executions here, not simulations: we time this repo's
// actual data structures on the same scale of inputs.

// Table2Sizes mirrors the paper's measurement setup.
type Table2Sizes struct {
	FatTreeK     int // 64 => 5,120 switches / 131,072 links
	TableEntries int
	VerifyLen    int
	Reps         int
}

// DefaultTable2Sizes is the paper's configuration.
func DefaultTable2Sizes() Table2Sizes {
	return Table2Sizes{FatTreeK: 64, TableEntries: 10000, VerifyLen: 16, Reps: 1000}
}

// Table2Micro holds the measured latencies (ns per op).
type Table2Micro struct {
	LookupNs float64
	VerifyNs float64
	FindNs   float64
}

// RunTable2Micro executes the three microbenchmarks and returns per-op
// latencies, each the median of interleaved samples (interleavedMedians).
func RunTable2Micro(sz Table2Sizes) (Table2Micro, error) {
	rng := rand.New(rand.NewSource(42))

	// --- PathTable lookup over 10K random entries. ---
	pt := host.NewPathTable()
	var keys []packet.MAC
	for i := 0; i < sz.TableEntries; i++ {
		m := packet.MACFromUint64(uint64(i) + 1)
		keys = append(keys, m)
		pt.Install(m, &host.TableEntry{Paths: []host.CachedPath{{Tags: packet.Path{1, 2, 3}}}})
	}

	// --- Path verify: walk a VerifyLen-tag path against the topology.
	// A fat-tree's diameter is too small for a 16-hop path, so the verify
	// workload runs on a cube whose corner-to-corner route is VerifyLen
	// hops (the walk cost depends on length, not topology shape). ---
	side := (sz.VerifyLen + 2) / 3 // 3 dims * (side-1) hops + host tag
	cube, err := topo.CubeDims([]int{side, side, side}, 1, 0)
	if err != nil {
		return Table2Micro{}, err
	}
	ch := cube.Hosts()
	src, dst := ch[0].Host, ch[len(ch)-1].Host
	vtags, err := cube.HostPath(src, dst, nil)
	if err != nil {
		return Table2Micro{}, err
	}
	if len(vtags) < sz.VerifyLen-3 {
		return Table2Micro{}, fmt.Errorf("experiments: verify path only %d tags", len(vtags))
	}

	// --- Find path: what the kernel module's path-cache service actually
	// does — search the host's TopoCache (merged path graphs), not the
	// whole fabric. Build the cache on the full-size fat-tree, then time
	// route computation inside it. ---
	ft, err := topo.FatTree(sz.FatTreeK, 1, 0)
	if err != nil {
		return Table2Micro{}, err
	}
	hosts := ft.Hosts()
	origin := hosts[0].Host
	cache, sc := topo.NewSubgraph(), topo.NewDenseScratch()
	var dsts []packet.MAC
	for i := 0; i < 8; i++ {
		dst := hosts[rng.Intn(len(hosts))].Host
		if dst == origin {
			continue
		}
		if _, err := topo.BuildPathGraphInto(cache, ft, origin, dst, controller.PathGraphOptions(), rng, sc); err != nil {
			return Table2Micro{}, err
		}
		dsts = append(dsts, dst)
	}

	var sink *host.TableEntry
	next := 0
	ns, err := interleavedMedians(sz.Reps,
		func() error { sink = pt.Lookup(keys[rng.Intn(len(keys))]); return nil },
		func() error { return cube.VerifyTags(src, dst, vtags) },
		func() error {
			next++
			_, err := cache.HostPath(origin, dsts[next%len(dsts)], rng)
			return err
		})
	_ = sink
	if err != nil {
		return Table2Micro{}, err
	}
	return Table2Micro{LookupNs: ns[0], VerifyNs: ns[1], FindNs: ns[2]}, nil
}

// Table2 runs the microbenchmarks and formats the comparison.
func Table2(sz Table2Sizes) (*Result, error) {
	m, err := RunTable2Micro(sz)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Table 2: kernel-module latencies (fat-tree k=%d, %d-entry PathTable, %d-hop verify)",
			sz.FatTreeK, sz.TableEntries, sz.VerifyLen),
		"function", "paper (µs)", "measured (µs)")
	tbl.AddRow("PathTable lookup", 0.37, m.LookupNs/1000)
	tbl.AddRow("Path verify", 7.17, m.VerifyNs/1000)
	tbl.AddRow("Find path", 1.50, m.FindNs/1000)
	res := &Result{Name: "Table 2 — kernel-module function latencies", Table: tbl,
		Notes: []string{fmt.Sprintf("measured: median of %d interleaved samples of %d reps each", wallSamples, sz.Reps)}}
	res.Checks = append(res.Checks,
		Check{
			Claim: "lookup is the cheapest operation (sub-µs hash lookup)",
			Pass:  m.LookupNs < m.VerifyNs && m.LookupNs < 2000,
			Got:   fmt.Sprintf("lookup %.2fµs", m.LookupNs/1000),
		},
		Check{
			Claim: "verify and find-path are per-flow (not per-packet) costs well under a millisecond",
			Pass:  m.VerifyNs < 100_000 && m.FindNs < 1_000_000,
			Got:   fmt.Sprintf("verify %.2fµs, find %.2fµs", m.VerifyNs/1000, m.FindNs/1000),
		},
	)
	return res, nil
}
