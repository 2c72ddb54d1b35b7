// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7), plus microbenchmarks of the hot datapath primitives. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benches execute the corresponding experiments package
// generator (quick variants where the full sweep takes minutes) and fail
// the bench if any of the paper's shape checks regress.
package dumbnet_test

import (
	"math/rand"
	"testing"

	"dumbnet/internal/experiments"
	"dumbnet/internal/flowsim"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// requirePass fails the benchmark if an experiment's shape checks regress.
func requirePass(b *testing.B, res *experiments.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if !res.AllPass() {
		b.Fatalf("%s: shape checks failed:\n%s", res.Name, res.String())
	}
}

// --- One bench per paper table/figure -----------------------------------

func BenchmarkTable1CodeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(".")
		requirePass(b, res, err)
	}
}

func BenchmarkTable2KernelModule(b *testing.B) {
	sz := experiments.DefaultTable2Sizes()
	sz.Reps = 200
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(sz)
		requirePass(b, res, err)
	}
}

func BenchmarkFig7FPGAResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7()
		requirePass(b, res, nil)
	}
}

func BenchmarkFig8aDiscoveryVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8a(true)
		requirePass(b, res, err)
	}
}

func BenchmarkFig8bDiscoveryVsPorts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8b(true)
		requirePass(b, res, err)
	}
}

func BenchmarkFig9Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(5000)
		requirePass(b, res, err)
	}
}

func BenchmarkFig10LatencyCDF(b *testing.B) {
	cfg := experiments.DefaultFig10Config()
	cfg.PingsPerPair = 20
	cfg.Pairs = 40
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(cfg)
		requirePass(b, res, err)
	}
}

func BenchmarkFig11aNotificationDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11a(experiments.DefaultFig11aConfig())
		requirePass(b, res, err)
	}
}

func BenchmarkFig11bFailoverVsSTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11b(experiments.DefaultFig11bConfig())
		requirePass(b, res, err)
	}
}

func BenchmarkFig12PathGraphSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(6, 2, 1)
		requirePass(b, res, err)
	}
}

func BenchmarkFig13HiBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(experiments.DefaultFig13Config())
		requirePass(b, res, err)
	}
}

func BenchmarkAggregateLeafThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AggregateLeafThroughput()
		requirePass(b, res, err)
	}
}

func BenchmarkTestbedDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TestbedDiscovery()
		requirePass(b, res, err)
	}
}

// --- Ablation benches (design-choice experiments beyond the paper) ------

func BenchmarkAblationPathGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPathGraph(15, 1)
		requirePass(b, res, err)
	}
}

func BenchmarkAblationFlowletTimeout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFlowletTimeout()
		requirePass(b, res, err)
	}
}

func BenchmarkAblationHopLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHopLimit()
		requirePass(b, res, err)
	}
}

func BenchmarkAblationSuppression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSuppression()
		requirePass(b, res, err)
	}
}

func BenchmarkAblationECN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationECN()
		requirePass(b, res, err)
	}
}

func BenchmarkAblationPHostIncast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPHostIncast()
		requirePass(b, res, err)
	}
}

func BenchmarkFlowCompletionTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FlowCompletionTimes(0.5, 0.5, nil, 1)
		requirePass(b, res, err)
	}
}

func BenchmarkStorageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.StorageOverhead(8, 40, 1)
		requirePass(b, res, err)
	}
}

// --- Datapath microbenchmarks (the Table 2 / Fig 9 primitives) ----------

func BenchmarkFrameEncode(b *testing.B) {
	f := &packet.Frame{
		Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
		Tags: packet.Path{2, 3, 5, 1}, InnerType: packet.EtherTypeIPv4,
		Payload: make([]byte, 1450),
	}
	buf := make([]byte, 1600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.EncodeTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode measures the zero-copy path a switch or host uses on
// the datapath: DecodeFrom into a reused Frame, no per-packet allocation.
func BenchmarkFrameDecode(b *testing.B) {
	f := &packet.Frame{
		Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
		Tags: packet.Path{2, 3, 5, 1}, InnerType: packet.EtherTypeIPv4,
		Payload: make([]byte, 1450),
	}
	buf, _ := f.Encode()
	var out packet.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := packet.DecodeFrom(&out, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecodeAlloc keeps the allocating convenience API honest.
func BenchmarkFrameDecodeAlloc(b *testing.B) {
	f := &packet.Frame{
		Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
		Tags: packet.Path{2, 3, 5, 1}, InnerType: packet.EtherTypeIPv4,
		Payload: make([]byte, 1450),
	}
	buf, _ := f.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwitchPopTag(b *testing.B) {
	f := &packet.Frame{
		Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
		Tags: packet.Path{2, 3, 5, 1}, InnerType: packet.EtherTypeIPv4,
		Payload: make([]byte, 1450),
	}
	master, _ := f.Encode()
	buf := make([]byte, len(master))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, master)
		if _, _, err := packet.PopTag(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathTableLookup(b *testing.B) {
	pt := host.NewPathTable()
	var keys []packet.MAC
	for i := 0; i < 10000; i++ {
		m := packet.MACFromUint64(uint64(i) + 1)
		keys = append(keys, m)
		pt.Install(m, &host.TableEntry{Paths: []host.CachedPath{{Tags: packet.Path{1, 2, 3}}}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pt.Lookup(keys[i%len(keys)]) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkShortestPathFatTree(b *testing.B) {
	ft, err := topo.FatTree(16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	hosts := ft.Hosts()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hosts[i%len(hosts)].Host
		dst := hosts[(i*7+13)%len(hosts)].Host
		if src == dst {
			continue
		}
		if _, err := ft.HostPath(src, dst, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPathGraphCube(b *testing.B) {
	cube, err := topo.Cube(8, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	hosts := cube.Hosts()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hosts[i%len(hosts)].Host
		dst := hosts[(i*31+77)%len(hosts)].Host
		if src == dst {
			continue
		}
		if _, err := topo.BuildPathGraph(cube, src, dst, topo.PathGraphOptions{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowsimAllocate1000Flows(b *testing.B) {
	net := flowsim.NewNetwork()
	var links []flowsim.LinkID
	for i := 0; i < 128; i++ {
		links = append(links, net.AddLink(1e9))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := flowsim.NewSimulator(net)
		first := &flowsim.Flow{ID: 0, Path: []flowsim.LinkID{links[0], links[17]}, Size: 1e6}
		s.Add(first)
		for f := 1; f < 1000; f++ {
			s.Add(&flowsim.Flow{
				ID:   f,
				Path: []flowsim.LinkID{links[f%128], links[(f+17)%128]},
				Size: 1e6,
			})
		}
		if s.RateOf(first) <= 0 { // forces one max-min allocation
			b.Fatal("no allocation")
		}
	}
}
