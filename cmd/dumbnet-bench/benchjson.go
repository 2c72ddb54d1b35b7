package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"dumbnet/internal/controller"
	"dumbnet/internal/dswitch"
	"dumbnet/internal/experiments"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
	"dumbnet/internal/vnet"
)

// Machine-readable benchmark emission (BENCH_results.json). Each invocation
// with -bench-json runs the datapath microbenchmarks plus quick Fig 9/10
// sweeps through testing.Benchmark and records ns/op, B/op and allocs/op
// under a labeled run, so successive runs (before/after an optimization, or
// across machines) can be diffed with jq or the comparison recipe in
// EXPERIMENTS.md.

const benchSchema = "dumbnet-bench/v1"

type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Hybrid scale runs additionally record simulation throughput and the
	// memory high-water marks of the run.
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	FlowsCompleted int64   `json:"flows_completed,omitempty"`
	HeapSysBytes   int64   `json:"heap_sys_bytes,omitempty"`
	PeakRSSBytes   int64   `json:"peak_rss_bytes,omitempty"`
	// Federated window benches additionally record how many conservative
	// shard windows the group opened per virtual second (the WAN-lookahead
	// scaling evidence).
	WindowsPerVirtualSec float64 `json:"windows_per_virtual_sec,omitempty"`
}

type benchRun struct {
	Label string `json:"label"`
	Go    string `json:"go"`
	// Scheduler shape of the machine that produced the run: sharded-engine
	// speedup numbers are meaningless without knowing how many cores the
	// workers actually had (the 1-CPU-container caveat in EXPERIMENTS.md),
	// so both are recorded on every run and surface in any jq diff.
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Memory footprint at the end of the run: the Go heap's OS footprint
	// (runtime.ReadMemStats HeapSys) and the process high-water RSS where
	// the OS exposes it (/proc/self/status VmHWM on Linux, else 0).
	HeapSysBytes int64 `json:"heap_sys_bytes,omitempty"`
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

type benchFile struct {
	Schema string     `json:"schema"`
	Runs   []benchRun `json:"runs"`
}

// benchFrame is the canonical 1500-byte-class frame used across the
// microbenchmarks, matching the root-package bench suite.
func benchFrame() *packet.Frame {
	return &packet.Frame{
		Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
		Tags: packet.Path{2, 3, 5, 1}, InnerType: packet.EtherTypeIPv4,
		Payload: make([]byte, 1450),
	}
}

type benchSink struct{}

func (*benchSink) Receive(int, []byte) {}

// recycleSink returns every delivered frame to the buffer pool so a
// steady-state fork bench sees the pool it would see in the emulator.
type recycleSink struct{}

func (*recycleSink) Receive(_ int, frame []byte) { packet.PutBuffer(frame) }

// frameSink defeats dead-code elimination in the allocating decode bench.
var frameSink *packet.Frame

// shapeMisses counts experiment iterations whose shape checks missed while
// benchmarking (reported once at the end of the suite, not fatal).
var shapeMisses int

func warnShapeMiss(name string, res *experiments.Result) {
	if !res.AllPass() {
		shapeMisses++
		fmt.Fprintf(os.Stderr, "warning: %s shape check missed during bench iteration\n", name)
	}
}

// microBenches lists the recorded benchmarks. Fig 9/10 run their quick
// configurations; everything else is a hot-path primitive.
func microBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"FrameEncode", func(b *testing.B) {
			f := benchFrame()
			buf := make([]byte, 1600)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.EncodeTo(buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"FrameDecode", func(b *testing.B) {
			buf, _ := benchFrame().Encode()
			var f packet.Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := packet.DecodeFrom(&f, buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"FrameDecodeAlloc", func(b *testing.B) {
			buf, _ := benchFrame().Encode()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := packet.Decode(buf)
				if err != nil {
					b.Fatal(err)
				}
				frameSink = f // keep the allocation observable
			}
		}},
		{"SwitchPopTag", func(b *testing.B) {
			master, _ := benchFrame().Encode()
			buf := make([]byte, len(master))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, master)
				if _, _, err := packet.PopTag(buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EngineAfterStep", func(b *testing.B) {
			e := sim.NewEngine(1)
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.After(10, fn)
				e.Step()
			}
		}},
		{"EngineEventChurn", func(b *testing.B) {
			e := sim.NewEngine(1)
			fn := func() {}
			for i := 0; i < 64; i++ {
				e.After(sim.Time(i)*sim.Microsecond, fn)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.After(sim.Microsecond, fn)
				e.Step()
			}
		}},
		{"LinkForward", func(b *testing.B) {
			e := sim.NewEngine(1)
			a := &benchSink{}
			c := &benchSink{}
			l := sim.NewLink(e, a, 1, c, 1, sim.LinkConfig{PropDelay: sim.Microsecond, BandwidthBps: 10e9})
			frame := make([]byte, 1500)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.SendFrom(a, frame)
				e.Run()
			}
		}},
		// The traced/untraced pair quantifies flight-recorder overhead on
		// the switch forwarding path; TraceHopRecord isolates the ring
		// append itself.
		{"SwitchForwardUntraced", func(b *testing.B) {
			benchSwitchForward(b, nil)
		}},
		{"SwitchForwardTraced", func(b *testing.B) {
			benchSwitchForward(b, trace.NewRecorder(trace.DefaultConfig()))
		}},
		{"TraceHopRecord", func(b *testing.B) {
			rec := trace.NewRecorder(trace.DefaultConfig())
			buf, _ := benchFrame().Encode()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.PacketHop(int64(i), 100, 1, 2, buf)
			}
		}},
		// The telemetry trio quantifies the streaming-analytics loop: the
		// ring publish path with a live tap attached (must match the
		// untapped TraceHopRecord at 0 allocs/op), the per-record consumer
		// ingest, and the windowed detector sweep at fat-tree k=16 fabric
		// scale (5120 directed link states).
		{"TelemetryPublish1Subscriber", func(b *testing.B) {
			rec := trace.NewRecorder(trace.DefaultConfig())
			tap := rec.Subscribe(1 << 12)
			buf, _ := benchFrame().Encode()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.PacketHop(int64(i), 100, 1, 2, buf)
				if tap.Len() == tap.Cap() {
					b.StopTimer()
					tap.Drain(func(*trace.Record) {})
					b.StartTimer()
				}
			}
		}},
		{"TelemetryIngestHop", func(b *testing.B) {
			c := telemetry.NewOfflineConsumer(telemetry.DefaultConfig())
			r := trace.Record{Kind: trace.KindHop, Sw: 3, Port: 5, Dur: 100,
				Src: packet.MACFromUint64(7), Dst: packet.MACFromUint64(9)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.At = int64(i)
				c.IngestRecord(&r)
			}
		}},
		{"TelemetryFlushK16", func(b *testing.B) {
			// A k=16 fat-tree has 320 switches with 16 fabric-facing
			// ports each; touch every directed link once so the detector
			// sweep walks the full state table.
			c := telemetry.NewOfflineConsumer(telemetry.DefaultConfig())
			r := trace.Record{Kind: trace.KindHop, Dur: 100,
				Src: packet.MACFromUint64(7), Dst: packet.MACFromUint64(9)}
			for sw := 1; sw <= 320; sw++ {
				for p := 1; p <= 16; p++ {
					r.Sw, r.Port = packet.SwitchID(sw), packet.Tag(p)
					c.IngestRecord(&r)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.EndWindow()
			}
		}},
		// The path-request trio quantifies the route-service cache: a cold
		// lookup pays the full dense-kernel compute + marshal, a warm hit is
		// a map probe returning cached wire bytes (0 allocs), and post-patch
		// pays compute plus the dense-graph rebuild the mutation forced.
		{"PathRequestCold", func(b *testing.B) {
			c, _, q := benchRouteService(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Routes().Invalidate()
				if _, err := c.Resolve(q); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"PathRequestWarm", func(b *testing.B) {
			c, _, q := benchRouteService(b)
			if _, err := c.Resolve(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Resolve(q); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The tenant variant probes the per-tenant route cache: a warm hit
		// must match the untenanted warm path at 0 allocs/op even though it
		// also validates four freshness tokens against the vnet manager.
		{"TenantPathRequestWarm", func(b *testing.B) {
			tp, err := topo.FatTree(8, 2, 0)
			if err != nil {
				b.Fatal(err)
			}
			eng := sim.NewEngine(1)
			hosts := tp.Hosts()
			c := controller.New(eng, host.New(eng, hosts[0].Host, host.DefaultConfig()), controller.DefaultConfig())
			c.SetMaster(tp)
			m := vnet.NewManager(tp, topo.PathGraphOptions{}, 1)
			members := []packet.MAC{hosts[1].Host, hosts[2].Host, hosts[3].Host}
			if _, err := m.CreateTenant("bench", members); err != nil {
				b.Fatal(err)
			}
			c.SetVirtualization(vnet.ControllerAdapter{M: m})
			q := controller.RouteQuery{Src: members[0], Dst: members[2], Tenant: "bench", Scope: controller.ScopeTenant}
			if _, err := c.Resolve(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Resolve(q); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"PathRequestPostPatch", func(b *testing.B) {
			c, tp, q := benchRouteService(b)
			sw := tp.Hosts()[2].Switch
			nb := tp.Neighbors(sw)[0]
			far, err := tp.PortToward(nb.Sw, sw)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tp.Disconnect(sw, nb.Port); err != nil {
					b.Fatal(err)
				}
				if err := tp.Connect(sw, nb.Port, nb.Sw, far); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Resolve(q); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Sharded-engine suite: the EngineSharded pair isolates the window/
		// barrier protocol; the FatTreeK16 pair runs one end-to-end traffic
		// wave on 1 vs 8 shards (same virtual workload, so the ns/op ratio is
		// the parallel speedup on multi-core hosts).
		{"EngineSharded1", func(b *testing.B) { benchEngineSharded(b, 1) }},
		{"EngineSharded4", func(b *testing.B) { benchEngineSharded(b, 4) }},
		{"EngineSharded8", func(b *testing.B) { benchEngineSharded(b, 8) }},
		{"FatTreeK16Shards1", func(b *testing.B) { benchFatTreeK16(b, 1) }},
		{"FatTreeK16Shards8", func(b *testing.B) { benchFatTreeK16(b, 8) }},
		// The multicast pair covers both halves of the tentpole datapath:
		// McastFanout4 is one switch replicating a tagged frame to four
		// branches (pool-recycled, 0 allocs), McastTreeWarm the controller
		// serving a cached distribution tree (a map probe, 0 allocs).
		{"McastFanout4", func(b *testing.B) { benchMcastFanout(b, 4) }},
		{"McastTreeWarm", func(b *testing.B) {
			tp, err := topo.FatTree(8, 2, 0)
			if err != nil {
				b.Fatal(err)
			}
			eng := sim.NewEngine(1)
			hosts := tp.Hosts()
			c := controller.New(eng, host.New(eng, hosts[0].Host, host.DefaultConfig()), controller.DefaultConfig())
			c.SetMaster(tp)
			members := []packet.MAC{hosts[1].Host, hosts[7].Host, hosts[23].Host, hosts[41].Host}
			if err := c.Mcast().CreateGroup(1, members); err != nil {
				b.Fatal(err)
			}
			q := controller.RouteQuery{Src: members[0], Group: 1, Scope: controller.ScopeTree}
			if _, err := c.Resolve(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Resolve(q); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"KShortestPathsK8", func(b *testing.B) {
			tp, err := topo.FatTree(6, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			hosts := tp.Hosts()
			s, d := hosts[0].Switch, hosts[len(hosts)-1].Switch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topo.KShortestPaths(tp, s, d, 8); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The Fig 9/10 benches record cost only. Their shape checks include
		// wall-clock-sensitive comparisons that get noisy over hundreds of
		// sustained bench iterations, so misses are warned, not fatal; claim
		// verification is the job of `-run fig9` and the test suite.
		{"Fig9Throughput", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig9(5000)
				if err != nil {
					b.Fatal(err)
				}
				warnShapeMiss("fig9", res)
			}
		}},
		{"Fig10LatencyCDF", func(b *testing.B) {
			cfg := experiments.DefaultFig10Config()
			cfg.PingsPerPair = 20
			cfg.Pairs = 40
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig10(cfg)
				if err != nil {
					b.Fatal(err)
				}
				warnShapeMiss("fig10", res)
			}
		}},
	}
}

// allBenches is the full recorded suite: the datapath microbenchmarks
// plus the hybrid fluid-layer benchmarks.
func allBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	return append(append(microBenches(), hybridBenches()...), federationBenches()...)
}

// benchRouteService builds a standalone controller over a k=8 fat-tree
// master view (80 switches, 64 hosts) and hands it back with a global route
// query for a sample host pair — no fabric attached, route-service state only.
func benchRouteService(b *testing.B) (*controller.Controller, *topo.Topology, controller.RouteQuery) {
	tp, err := topo.FatTree(8, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(1)
	hosts := tp.Hosts()
	c := controller.New(eng, host.New(eng, hosts[0].Host, host.DefaultConfig()), controller.DefaultConfig())
	c.SetMaster(tp)
	return c, tp, controller.RouteQuery{Src: hosts[1].Host, Dst: hosts[len(hosts)-1].Host, Scope: controller.ScopeGlobal}
}

// benchMcastFanout measures one multicast switch hop: a tagged frame
// arrives and the switch forks it to `fanout` branch ports, recycling the
// parent buffer into the frame pool.
func benchMcastFanout(b *testing.B, fanout int) {
	e := sim.NewEngine(1)
	sw := dswitch.New(e, 1, fanout+1, dswitch.DefaultConfig())
	src := &recycleSink{}
	lcfg := sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}
	up := sim.NewLink(e, src, 1, sw, 1, lcfg)
	sw.AttachLink(1, up)
	var hops []packet.TreeHop
	for i := 0; i < fanout; i++ {
		port := i + 2
		sw.AttachLink(port, sim.NewLink(e, sw, port, &recycleSink{}, 1, lcfg))
		hops = append(hops, packet.TreeHop{Port: packet.Tag(port)})
	}
	tree, err := packet.EncodeTree(hops)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	master := make([]byte, packet.EncodedLenMcast(len(tree), len(payload)))
	if _, err := packet.EncodeMcastTo(master, packet.McastMAC(7), packet.MACFromUint64(1), 0, tree, packet.EtherTypeIPv4, payload); err != nil {
		b.Fatal(err)
	}
	send := func() {
		buf := packet.GetBuffer(len(master))
		copy(buf, master)
		up.SendFrom(src, buf)
		e.Run()
	}
	send() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// benchSwitchForward measures one switch hop end to end — host link in,
// tag pop, switch link out — with or without a flight recorder attached.
func benchSwitchForward(b *testing.B, rec *trace.Recorder) {
	e := sim.NewEngine(1)
	if rec != nil {
		e.SetTracer(rec)
	}
	sw := dswitch.New(e, 1, 4, dswitch.DefaultConfig())
	src, dst := &benchSink{}, &benchSink{}
	lcfg := sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}
	up := sim.NewLink(e, src, 1, sw, 1, lcfg)
	sw.AttachLink(1, up)
	down := sim.NewLink(e, sw, 2, dst, 1, lcfg)
	sw.AttachLink(2, down)
	f := benchFrame()
	f.Tags = packet.Path{2}
	master, err := f.Encode()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, len(master))
	// Warm the event pools so steady state is measured.
	copy(buf, master)
	up.SendFrom(src, buf)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, master)
		up.SendFrom(src, buf)
		e.Run()
	}
}

// runBenchSuite executes the bench suite (optionally filtered by a substring
// of the benchmark name) and returns the labeled run.
func runBenchSuite(label, filter string) (benchRun, error) {
	run := benchRun{
		Label:      label,
		Go:         runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, mb := range allBenches() {
		if filter != "" && !strings.Contains(mb.name, filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench %-18s ", mb.name)
		r := testing.Benchmark(mb.fn)
		res := benchResult{
			Name:        mb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if extra, ok := benchExtras[mb.name]; ok {
			extra(&res)
		}
		fmt.Fprintf(os.Stderr, "%12.2f ns/op %8d B/op %6d allocs/op (%d iters)\n",
			res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
		run.Benchmarks = append(run.Benchmarks, res)
	}
	if len(run.Benchmarks) == 0 {
		return run, fmt.Errorf("no benchmarks match filter %q", filter)
	}
	if shapeMisses > 0 {
		fmt.Fprintf(os.Stderr, "note: %d bench iteration(s) missed experiment shape checks (timing noise under load; verify with -run)\n", shapeMisses)
	}
	run.HeapSysBytes = heapSysBytes()
	run.PeakRSSBytes = peakRSSBytes()
	return run, nil
}

// readBenchFile loads and validates a BENCH_results.json-format file.
func readBenchFile(path string) (benchFile, error) {
	var file benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return file, err
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return file, fmt.Errorf("bench-json: %s is not valid: %w", path, err)
	}
	if file.Schema != benchSchema {
		return file, fmt.Errorf("bench-json: %s has schema %q, want %q", path, file.Schema, benchSchema)
	}
	return file, nil
}

// runBenchJSON executes the bench suite and writes (or appends to) path.
func runBenchJSON(path, label string, appendRun bool, filter string) error {
	file := benchFile{Schema: benchSchema}
	if appendRun {
		if f, err := readBenchFile(path); err == nil {
			file = f
		} else if !os.IsNotExist(err) {
			return err
		}
	}

	run, err := runBenchSuite(label, filter)
	if err != nil {
		return err
	}
	file.Runs = append(file.Runs, run)
	return writeBenchFile(path, file)
}

// writeBenchFile marshals and writes a BENCH_results.json-format file.
func writeBenchFile(path string, file benchFile) error {
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d run(s))\n", path, len(file.Runs))
	return nil
}

// gateBench runs the (filtered) suite and compares it against the most
// recent baseline run in baselinePath that contains each benchmark. A
// benchmark fails the gate when its ns/op regresses by more than tolPct
// percent, or when its allocs/op increases at all — allocation counts are
// deterministic, so any increase is a real regression, while ns/op gets a
// noise allowance. New benchmarks absent from the baseline pass by
// definition.
func gateBench(baselinePath, filter string, tolPct float64) error {
	file, err := readBenchFile(baselinePath)
	if err != nil {
		return err
	}
	if len(file.Runs) == 0 {
		return fmt.Errorf("bench-gate: %s contains no runs", baselinePath)
	}
	// Latest run wins per benchmark name, so re-baselining a subset (via
	// -bench-filter with -bench-append) behaves as expected.
	baseline := make(map[string]benchResult)
	for _, run := range file.Runs {
		for _, r := range run.Benchmarks {
			baseline[r.Name] = r
		}
	}

	run, err := runBenchSuite("gate", filter)
	if err != nil {
		return err
	}
	failures := 0
	for _, r := range run.Benchmarks {
		base, ok := baseline[r.Name]
		if !ok {
			fmt.Printf("gate %-18s NEW     %12.2f ns/op %6d allocs/op (no baseline)\n",
				r.Name, r.NsPerOp, r.AllocsPerOp)
			continue
		}
		nsDelta := 100 * (r.NsPerOp - base.NsPerOp) / base.NsPerOp
		status := "ok"
		switch {
		case r.AllocsPerOp > base.AllocsPerOp:
			status = "FAIL"
			failures++
		case nsDelta > tolPct:
			status = "FAIL"
			failures++
		}
		fmt.Printf("gate %-18s %-4s %+8.1f%% ns/op (%.2f -> %.2f), allocs %d -> %d\n",
			r.Name, status, nsDelta, base.NsPerOp, r.NsPerOp, base.AllocsPerOp, r.AllocsPerOp)
	}
	if failures > 0 {
		return fmt.Errorf("bench-gate: %d benchmark(s) regressed beyond %.0f%% ns/op or grew allocs/op", failures, tolPct)
	}
	fmt.Printf("bench-gate: all %d benchmark(s) within %.0f%% of baseline\n", len(run.Benchmarks), tolPct)
	return nil
}
