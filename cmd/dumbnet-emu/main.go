// Command dumbnet-emu brings up a DumbNet fabric on the simulator and
// exercises it end to end: probe-based topology discovery, all-pairs
// connectivity, latency measurement and failure injection — the CLI
// equivalent of racking the paper's testbed.
//
//	dumbnet-emu -topo testbed
//	dumbnet-emu -topo fattree -k 4 -fail
//	dumbnet-emu -topo cube -n 3 -pings 5
//	dumbnet-emu -topo leafspine -k 6 -n 2 -chaos -chaos-seed 42 -loss 0.01 -ctrl-crash
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dumbnet/internal/chaos"
	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
	"dumbnet/internal/workload"
)

func buildTopology(kind string, k, n int) (*topo.Topology, int, error) {
	switch kind {
	case "testbed":
		t, err := topo.Testbed()
		return t, 16, err
	case "fattree":
		t, err := topo.FatTree(k, 0, 0)
		return t, k + 1, err
	case "cube":
		t, err := topo.Cube(n, 1, 0)
		return t, 8, err
	case "leafspine":
		t, err := topo.LeafSpine(2, k, n, 0)
		return t, n + 4, err
	default:
		return nil, 0, fmt.Errorf("unknown topology %q (testbed|fattree|cube|leafspine)", kind)
	}
}

func main() {
	var (
		kind     = flag.String("topo", "testbed", "topology: testbed|fattree|cube|leafspine")
		k        = flag.Int("k", 4, "fat-tree arity / leaf count")
		n        = flag.Int("n", 3, "cube side / hosts per leaf")
		pings    = flag.Int("pings", 3, "pings per sampled host pair")
		fail     = flag.Bool("fail", false, "inject a link failure mid-run")
		discover = flag.Bool("discover", true, "use probe-based discovery (false: install topology directly)")
		iperf    = flag.Duration("iperf", 0, "run a goodput measurement for this long (e.g. 100ms)")
		stats    = flag.Bool("stats", false, "query per-switch counters at the end")
		policy   = flag.String("policy", "", "host routing policy: "+strings.Join(host.PolicyNames(), "|")+" (default: sticky)")
		shards   = flag.Int("shards", 1, "parallel simulation shards (1 = classic single-engine run)")
		tenants  = flag.Int("tenants", 0, "carve hosts into this many isolated tenants (0 = virtualization off)")
		hflood   = flag.Bool("host-flood", true, "stage-1 peer-to-peer link-event flooding on hosts (disable on very large fabrics: the flood is O(hosts²) frames per event)")

		chaosOn   = flag.Bool("chaos", false, "run a seeded chaos scenario after bringup")
		chaosSeed = flag.Int64("chaos-seed", 1, "chaos scenario seed (same seed, same event trace)")
		chaosEvts = flag.Int("chaos-events", 24, "randomized fail/heal events to inject")
		loss      = flag.Float64("loss", 0.01, "per-frame loss probability on fabric links during chaos")
		corrupt   = flag.Float64("corrupt", 0, "per-frame single-bit corruption probability during chaos")
		flap      = flag.Bool("flap", true, "include link-flap events in the chaos mix")
		crashSw   = flag.Bool("crash-switches", true, "include switch crash/restart events in the chaos mix")
		ctrlCrash = flag.Bool("ctrl-crash", false, "crash the primary controller mid-chaos (attaches 2 replicas)")
		churn     = flag.Bool("churn", false, "interleave tenant create/delete/migrate events into the chaos mix (needs -tenants)")
		mcastSoak = flag.Bool("mcast", false, "carve multicast groups before impairment and probe them through the chaos mix")
		checkCap  = flag.Int("check-cap", 0, "cap post-chaos pair sweeps at this many host pairs (0 = exhaustive)")

		collective = flag.Bool("collective", false, "run the collective workloads: a real multicast broadcast over the fabric, then the flow-level collective suite")
		mcastBytes = flag.Int("collective-bytes", 100e6, "payload size for the flow-level collective suite")

		hybridOn = flag.Bool("hybrid", false, "attach the hybrid fluid-flow layer and run a bulk-transfer wave through it (incompatible with -shards)")
		hybridMB = flag.Int("hybrid-mb", 8, "per-transfer size in MB for the -hybrid wave")

		federate = flag.Int("federate", 0, "federate this many copies of the chosen topology over WAN links (>=2; one fabric per shard, cross-fabric traffic + optional -chaos WAN battery)")
		wanDelay = flag.Duration("wan-delay", 5*time.Millisecond, "WAN link propagation delay between federated fabrics")
		gateways = flag.Int("gateways", 2, "border gateways per federated fabric pair (= parallel WAN links)")

		telemetryOn   = flag.Bool("telemetry", false, "attach streaming trace analytics (congestion scoreboard, heavy hitters, heal SLO) with a live summary")
		telemetryWin  = flag.Duration("telemetry-window", 0, "telemetry aggregation window (0 = package default)")
		telemetryTap  = flag.Int("telemetry-tap", 0, "per-shard tap buffer capacity in records; bursts beyond it are drop-counted, not blocking (0 = package default)")
		telemetryJSON = flag.String("telemetry-json", "", "write the final merged telemetry snapshot as JSON to this file")

		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON flight-recorder dump to this file")
		traceSample = flag.Uint64("trace-sample", 1, "packet-hop sampling: record flows where hash%N==0 (0 disables hop records)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	log.SetFlags(0)

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	writeMemProfile := func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
	defer writeMemProfile()

	if *federate >= 2 {
		tcfg := telemetry.DefaultConfig()
		if *telemetryWin > 0 {
			tcfg.Window = sim.FromDuration(*telemetryWin)
		}
		var tele *telemetry.Config
		if *telemetryOn {
			tele = &tcfg
		}
		runFederated(*kind, *k, *n, *federate, *wanDelay, *gateways, *pings, tele,
			*chaosOn, *chaosSeed, *chaosEvts)
		return
	}

	t, maxPorts, err := buildTopology(*kind, *k, *n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d switches, %d links, %d hosts\n",
		t.NumSwitches(), t.NumLinks(), t.NumHosts())

	var opts []core.Option
	if *shards > 1 {
		opts = append(opts, core.WithShards(*shards))
	}
	if *policy != "" {
		opts = append(opts, core.WithPolicy(*policy))
	}
	if *tenants > 0 || *churn {
		opts = append(opts, core.WithTenants(*tenants))
	}
	if !*hflood {
		opts = append(opts, core.WithHostFlood(false))
	}
	if *hybridOn {
		opts = append(opts, core.WithHybridFlows(hybrid.Config{}))
	}
	telemetryCfg := telemetry.DefaultConfig()
	if *telemetryOn {
		if *telemetryWin > 0 {
			telemetryCfg.Window = sim.FromDuration(*telemetryWin)
		}
		if *telemetryTap > 0 {
			telemetryCfg.TapCapacity = *telemetryTap
		}
		opts = append(opts, core.WithTelemetry(telemetryCfg))
	}
	net, err := core.New(t, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if g := net.SimGroup(); g != nil {
		fmt.Printf("engine: %d shards, lookahead %v\n", g.NumShards(), g.Lookahead().Duration())
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		tcfg := trace.DefaultConfig()
		tcfg.SampleMod = *traceSample
		rec = trace.NewRecorder(tcfg)
		net.Eng.SetTracer(rec)
	}
	writeTrace := func() {
		if rec == nil {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		defer f.Close()
		if err := trace.WriteChrome(f, rec.Records()); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("trace: wrote %d records to %s (%d recorded, %d overwritten)\n",
			rec.Len(), *traceOut, rec.Total(), rec.Overwritten())
	}
	defer writeTrace()
	if *discover {
		report, err := net.Discover(maxPorts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("discovery: %s\n", report)
	} else {
		if err := net.Bootstrap(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("bootstrap: topology installed directly")
	}

	hosts := net.Hosts()
	if len(hosts) < 2 {
		fmt.Println("not enough hosts for traffic")
		os.Exit(0)
	}
	if v := net.Vnet(); v != nil {
		fmt.Printf("virtualization: %d tenants over %d hosts\n", v.Count(), len(hosts))
	}
	if *telemetryOn {
		hub := net.Telemetry()
		if hub == nil {
			log.Fatal("telemetry: hub missing after bringup")
		}
		fmt.Printf("telemetry: streaming analytics on, window %v\n", telemetryCfg.Window.Duration())
		// Live summary line every 25 windows. Single-engine runs only: the
		// merged view must not be read from inside a shard goroutine.
		if net.SimGroup() == nil {
			every := 25 * telemetryCfg.Window
			var tick func()
			tick = func() {
				fmt.Printf("telemetry @%v: %s\n", net.Eng.Now().Duration(), hub.SummaryLine())
				net.Eng.After(every, tick)
			}
			net.Eng.After(every, tick)
		}
	}
	// Sample a few pairs spread across the host list. With tenancy on, the
	// slices are the traffic domains, so sample inside the first tenant.
	pairs := [][2]core.MAC{
		{hosts[0], hosts[len(hosts)-1]},
		{hosts[len(hosts)/2], hosts[0]},
		{hosts[len(hosts)-1], hosts[len(hosts)/2]},
	}
	if v := net.Vnet(); v != nil && v.Count() > 0 {
		ids := v.Tenants()
		members, err := v.Members(ids[0])
		if err != nil || len(members) < 2 {
			log.Fatalf("tenant %s has no usable member pair", ids[0])
		}
		pairs = [][2]core.MAC{
			{members[0], members[len(members)-1]},
			{members[len(members)/2], members[0]},
			{members[len(members)-1], members[len(members)/2]},
		}
	}
	for _, pr := range pairs {
		for i := 0; i < *pings; i++ {
			rtt, err := net.PingSync(pr[0], pr[1])
			if err != nil {
				log.Fatalf("ping %v -> %v: %v", pr[0], pr[1], err)
			}
			fmt.Printf("ping %v -> %v: rtt %v\n", pr[0], pr[1], rtt.Duration())
		}
	}

	if *fail {
		ids := t.SwitchIDs()
		var a, b core.SwitchID
		found := false
		for _, id := range ids {
			for _, nb := range t.Neighbors(id) {
				a, b, found = id, nb.Sw, true
				break
			}
			if found {
				break
			}
		}
		if found {
			fmt.Printf("\ninjecting failure on link %d <-> %d\n", a, b)
			if err := net.FailLink(a, b); err != nil {
				log.Fatal(err)
			}
			net.RunFor(100 * sim.Millisecond)
			rtt, err := net.PingSync(pairs[0][0], pairs[0][1])
			if err != nil {
				log.Fatalf("post-failure ping failed: %v", err)
			}
			fmt.Printf("post-failure ping %v -> %v: rtt %v (failover worked)\n",
				pairs[0][0], pairs[0][1], rtt.Duration())
		}
	}
	if *chaosOn {
		net.WarmAll()
		if *ctrlCrash {
			// Attach two fabric-side controller replicas so hosts have
			// somewhere to fail over when the primary dies.
			r1, r2 := hosts[len(hosts)/3], hosts[2*len(hosts)/3]
			if r1 == r2 {
				r2 = hosts[len(hosts)-1]
			}
			if _, err := net.EnableReplicationAt([]core.MAC{r1, r2}); err != nil {
				log.Fatalf("chaos: enabling replication: %v", err)
			}
			fmt.Printf("\ncontroller replicas attached at %v, %v\n", r1, r2)
		}
		ccfg := chaos.DefaultConfig(*chaosSeed)
		ccfg.Events = *chaosEvts
		ccfg.Loss = *loss
		ccfg.Corrupt = *corrupt
		ccfg.Flap = *flap
		ccfg.CrashSwitches = *crashSw
		ccfg.CrashController = *ctrlCrash
		ccfg.TenantChurn = *churn
		ccfg.Mcast = *mcastSoak
		ccfg.MaxPairChecks = *checkCap
		fmt.Printf("\nchaos: seed %d, %d events, loss %.3f, corrupt %.3f, flap %v, crash-switches %v, ctrl-crash %v, churn %v, mcast %v\n",
			*chaosSeed, *chaosEvts, *loss, *corrupt, *flap, *crashSw, *ctrlCrash, *churn, *mcastSoak)
		rep, err := chaos.Run(net, ccfg)
		if err != nil {
			log.Fatalf("chaos: %v", err)
		}
		for _, e := range rep.Trace {
			fmt.Printf("  %v\n", e)
		}
		fmt.Printf("chaos: event digest %016x\n", rep.Digest())
		fmt.Print(net.Eng.Metrics().Snapshot(int64(net.Eng.Now())).Table("fabric metrics (non-zero)", true))
		if s := rep.TimelineSummary(); s != "" {
			fmt.Print(s)
		}
		if rep.Ok() {
			fmt.Printf("chaos: all invariants held (%d ping retries during re-convergence)\n", rep.PingRetries)
		} else {
			for _, v := range rep.Violations {
				fmt.Printf("chaos: INVARIANT VIOLATED — %v\n", v)
			}
			writeTrace()
			writeMemProfile()
			os.Exit(1)
		}
	}

	if *collective {
		runCollective(net, hosts, float64(*mcastBytes))
	}

	if *hybridOn {
		runHybridWave(net, hosts, *hybridMB)
	}

	if *iperf > 0 {
		src, dst := pairs[0][0], pairs[0][1]
		fmt.Printf("\niperf %v -> %v for %v:\n", src, dst, *iperf)
		const frame = 1464
		received := 0
		if err := net.OnReceive(dst, func(core.MAC, []byte) { received++ }); err != nil {
			log.Fatal(err)
		}
		deadline := net.Eng.Now() + sim.FromDuration(*iperf)
		payload := make([]byte, frame-64)
		var pump func()
		pump = func() {
			if net.Eng.Now() >= deadline {
				return
			}
			for i := 0; i < 8; i++ {
				_ = net.Send(src, dst, payload)
			}
			net.Eng.After(10*sim.Microsecond, pump)
		}
		pump()
		net.Run()
		gbps := float64(received) * frame * 8 / (*iperf).Seconds() / 1e9
		fmt.Printf("  delivered %d frames, goodput %.2f Gbps\n", received, gbps)
	}

	if *stats {
		fmt.Println("\nper-switch counters (source-routed stats queries):")
		for _, id := range t.SwitchIDs() {
			id := id
			net.Ctrl.QuerySwitchStats(id, func(r *packet.StatsReply, err error) {
				if err != nil {
					fmt.Printf("  switch %d: %v\n", id, err)
					return
				}
				fmt.Printf("  switch %d: forwarded=%d dropped=%d marked=%d floods=%d\n",
					r.ID, r.Forwarded, r.Dropped, r.Marked, r.Floods)
			})
		}
		net.Run()
		printQueueStats(net)
		if ly := net.Hybrid(); ly != nil {
			printFluidStats(ly)
		}
	}

	if *telemetryOn {
		hub := net.Telemetry()
		fmt.Printf("\ntelemetry final: %s\n", hub.SummaryLine())
		if *telemetryJSON != "" {
			data, err := hub.SnapshotJSON()
			if err != nil {
				log.Fatalf("telemetry: %v", err)
			}
			if err := os.WriteFile(*telemetryJSON, append(data, '\n'), 0o644); err != nil {
				log.Fatalf("telemetry: %v", err)
			}
			fmt.Printf("telemetry: wrote merged snapshot to %s\n", *telemetryJSON)
		}
	}

	fmt.Printf("\nvirtual time elapsed: %v, events processed: %d\n",
		net.Eng.Now().Duration(), net.Eng.Processed())
}

// printQueueStats prints the engine queue's high-water marks and their
// ratio — events per same-deadline run, the property the queue's cost
// depends on. A sharded run sums each shard's peaks.
func printQueueStats(net *core.Network) {
	st, where := net.Eng.QueueStats(), ""
	if g := net.SimGroup(); g != nil {
		st, where = sim.QueueStats{}, fmt.Sprintf(" (summed over %d shards)", g.NumShards())
		for i := 0; i < g.NumShards(); i++ {
			s := g.Shard(i).QueueStats()
			st.PeakPending += s.PeakPending
			st.PeakRuns += s.PeakRuns
		}
	}
	fmt.Printf("\nengine queue: peak %d events pending, peak %d runs, %.1f events per run%s\n",
		st.PeakPending, st.PeakRuns, float64(st.PeakPending)/float64(max(st.PeakRuns, 1)), where)
}

// printFluidStats prints what the fluid layer's rate recomputation cost:
// settle passes and the share that resumed at a completion's frontier,
// re-filled rates and component flows per completed flow, and the mean
// and peak size of the component each pass covered.
func printFluidStats(ly *hybrid.Layer) {
	st := ly.FluidStats()
	passes := float64(max(st.Settles, 1))
	completed := float64(max(ly.Stats().Completed, 1))
	fmt.Printf("fluid: %d settles (%.0f%% resumed), %.1f re-fills / %.1f component flows per completed flow, component mean %.1f links / %.1f flows, peak %d links / %d flows\n",
		st.Settles, 100*float64(st.Resumed)/passes, float64(st.Refilled)/completed, float64(st.Flows)/completed,
		float64(st.Links)/passes, float64(st.Flows)/passes, st.PeakLinks, st.PeakFlows)
}

// runHybridWave pushes a ring of bulk transfers through the fluid layer —
// every host sends to its third successor — and reports flow completion
// times, layer statistics and the completion digest. Same seed, same
// digest: the line is usable as a determinism golden.
func runHybridWave(net *core.Network, hosts []core.MAC, mb int) {
	fmt.Println("\nhybrid fluid wave:")
	n := len(hosts)
	bytes := int64(mb) << 20
	var minFCT, maxFCT sim.Time
	done := 0
	for i := 0; i < n; i++ {
		_, err := net.OpenFlow(hosts[i], hosts[(i+3)%n], bytes, func(f *hybrid.Flow) {
			fct := f.FCT()
			if done == 0 || fct < minFCT {
				minFCT = fct
			}
			if fct > maxFCT {
				maxFCT = fct
			}
			done++
		})
		if err != nil {
			log.Fatalf("hybrid: open flow: %v", err)
		}
	}
	net.Run()
	st := net.Hybrid().Stats()
	fmt.Printf("  %d transfers of %d MB: fct min %v max %v\n", done, mb, minFCT.Duration(), maxFCT.Duration())
	fmt.Printf("  layer: opened %d completed %d failed %d rerouted %d active %d\n",
		st.Opened, st.Completed, st.Failed, st.Rerouted, st.Active)
	fmt.Printf("  hybrid digest %016x\n", net.Hybrid().Digest())
	if st.Active != 0 || st.Failed > 0 || done != n {
		log.Fatalf("hybrid: wave did not complete cleanly (%d/%d done)", done, n)
	}
}

// runCollective exercises the collective workloads two ways: a real
// source-routed multicast broadcast over the deployed fabric (one frame in,
// switch-replicated fan-out), then the flow-level collective suite
// (broadcast, ring/tree allreduce, parameter server) on the max-min fair
// leaf-spine model under each routing policy.
func runCollective(net *core.Network, hosts []core.MAC, bytes float64) {
	fmt.Println("\ncollective workloads:")

	// 1. Packet-level broadcast: group the first few hosts, multicast a
	// probe, and let every member report delivery.
	size := len(hosts)
	if size > 8 {
		size = 8
	}
	members := append([]core.MAC(nil), hosts[:size]...)
	// Group IDs 1..N belong to the -mcast chaos soak; stay clear of them.
	const group = 1000
	if err := net.CreateMcastGroup(group, members); err != nil {
		log.Fatalf("collective: create group: %v", err)
	}
	net.Run() // drain the group announcement
	delivered := 0
	if err := net.MulticastProbe(members[0], group, func(core.MAC) { delivered++ }); err != nil {
		log.Fatalf("collective: multicast: %v", err)
	}
	net.Run()
	ans, err := net.Ctrl.Resolve(controller.RouteQuery{Src: members[0], Group: mcast.GroupID(group), Scope: controller.ScopeTree})
	if err != nil {
		log.Fatalf("collective: tree lookup: %v", err)
	}
	tree := ans.Tree()
	fmt.Printf("  multicast broadcast: %d/%d members delivered, tree depth %d, fanout %d, %dB wire tag\n",
		delivered, len(members)-1, tree.Depth, len(tree.Hops), len(tree.Wire()))
	if delivered != len(members)-1 {
		log.Fatalf("collective: broadcast delivered %d of %d members", delivered, len(members)-1)
	}

	// 2. Flow-level suite on the paper's testbed shape (25 workers).
	const spines, leaves, perLeaf = 2, 5, 5
	workers := leaves * perLeaf
	type policy struct {
		name  string
		route func(ls *workload.LeafSpineNet) workload.RouteFunc
	}
	policies := []policy{
		{"flowlet", func(ls *workload.LeafSpineNet) workload.RouteFunc { return ls.FlowletPolicy() }},
		{"single-path", func(ls *workload.LeafSpineNet) workload.RouteFunc { return ls.SinglePathPolicy() }},
	}
	for _, job := range workload.CollectiveSuite(workers, bytes) {
		line := fmt.Sprintf("  %-16s", job.Name)
		for _, p := range policies {
			ls := workload.NewLeafSpine(spines, leaves, perLeaf, 10e9, 1e9)
			d, err := workload.RunJob(job, ls.Net, p.route(ls))
			if err != nil {
				log.Fatalf("collective: %s under %s: %v", job.Name, p.name, err)
			}
			line += fmt.Sprintf("  %s %6.3fs", p.name, d)
		}
		fmt.Println(line)
	}
}

// runFederated stands up `count` copies of the chosen topology as one
// metro/WAN federation — each fabric on its own shard, border gateways
// wired over WAN links — then measures intra- vs cross-fabric RTTs and
// optionally runs the WAN chaos battery (link cuts + gateway crashes with
// never-widen and post-heal audits). Same seed, same chaos digest.
func runFederated(kind string, k, n, count int, wanDelay time.Duration, gateways, pings int,
	tele *telemetry.Config, chaosOn bool, chaosSeed int64, chaosEvts int) {
	specs := make([]core.FabricSpec, count)
	for i := range specs {
		t, _, err := buildTopology(kind, k, n)
		if err != nil {
			log.Fatal(err)
		}
		specs[i] = core.FabricSpec{Name: fmt.Sprintf("fab%d", i), Topo: t}
	}
	cfg := core.DefaultFederationConfig(chaosSeed)
	cfg.WAN.PropDelay = sim.FromDuration(wanDelay)
	cfg.Gateways = gateways
	cfg.Telemetry = tele
	fed, err := core.Federate(cfg, specs...)
	if err != nil {
		log.Fatal(err)
	}
	g := fed.SimGroup()
	fmt.Printf("federation: %d fabrics (%d switches, %d hosts each), %d WAN links @ %v, lookahead %v\n",
		fed.NumFabrics(), specs[0].Topo.NumSwitches(), specs[0].Topo.NumHosts(),
		len(fed.WANLinks()), wanDelay, g.Lookahead().Duration())

	for fab := 0; fab < count; fab++ {
		next := (fab + 1) % count
		src := fed.Hosts(fab)[0]
		local := fed.Hosts(fab)[1]
		remote := fed.Hosts(next)[0]
		for i := 0; i < pings; i++ {
			irtt, err := fed.PingSync(src, local)
			if err != nil {
				log.Fatalf("intra ping %s: %v", fed.Name(fab), err)
			}
			xrtt, err := fed.PingSync(src, remote)
			if err != nil {
				log.Fatalf("cross ping %s -> %s: %v", fed.Name(fab), fed.Name(next), err)
			}
			fmt.Printf("ping %s: intra %v, cross to %s %v\n",
				fed.Name(fab), irtt.Duration(), fed.Name(next), xrtt.Duration())
		}
	}
	st := fed.Regional().Stats()
	fmt.Printf("regional resolver: %d hits, %d misses, %d invalidated, %d refused\n",
		st.Hits, st.Misses, st.Invalidated, st.Refused)

	if chaosOn {
		ccfg := chaos.DefaultFederationConfig(chaosSeed)
		ccfg.Events = chaosEvts
		fmt.Printf("\nwan chaos: seed %d, %d events (link cuts + gateway crashes)\n", chaosSeed, chaosEvts)
		rep, err := chaos.RunFederation(fed, ccfg)
		if err != nil {
			log.Fatalf("wan chaos: %v", err)
		}
		for _, e := range rep.Trace {
			fmt.Printf("  %v\n", e)
		}
		fmt.Printf("wan chaos: event digest %016x\n", rep.Digest())
		if rep.Ok() {
			fmt.Printf("wan chaos: all invariants held (%d ping retries during re-convergence)\n", rep.PingRetries)
		} else {
			for _, v := range rep.Violations {
				fmt.Printf("wan chaos: INVARIANT VIOLATED — %v\n", v)
			}
			os.Exit(1)
		}
	}

	if tele != nil {
		hub := fed.Hub()
		fmt.Printf("\nfederated telemetry: %d flagged (%d WAN), raised %d, cleared %d, gateways down %d\n",
			hub.Flagged(), hub.WANFlaggedCount(), hub.Raised(), hub.Cleared(), hub.GatewaysDown())
	}

	par, solo := fed.Windows()
	fmt.Printf("\nvirtual time elapsed: %v, windows: %d parallel, %d solo\n",
		fed.Now().Duration(), par, solo)
}
