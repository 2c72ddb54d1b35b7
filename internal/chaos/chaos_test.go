package chaos_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dumbnet/internal/chaos"
	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
	"dumbnet/internal/vnet"
)

// buildNetwork stands up the acceptance fabric: a 3-spine 6-leaf
// leaf-spine (9 switches, 12 hosts), bootstrapped, warmed, with three
// fabric-attached controller replicas so controller failover is real.
func buildNetwork(t *testing.T, seed int64, replicate bool) *core.Network {
	t.Helper()
	tp, err := topo.LeafSpine(3, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	n, err := core.New(tp, core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.WarmAll()
	if replicate {
		hosts := n.Hosts()
		// Replicas on hosts of different leaves than the controller.
		if _, err := n.EnableReplicationAt([]core.MAC{hosts[3], hosts[7]}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestChaosAcceptance is the issue's acceptance scenario: >= 20 randomized
// fail/heal events over a 9-switch fabric with 1% loss, flapping, switch
// crashes and a primary-controller crash — after heal, every invariant
// must hold.
func TestChaosAcceptance(t *testing.T) {
	n := buildNetwork(t, 42, true)
	cfg := chaos.DefaultConfig(42)
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %v", v)
		}
	}
	// The trace must contain the demanded ingredients.
	kinds := map[trace.ScenarioOp]int{}
	for _, e := range rep.Trace {
		kinds[e.Kind]++
	}
	injected := kinds[trace.ScenarioFailLink] + kinds[trace.ScenarioHealLink] + kinds[trace.ScenarioFlapLink] +
		kinds[trace.ScenarioCrashSwitch] + kinds[trace.ScenarioRestartSwitch]
	if injected < 20 {
		t.Errorf("only %d randomized fail/heal events injected, want >= 20 (trace: %v)", injected, kinds)
	}
	if kinds[trace.ScenarioCrashCtrl] != 1 || kinds[trace.ScenarioRestartCtrl] != 1 {
		t.Errorf("controller crash/restart missing from trace: %v", kinds)
	}
	if kinds[trace.ScenarioIdle] > 0 {
		t.Logf("note: %d idle steps (no eligible fault)", kinds[trace.ScenarioIdle])
	}
	// The chaos phase must actually have exercised failover machinery
	// somewhere: at least one host rotated to a backup controller.
	failovers := uint64(0)
	for _, h := range n.Hosts() {
		failovers += n.Agent(h).Stats().CtrlFailovers
	}
	if failovers == 0 {
		t.Error("no host ever failed over to a controller replica despite the primary crash")
	}
}

// TestChaosDeterminism: seed 11 must reproduce its recorded event digest
// (the trace, times included); a different seed must diverge.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed int64) *chaos.Report {
		n := buildNetwork(t, 7, true)
		cfg := chaos.DefaultConfig(seed)
		cfg.Events = 20
		rep, err := chaos.Run(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	const want uint64 = 0x3b203d7b11664f90
	a := run(11)
	if got := a.Digest(); got != want {
		t.Fatalf("seed 11 digest = %#016x, want %#016x; trace:\n%v", got, want, a.Trace)
	}
	c := run(12)
	if slices.Equal(a.Trace, c.Trace) {
		t.Fatal("different seeds produced identical traces — rng not wired through")
	}
}

// TestChaosWithoutReplication runs a lighter scenario (no controller
// crash) against an unreplicated network: stage-1/stage-2 recovery alone
// must still satisfy every invariant.
func TestChaosWithoutReplication(t *testing.T) {
	n := buildNetwork(t, 3, false)
	cfg := chaos.DefaultConfig(3)
	cfg.Events = 20
	cfg.CrashController = false
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %v", v)
		}
	}
}

// TestRouteCacheInvalidationUnderChaos is the cache-coherence scenario: a
// k=4 fat-tree whose hosts have asked for every path graph, the seeded
// fault driver churning links and switches on top of it. The mid-run audits
// plus the post-heal route-cache sweep must find no answer traversing a dead
// link, and the counters must show the cache was genuinely exercised —
// misses filled it, patches invalidated entries, and repeated lookups hit.
func TestRouteCacheInvalidationUnderChaos(t *testing.T) {
	tp, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig()
	ccfg.Seed = 99
	n, err := core.New(tp, core.WithConfig(ccfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.WarmAll()
	// Every host asked once, so every pair missed; asking again hits.
	for _, src := range n.Hosts() {
		for _, dst := range n.Hosts() {
			if src == dst {
				continue
			}
			if _, err := n.Ctrl.Resolve(controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeGlobal}); err != nil {
				t.Fatal(err)
			}
		}
	}

	cfg := chaos.DefaultConfig(99)
	cfg.Events = 20
	cfg.CrashController = false
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %v", v)
		}
	}
	kinds := map[trace.ScenarioOp]int{}
	for _, e := range rep.Trace {
		kinds[e.Kind]++
	}
	if kinds[trace.ScenarioFailLink] == 0 {
		t.Fatalf("scenario injected no link failures (trace: %v)", kinds)
	}

	snap := n.Eng.Metrics().Snapshot(int64(n.Eng.Now()))
	for _, name := range []string{"ctrl.route.hit", "ctrl.route.miss", "ctrl.route.invalidated"} {
		e, ok := snap.Get(name)
		if !ok || e.Value == 0 {
			t.Errorf("%s = %v, want > 0 — cache not exercised", name, e.Value)
		}
	}
}

// TestChaosRejectsCtrlCrashWithoutReplicas: crashing the only controller
// is a misconfiguration, not a scenario.
func TestChaosRejectsCtrlCrashWithoutReplicas(t *testing.T) {
	n := buildNetwork(t, 5, false)
	cfg := chaos.DefaultConfig(5)
	if _, err := chaos.Run(n, cfg); err == nil {
		t.Fatal("expected an error: CrashController without replication")
	}
}

// TestChaosPartitionAvoidance: the driver must never partition the switch
// graph — verified by replaying the trace against a topology mirror.
func TestChaosPartitionAvoidance(t *testing.T) {
	n := buildNetwork(t, 9, true)
	rep, err := chaos.Run(n, chaos.DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	mirror := n.Topo.Clone()
	downOrFlap := map[[2]core.SwitchID]bool{}
	crashed := map[core.SwitchID]bool{}
	rebuild := func() *topo.Topology {
		v := n.Topo.Clone()
		for k := range downOrFlap {
			if pa, err := v.PortToward(k[0], k[1]); err == nil {
				_ = v.Disconnect(k[0], pa)
			}
		}
		for sw := range crashed {
			if v.HasSwitch(sw) {
				_ = v.RemoveSwitch(sw)
			}
		}
		return v
	}
	for _, e := range rep.Trace {
		switch e.Kind {
		case trace.ScenarioFailLink, trace.ScenarioFlapLink:
			downOrFlap[[2]core.SwitchID{e.A, e.B}] = true
		case trace.ScenarioHealLink:
			delete(downOrFlap, [2]core.SwitchID{e.A, e.B})
		case trace.ScenarioCrashSwitch:
			crashed[e.Sw] = true
		case trace.ScenarioRestartSwitch:
			delete(crashed, e.Sw)
		}
		if mirror = rebuild(); !mirror.Connected(nil, nil) {
			t.Fatalf("trace partitions the fabric at %v", e)
		}
	}
}

// timelinePhases lists a timeline's set phases in a fixed order for
// monotonicity checks: every later-stage phase must not precede an earlier
// one on the virtual clock.
func checkTimelineShape(t *testing.T, tl *trace.RecoveryTimeline, bound sim.Time) {
	t.Helper()
	if tl.Detect < tl.Start {
		t.Errorf("%s: detect %d before injection %d", tl.Label(), tl.Detect, tl.Start)
	}
	if tl.Notify < tl.Detect {
		t.Errorf("%s: notify %d before detect %d", tl.Label(), tl.Notify, tl.Detect)
	}
	if tl.Reroute < tl.Notify {
		t.Errorf("%s: reroute %d before notify %d", tl.Label(), tl.Reroute, tl.Notify)
	}
	if tl.FirstPacket >= 0 && tl.FirstPacket < tl.Reroute {
		t.Errorf("%s: first packet %d before reroute %d", tl.Label(), tl.FirstPacket, tl.Reroute)
	}
	if tl.CtrlEvent >= 0 && tl.CtrlEvent < tl.Detect {
		t.Errorf("%s: controller heard at %d before any switch detected at %d", tl.Label(), tl.CtrlEvent, tl.Detect)
	}
	if tl.Patch >= 0 && tl.Patch < tl.CtrlEvent {
		t.Errorf("%s: patch %d before ctrl-event %d", tl.Label(), tl.Patch, tl.CtrlEvent)
	}
	if d := sim.Time(tl.Duration()); d > bound {
		t.Errorf("%s: recovery took %v, want <= %v", tl.Label(), d.Duration(), bound.Duration())
	}
}

// TestChaosRecoveryTimelines runs a clean-link scenario (no loss, no flaps)
// with a flight recorder attached and demands the full recovery story —
// detect, notify, reroute, with monotone sim-times and bounded duration —
// for at least one link failure AND at least one switch crash.
func TestChaosRecoveryTimelines(t *testing.T) {
	n := buildNetwork(t, 21, false)
	rec := trace.NewRecorder(trace.DefaultConfig())
	n.Eng.SetTracer(rec)
	cfg := chaos.DefaultConfig(21)
	cfg.Events = 16
	cfg.Loss = 0
	cfg.Corrupt = 0
	cfg.Flap = false
	cfg.CrashController = false
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %v", v)
		}
	}
	if len(rep.Timelines) == 0 {
		t.Fatal("no recovery timelines extracted despite attached tracer")
	}
	// Recovery is local rerouting: it completes well inside the gap to the
	// next injected event (MeanGap), let alone the stage-2 settle window.
	const bound = 10 * sim.Millisecond
	completeByOp := map[trace.ScenarioOp]int{}
	for i := range rep.Timelines {
		tl := &rep.Timelines[i]
		if !tl.Complete() {
			continue
		}
		completeByOp[tl.Scenario]++
		checkTimelineShape(t, tl, bound)
	}
	if completeByOp[trace.ScenarioFailLink] == 0 {
		t.Errorf("no complete fail-link recovery timeline (got %v)", completeByOp)
	}
	if completeByOp[trace.ScenarioCrashSwitch] == 0 {
		t.Errorf("no complete crash-switch recovery timeline (got %v)", completeByOp)
	}
	if s := rep.TimelineSummary(); s == "" {
		t.Error("TimelineSummary empty despite extracted timelines")
	}
}

// TestChaosTraceExportDeterminism: the acceptance criterion behind
// `dumbnet-emu -chaos -trace` — the same seed must yield a byte-identical
// Chrome trace_event export, different seeds must diverge.
func TestChaosTraceExportDeterminism(t *testing.T) {
	export := func(seed int64) []byte {
		n := buildNetwork(t, 7, true)
		rec := trace.NewRecorder(trace.DefaultConfig())
		n.Eng.SetTracer(rec)
		cfg := chaos.DefaultConfig(seed)
		cfg.Events = 16
		if _, err := chaos.Run(n, cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := export(11)
	b := export(11)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different trace exports")
	}
	if bytes.Equal(a, export(12)) {
		t.Fatal("different seeds produced identical trace exports")
	}
	// The export must round-trip losslessly back into records.
	recs, err := trace.ReadChrome(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("round-tripped export is empty")
	}
}

// TestParallelCablesHeldByCable runs the link battery on a leaf-spine with
// two parallel cables between spine 1 and leaf 3, flaps and crashes off so
// that a cable is down exactly while the battery holds it down. After every
// event the fabric's down links must number the cables the battery holds,
// each of the parallel cables must be failed at some point, and every
// invariant must hold. The second case adds two tenants and multicast
// groups, whose slices and trees cross the twins, over ten seeds; once the
// battery has healed every cable, each tenant slice must be as built.
func TestParallelCablesHeldByCable(t *testing.T) {
	cases := []struct {
		name  string
		seeds []int64
		opts  []core.Option
		mcast bool
	}{
		{name: "links", seeds: []int64{5}},
		{name: "tenants+mcast", seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, opts: []core.Option{core.WithTenants(2)}, mcast: true},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				runParallelCables(t, seed, c.opts, c.mcast)
			})
		}
	}
}

func runParallelCables(t *testing.T, seed int64, opts []core.Option, mcast bool) {
	const events = 40
	tp, err := topo.LeafSpine(2, 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Spine 1 port 1 meets leaf 3 port 3; the twin is 1:5–3:5.
	if err := tp.Connect(1, 5, 3, 5); err != nil {
		t.Fatal(err)
	}
	twins := []topo.Link{{A: 1, PA: 1, B: 3, PB: 3}, {A: 1, PA: 5, B: 3, PB: 5}}
	n, err := core.New(tp, append([]core.Option{core.WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.WarmAll()
	built := map[vnet.TenantID]string{}
	if v := n.Vnet(); v != nil {
		for _, id := range v.Tenants() {
			ten, _ := v.Tenant(id)
			built[id] = string(ten.View().Marshal())
		}
	}
	links := n.Fab.Links()
	failed := make([]bool, len(twins))
	steps := 0
	rep, err := chaos.RunHeld(n, chaos.Config{Seed: seed, Events: events, Mcast: mcast}, func(held int) {
		steps++
		down := 0
		for c, l := range links {
			if !l.Up() {
				down++
				if i := slices.Index(twins, tp.Links()[c]); i >= 0 {
					failed[i] = true
				}
			}
		}
		if down != held {
			t.Errorf("step %d: %d links down, battery holds %d cables", steps, down, held)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != events {
		t.Fatalf("%d steps, want %d", steps, events)
	}
	for i, ok := range failed {
		if !ok {
			t.Errorf("parallel cable %+v never failed", twins[i])
		}
	}
	for id, want := range built {
		if ten, _ := n.Vnet().Tenant(id); string(ten.View().Marshal()) != want {
			t.Errorf("tenant %s: slice after the heal differs from the slice as built", id)
		}
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %v", v)
		}
	}
}
