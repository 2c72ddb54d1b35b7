package core_test

import (
	"errors"
	"testing"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/federation"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// buildFederation stands up a two-fabric federation of small fat-trees.
func buildFederation(t *testing.T, cfg core.FederationConfig) *core.Federation {
	t.Helper()
	ta, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatalf("fat-tree A: %v", err)
	}
	tb, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatalf("fat-tree B: %v", err)
	}
	fed, err := core.Federate(cfg,
		core.FabricSpec{Name: "west", Topo: ta},
		core.FabricSpec{Name: "east", Topo: tb},
	)
	if err != nil {
		t.Fatalf("Federate: %v", err)
	}
	return fed
}

func TestFederateTwoFabrics(t *testing.T) {
	fed := buildFederation(t, core.DefaultFederationConfig(7))

	if got := fed.NumFabrics(); got != 2 {
		t.Fatalf("NumFabrics = %d, want 2", got)
	}
	if got := len(fed.WANLinks()); got != 2 {
		t.Fatalf("WAN links = %d, want 2 (one pair x 2 gateways)", got)
	}
	// Member namespaces must be disjoint after the offset relabeling.
	seen := make(map[core.MAC]bool)
	for fab := 0; fab < 2; fab++ {
		for _, h := range fed.Hosts(fab) {
			if seen[h] {
				t.Fatalf("host %v appears in both fabrics", h)
			}
			seen[h] = true
		}
	}

	src := fed.Hosts(0)[0]
	dst := fed.Hosts(1)[0]

	// Cross-fabric data delivery.
	var gotSrc core.MAC
	var gotPayload string
	if err := fed.OnReceive(dst, func(s core.MAC, p []byte) {
		gotSrc = s
		gotPayload = string(p)
	}); err != nil {
		t.Fatalf("OnReceive: %v", err)
	}
	if err := fed.Send(src, dst, []byte("transpacific")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	fed.Run()
	if gotPayload != "transpacific" || gotSrc != src {
		t.Fatalf("cross-fabric delivery: got (%v, %q)", gotSrc, gotPayload)
	}

	// Cross-fabric RTT must include both WAN hops (2 x 5ms default).
	rtt, err := fed.PingSync(src, dst)
	if err != nil {
		t.Fatalf("PingSync: %v", err)
	}
	if rtt < 10*sim.Millisecond {
		t.Fatalf("federated RTT %v < 2x WAN delay", rtt)
	}

	// Intra-fabric traffic still works through the member datapath.
	irtt, err := fed.PingSync(fed.Hosts(0)[0], fed.Hosts(0)[1])
	if err != nil {
		t.Fatalf("intra PingSync: %v", err)
	}
	if irtt >= 10*sim.Millisecond {
		t.Fatalf("intra-fabric RTT %v crossed the WAN", irtt)
	}

	// The WAN delay is the cross-shard lookahead, so the window ledger
	// must show the group actually ran (and mostly solo or parallel is
	// topology-dependent; just require progress).
	par, solo := fed.Windows()
	if par+solo == 0 {
		t.Fatalf("no execution windows recorded")
	}
}

func TestFederationRegionalCache(t *testing.T) {
	fed := buildFederation(t, core.DefaultFederationConfig(7))
	src := fed.Hosts(0)[0]
	dst := fed.Hosts(1)[0]

	q := controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeFabric}
	r1, err := fed.Resolve(q)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if r1.Intra() {
		t.Fatalf("cross-fabric route reported intra")
	}
	if r1.SrcWire == nil || r1.DstWire == nil {
		t.Fatalf("route missing local legs: %+v", r1)
	}
	st := fed.Regional().Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after cold resolve: %+v", st)
	}
	if _, err := fed.Resolve(q); err != nil {
		t.Fatalf("warm Resolve: %v", err)
	}
	if st = fed.Regional().Stats(); st.Hits != 1 {
		t.Fatalf("warm resolve missed: %+v", st)
	}

	// A WAN health transition invalidates the cached route.
	fed.Hub().FlagWAN(r1.WAN)
	r2, err := fed.Resolve(q)
	if err != nil {
		t.Fatalf("Resolve after flag: %v", err)
	}
	if r2.WAN == r1.WAN {
		t.Fatalf("route still rides flagged WAN %d", r1.WAN)
	}
	if st = fed.Regional().Stats(); st.Invalidated != 1 {
		t.Fatalf("flag did not invalidate: %+v", st)
	}
	fed.Hub().ClearWAN(r1.WAN)

	// Tenants and trees do not federate.
	if _, err := fed.Resolve(controller.RouteQuery{Src: src, Dst: dst, Tenant: "t0"}); err != federation.ErrFederatedScope {
		t.Fatalf("tenant federation err = %v", err)
	}
}

func TestFederationWANFailover(t *testing.T) {
	fed := buildFederation(t, core.DefaultFederationConfig(7))
	src := fed.Hosts(0)[0]
	dst := fed.Hosts(1)[0]

	q := controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeFabric}
	r1, err := fed.Resolve(q)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}

	// Cut the preferred WAN link: the hub flags it, the cache goes stale,
	// and the next resolve fails over to the alternate gateway pair.
	if err := fed.FailWAN(r1.WAN); err != nil {
		t.Fatalf("FailWAN: %v", err)
	}
	if !fed.Hub().WANFlagged(r1.WAN) {
		t.Fatalf("failed WAN %d not flagged", r1.WAN)
	}
	r2, err := fed.Resolve(q)
	if err != nil {
		t.Fatalf("Resolve after WAN cut: %v", err)
	}
	if r2.WAN == r1.WAN {
		t.Fatalf("route still rides failed WAN %d (never-widen violation)", r1.WAN)
	}
	if r2.Gateway == r1.Gateway {
		t.Fatalf("failover kept gateway %v", r1.Gateway)
	}
	if rtt, err := fed.PingSync(src, dst); err != nil || rtt < 10*sim.Millisecond {
		t.Fatalf("ping over alternate WAN: rtt=%v err=%v", rtt, err)
	}

	// Cut the alternate too: the resolver must refuse, not serve stale.
	if err := fed.FailWAN(r2.WAN); err != nil {
		t.Fatalf("FailWAN alternate: %v", err)
	}
	if _, err := fed.Resolve(q); err != federation.ErrNoWANPath {
		t.Fatalf("all-WAN-down resolve err = %v, want ErrNoWANPath", err)
	}

	// Heal: flags clear, routes come back.
	if err := fed.RestoreWAN(r1.WAN); err != nil {
		t.Fatalf("RestoreWAN: %v", err)
	}
	if err := fed.RestoreWAN(r2.WAN); err != nil {
		t.Fatalf("RestoreWAN alternate: %v", err)
	}
	fed.RunFor(50 * sim.Millisecond)
	if n := fed.Hub().WANFlaggedCount(); n != 0 {
		t.Fatalf("%d WAN flags still raised after heal", n)
	}
	if rtt, err := fed.PingSync(src, dst); err != nil || rtt < 10*sim.Millisecond {
		t.Fatalf("post-heal ping: rtt=%v err=%v", rtt, err)
	}
}

func TestFederationGatewayCrash(t *testing.T) {
	fed := buildFederation(t, core.DefaultFederationConfig(7))
	src := fed.Hosts(0)[0]
	dst := fed.Hosts(1)[0]

	q := controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeFabric}
	r1, err := fed.Resolve(q)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if err := fed.CrashGateway(r1.Gateway); err != nil {
		t.Fatalf("CrashGateway: %v", err)
	}
	r2, err := fed.Resolve(q)
	if err != nil {
		t.Fatalf("Resolve after crash: %v", err)
	}
	if r2.Gateway == r1.Gateway {
		t.Fatalf("route still uses crashed gateway %v", r1.Gateway)
	}
	if rtt, err := fed.PingSync(src, dst); err != nil || rtt < 10*sim.Millisecond {
		t.Fatalf("ping around crashed gateway: rtt=%v err=%v", rtt, err)
	}
	if err := fed.RestartGateway(r1.Gateway); err != nil {
		t.Fatalf("RestartGateway: %v", err)
	}
	if fed.GatewayDown(r1.Gateway) {
		t.Fatalf("gateway still down after restart")
	}
}

// TestFederationDeterministic is the federated determinism golden: two
// same-seed federations driving identical cross- and intra-fabric traffic
// must replay the exact same schedule — same RTTs, same event count, same
// window ledger.
func TestFederationDeterministic(t *testing.T) {
	run := func() (uint64, uint64, uint64, uint64) {
		fed := buildFederation(t, core.DefaultFederationConfig(42))
		var hash uint64 = 14695981039346656037
		mix := func(v uint64) {
			hash = (hash ^ v) * 1099511628211
		}
		for i := 0; i < 4; i++ {
			rtt, err := fed.PingSync(fed.Hosts(0)[i], fed.Hosts(1)[3-i])
			if err != nil {
				t.Fatalf("cross ping %d: %v", i, err)
			}
			mix(uint64(rtt))
			irtt, err := fed.PingSync(fed.Hosts(0)[i], fed.Hosts(0)[(i+1)%4])
			if err != nil {
				t.Fatalf("intra ping %d: %v", i, err)
			}
			mix(uint64(irtt))
		}
		par, solo := fed.Windows()
		return hash, fed.SimGroup().Processed(), par, solo
	}
	h1, p1, par1, solo1 := run()
	h2, p2, par2, solo2 := run()
	if h1 != h2 || p1 != p2 || par1 != par2 || solo1 != solo2 {
		t.Fatalf("federated replay diverged: (%#x,%d,%d,%d) vs (%#x,%d,%d,%d)",
			h1, p1, par1, solo1, h2, p2, par2, solo2)
	}
	if p1 == 0 || par1+solo1 == 0 {
		t.Fatalf("degenerate run: processed=%d windows=%d", p1, par1+solo1)
	}
}

// TestRegionalWarmLookupAllocFree guards the regional warm path: once a
// cross-fabric route is cached and every freshness token matches, Resolve
// must not allocate; bench/ times the same call as federation.resolve_warm_ns.
func TestRegionalWarmLookupAllocFree(t *testing.T) {
	fed := buildFederation(t, core.DefaultFederationConfig(7))
	q := controller.RouteQuery{Src: fed.Hosts(0)[0], Dst: fed.Hosts(1)[0], Scope: controller.ScopeFabric}
	if _, err := fed.Resolve(q); err != nil {
		t.Fatalf("cold Resolve: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fed.Resolve(q); err != nil {
			t.Fatalf("warm Resolve: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm regional lookup allocates %.1f allocs/op, want 0", allocs)
	}
	st := fed.Regional().Stats()
	if st.Misses != 1 {
		t.Fatalf("warm loop re-missed: %+v", st)
	}
}

// TestFederationMemberRefusesReplication: a member fabric shares its shard's
// clock with the federation, so replication on it is refused through the
// refusals table rather than started.
func TestFederationMemberRefusesReplication(t *testing.T) {
	fed := buildFederation(t, core.DefaultFederationConfig(7))
	n := fed.Network(0)
	if _, err := n.EnableReplicationAt(n.Hosts()[:2]); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("EnableReplicationAt on a federation member: err = %v, want ErrIncompatible", err)
	}
	if n.Group() != nil {
		t.Fatal("a refused replication left a replica group behind")
	}
}

// TestFederationRefusesTenants: the regional resolver has no tenant scope
// and member isolation refuses cross-fabric pings to tenanted hosts, so a
// tenanted member is refused at Federate rather than booted.
func TestFederationRefusesTenants(t *testing.T) {
	ta, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Federate(core.DefaultFederationConfig(7),
		core.FabricSpec{Name: "west", Topo: ta, Opts: []core.Option{core.WithTenants(2)}},
		core.FabricSpec{Name: "east", Topo: tb},
	)
	if !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Federate with a tenanted member: err = %v, want ErrIncompatible", err)
	}
}

// TestFederateRefusesBadConfig: the WAN delay is the cross-shard lookahead
// and a member needs a gateway, so Federate refuses either at zero rather
// than substituting a default.
func TestFederateRefusesBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*core.FederationConfig){
		"zero WAN delay": func(c *core.FederationConfig) { c.WAN.PropDelay = 0 },
		"no gateways":    func(c *core.FederationConfig) { c.Gateways = 0 },
	} {
		cfg := core.DefaultFederationConfig(7)
		mutate(&cfg)
		ta, err := topo.FatTree(4, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := topo.FatTree(4, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Federate(cfg, core.FabricSpec{Topo: ta}, core.FabricSpec{Topo: tb}); err == nil {
			t.Errorf("%s: Federate succeeded", name)
		}
	}
}

// TestFederationOneSinkPerHost: Federation.OnReceive is the member's
// OnReceive, so one sink sees both intra-fabric and cross-fabric data.
func TestFederationOneSinkPerHost(t *testing.T) {
	fed := buildFederation(t, core.DefaultFederationConfig(7))
	dst := fed.Hosts(1)[0]
	got := map[string]core.MAC{}
	if err := fed.OnReceive(dst, func(s core.MAC, p []byte) { got[string(p)] = s }); err != nil {
		t.Fatalf("OnReceive: %v", err)
	}
	local, remote := fed.Hosts(1)[1], fed.Hosts(0)[0]
	if err := fed.Send(local, dst, []byte("local")); err != nil {
		t.Fatalf("intra Send: %v", err)
	}
	if err := fed.Send(remote, dst, []byte("remote")); err != nil {
		t.Fatalf("cross Send: %v", err)
	}
	fed.Run()
	if len(got) != 2 || got["local"] != local || got["remote"] != remote {
		t.Fatalf("sink saw %v, want local from %v and remote from %v", got, local, remote)
	}
}

// TestFederatedTelemetryRollup: members take WithTelemetry in their own
// Opts, and the regional hub's roll-up is the sum of the member hubs plus
// the WAN plane — through an intra-fabric elephant flow that raises member
// flags, a WAN cut and a gateway crash, and after the heal.
func TestFederatedTelemetryRollup(t *testing.T) {
	tele := []core.Option{core.WithTelemetry(closedLoopConfig())}
	ta, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := core.Federate(core.DefaultFederationConfig(7),
		core.FabricSpec{Name: "west", Topo: ta, Opts: tele},
		core.FabricSpec{Name: "east", Topo: tb, Opts: tele})
	if err != nil {
		t.Fatalf("Federate: %v", err)
	}
	hub := fed.Hub()
	members := func() (flagged int, raised, cleared uint64) {
		for i := 0; i < fed.NumFabrics(); i++ {
			h := fed.Network(i).Telemetry()
			if h == nil {
				t.Fatalf("member %d runs without telemetry", i)
			}
			flagged, raised, cleared = flagged+h.Flagged(), raised+h.Raised(), cleared+h.Cleared()
		}
		return
	}
	rollup := func(when string, wanFlagged int, wanRaised, wanCleared uint64) uint64 {
		t.Helper()
		f, r, c := members()
		if hub.Flagged() != f+wanFlagged || hub.Raised() != r+wanRaised || hub.Cleared() != c+wanCleared {
			t.Fatalf("%s: hub flagged/raised/cleared %d/%d/%d, members %d/%d/%d plus WAN %d/%d/%d",
				when, hub.Flagged(), hub.Raised(), hub.Cleared(), f, r, c, wanFlagged, wanRaised, wanCleared)
		}
		return r
	}
	rollup("after boot", 0, 0, 0)

	// An elephant across west's pods, 48 frames per 1 ms window, while a
	// WAN link is cut and one of east's gateways is down.
	west := fed.Network(0)
	hosts := west.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-3] // not a gateway
	for w := 0; w < 20; w++ {
		west.Eng.At(west.Eng.Now()+sim.Time(w)*sim.Millisecond, func() {
			for i := 0; i < 48; i++ {
				_ = west.Send(src, dst, []byte("elephant"))
			}
		})
	}
	gw := fed.GatewayMACs(1)[0]
	if err := fed.FailWAN(0); err != nil {
		t.Fatal(err)
	}
	if err := fed.CrashGateway(gw); err != nil {
		t.Fatal(err)
	}
	if got := hub.GatewaysDown(); got != 1 {
		t.Fatalf("GatewaysDown = %d with one gateway crashed", got)
	}
	fed.RunFor(25 * sim.Millisecond)
	if rollup("mid-fault", 1, 1, 0) == 0 {
		t.Fatal("the elephant raised no member flag")
	}

	if err := fed.RestoreWAN(0); err != nil {
		t.Fatal(err)
	}
	if err := fed.RestartGateway(gw); err != nil {
		t.Fatal(err)
	}
	fed.RunFor(20 * sim.Millisecond)
	if got := hub.GatewaysDown(); got != 0 {
		t.Fatalf("GatewaysDown = %d after the restart", got)
	}
	rollup("after heal", 0, 1, 1)
	if hub.Flagged() != 0 {
		t.Fatalf("%d subjects still flagged after heal", hub.Flagged())
	}
}
