package host_test

import (
	"errors"
	"fmt"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// deploy builds tp under cfg and bootstraps it.
func deploy(t *testing.T, tp *topo.Topology, cfg core.Config) *core.Network {
	t.Helper()
	n, err := core.New(tp, core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return n
}

func deployTestbed(t *testing.T) *core.Network {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	return deploy(t, tp, core.DefaultConfig())
}

// collectData installs a data sink on an agent.
func collectData(a *host.Agent) *[]string {
	var got []string
	a.OnData = func(src packet.MAC, innerType uint16, payload []byte) {
		got = append(got, string(payload))
	}
	return &got
}

func TestBootstrapDeliversHello(t *testing.T) {
	n := deployTestbed(t)
	for _, m := range n.Hosts() {
		a := n.Agent(m)
		ctrl, path, ok := a.Controller()
		if !ok {
			t.Fatalf("host %v never learned the controller", m)
		}
		if ctrl != n.Ctrl.MAC() {
			t.Fatalf("host %v thinks controller is %v", m, ctrl)
		}
		if len(path) == 0 {
			t.Fatalf("host %v has empty controller path", m)
		}
		if a.Attach().Host != m {
			t.Fatalf("host %v attach not learned", m)
		}
	}
}

func TestSendWithColdCacheQueriesController(t *testing.T) {
	n := deployTestbed(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := collectData(n.Agent(dst))
	if err := n.Agent(src).SendData(dst, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if len(*got) != 1 || (*got)[0] != "hello" {
		t.Fatalf("delivered = %v", *got)
	}
	st := n.Agent(src).Stats()
	if st.PathQueries == 0 || st.PathResponses == 0 {
		t.Fatalf("no controller interaction: %+v", st)
	}
	if !n.Agent(src).RoutesReady(dst) {
		t.Fatal("route not cached after response")
	}
}

// A send that misses the path cache waits in the pending queue until the
// controller answers. The queue must own its bytes: the caller is free to
// refill its buffer as soon as Send returns (a router forwarding out of a
// receive buffer, an application reusing one send buffer).
func TestPendingSendOwnsItsPayload(t *testing.T) {
	n := deployTestbed(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := collectData(n.Agent(dst))
	head, body := []byte("head:"), []byte("original")
	if err := n.Agent(src).SendParts(dst, packet.EtherTypeIPv4, head, body, host.FlowKey{Dst: dst}); err != nil {
		t.Fatal(err)
	}
	if n.Agent(src).RoutesReady(dst) {
		t.Fatal("destination was not cold: the send did not queue")
	}
	copy(head, "HEAD!")
	copy(body, "clobber!")
	n.Run()
	if len(*got) != 1 || (*got)[0] != "head:original" {
		t.Fatalf("delivered = %q, want the bytes as they were at Send", *got)
	}
}

func TestSecondSendUsesCache(t *testing.T) {
	n := deployTestbed(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := collectData(n.Agent(dst))
	_ = n.Agent(src).SendData(dst, []byte("one"))
	n.Run()
	queries := n.Agent(src).Stats().PathQueries
	_ = n.Agent(src).SendData(dst, []byte("two"))
	n.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered = %v", *got)
	}
	if n.Agent(src).Stats().PathQueries != queries {
		t.Fatal("cached send still queried the controller")
	}
}

func TestAllPairsConnectivity(t *testing.T) {
	n := deployTestbed(t)
	received := make(map[packet.MAC]int)
	for _, m := range n.Hosts() {
		m := m
		n.Agent(m).OnData = func(src packet.MAC, it uint16, p []byte) { received[m]++ }
	}
	sent := 0
	for _, a := range n.Hosts() {
		for _, b := range n.Hosts() {
			if a == b {
				continue
			}
			if err := n.Agent(a).SendData(b, []byte("x")); err != nil {
				t.Fatalf("%v->%v: %v", a, b, err)
			}
			sent++
		}
	}
	n.Run()
	total := 0
	for _, c := range received {
		total += c
	}
	if total != sent {
		t.Fatalf("delivered %d of %d", total, sent)
	}
}

func TestFailoverUsesCachedAlternative(t *testing.T) {
	n := deployTestbed(t)
	// Hosts on different leaves: leaf switches are 3..7, spines 1-2.
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := collectData(n.Agent(dst))
	_ = n.Agent(src).SendData(dst, []byte("warm"))
	n.Run()
	queriesBefore := n.Agent(src).Stats().PathQueries

	// Fail one spine's link to the source leaf: the cached k-paths and
	// backup must cover it without a new controller query.
	srcAt, _ := n.Topo.HostAt(src)
	if err := n.Fab.FailLink(1, srcAt.Switch); err != nil {
		t.Fatal(err)
	}
	n.Run() // propagate notifications
	for i := 0; i < 5; i++ {
		if err := n.Agent(src).SendData(dst, []byte(fmt.Sprintf("after-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	if len(*got) != 6 {
		t.Fatalf("delivered %d of 6: %v", len(*got), *got)
	}
	if q := n.Agent(src).Stats().PathQueries; q != queriesBefore {
		t.Fatalf("failover required %d new controller queries", q-queriesBefore)
	}
}

func TestLinkEventDeduplication(t *testing.T) {
	n := deployTestbed(t)
	// Warm some paths so hosts know each other (enables host flooding).
	for _, m := range n.Hosts()[:5] {
		_ = n.Agent(n.Hosts()[5]).SendData(m, []byte("w"))
	}
	n.Run()
	if err := n.Fab.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	n.Run()
	for _, m := range n.Hosts() {
		st := n.Agent(m).Stats()
		if st.EventsSeen > 2 { // one per failed-link side at most
			t.Fatalf("host %v saw %d distinct events", m, st.EventsSeen)
		}
	}
}

func TestTopoPatchArrivesAndApplies(t *testing.T) {
	n := deployTestbed(t)
	patched := 0
	for _, m := range n.Hosts() {
		n.Agent(m).OnPatch = func(p *topo.Patch) { patched++ }
	}
	if err := n.Fab.FailLink(2, 4); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if patched == 0 {
		t.Fatal("no host received a topology patch")
	}
	if n.Ctrl.Stats().LinkDownsSeen == 0 {
		t.Fatal("controller missed the failure")
	}
	// The master view must have dropped the link.
	if _, err := n.Ctrl.Master().PortToward(2, 4); err == nil {
		t.Fatal("master still has the failed link")
	}
}

func TestLinkRestorePatches(t *testing.T) {
	n := deployTestbed(t)
	if err := n.Fab.FailLink(2, 4); err != nil {
		t.Fatal(err)
	}
	n.Run()
	n.RunFor(2 * sim.Second) // clear alarm suppression window
	if err := n.Fab.RestoreLink(2, 4); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if _, err := n.Ctrl.Master().PortToward(2, 4); err != nil {
		t.Fatalf("master did not restore the link: %v", err)
	}
}

func TestSendToSelf(t *testing.T) {
	n := deployTestbed(t)
	h := n.Hosts()[0]
	got := collectData(n.Agent(h))
	if err := n.Agent(h).SendData(h, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || (*got)[0] != "loop" {
		t.Fatalf("self delivery = %v", *got)
	}
}

func TestSendWithoutControllerFails(t *testing.T) {
	eng := sim.NewEngine(1)
	a := host.New(eng, packet.MACFromUint64(99), host.DefaultConfig())
	err := a.Send(packet.MACFromUint64(100), packet.EtherTypeIPv4, []byte("x"), host.FlowKey{})
	if !errors.Is(err, host.ErrNoController) {
		t.Fatalf("err = %v", err)
	}
}

func TestPendingQueueOverflow(t *testing.T) {
	n := deployTestbed(t)
	src, dst := n.Hosts()[0], n.Hosts()[1]
	// Queue more than MaxPending before running the engine.
	var lastErr error
	for i := 0; i < host.MaxPending+6; i++ {
		if err := n.Agent(src).SendData(dst, []byte("x")); err != nil {
			lastErr = err
		}
	}
	if !errors.Is(lastErr, host.ErrPending) {
		t.Fatalf("overflow err = %v", lastErr)
	}
	if got := n.Agent(src).Stats().PendingDrops; got != 6 {
		t.Fatalf("PendingDrops = %d, want 6", got)
	}
}

func TestWarmUp(t *testing.T) {
	n := deployTestbed(t)
	src, dst := n.Hosts()[0], n.Hosts()[2]
	if err := n.Agent(src).WarmUp(dst); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if !n.Agent(src).RoutesReady(dst) {
		t.Fatal("warmup did not install routes")
	}
	// Idempotent when ready.
	if err := n.Agent(src).WarmUp(dst); err != nil {
		t.Fatal(err)
	}
}

func TestInstallRouteVerification(t *testing.T) {
	tp, _ := topo.Testbed()
	cfg := core.DefaultConfig()
	cfg.Host.VerifyPaths = true
	n := deploy(t, tp, cfg)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	// Learn topology first.
	_ = n.Agent(src).SendData(dst, []byte("w"))
	n.Run()
	// A valid route computed from the real topology must pass.
	tags, err := n.Topo.HostPath(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Agent(src).InstallRoute(dst, tags); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	// A garbage route must be rejected.
	if err := n.Agent(src).InstallRoute(dst, packet.Path{9, 9, 9}); !errors.Is(err, host.ErrVerifyFailed) {
		t.Fatalf("bad route err = %v", err)
	}
	if n.Agent(src).Stats().VerifyFails == 0 {
		t.Fatal("verify failure not counted")
	}
}

// TestVerifyRouteAllocFree: the path verifier accepts a valid route
// without allocating.
func TestVerifyRouteAllocFree(t *testing.T) {
	tp, _ := topo.Testbed()
	cfg := core.DefaultConfig()
	cfg.Host.VerifyPaths = true
	n := deploy(t, tp, cfg)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	_ = n.Agent(src).SendData(dst, []byte("w"))
	n.Run()
	tags, err := n.Topo.HostPath(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	verify := func() {
		if err := n.Agent(src).VerifyRoute(dst, tags); err != nil {
			t.Fatalf("valid route rejected: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(200, verify); allocs != 0 {
		t.Fatalf("VerifyRoute allocates %v/op, want 0", allocs)
	}
}

func TestPathTableDropLink(t *testing.T) {
	pt := host.NewPathTable()
	dst := packet.MACFromUint64(5)
	pt.Install(dst, &host.TableEntry{
		Paths: []host.CachedPath{
			{Tags: packet.Path{1, 2}, Hops: []topo.PortRef{{Switch: 1, Port: 1}, {Switch: 2, Port: 2}}},
			{Tags: packet.Path{3, 2}, Hops: []topo.PortRef{{Switch: 1, Port: 3}, {Switch: 3, Port: 2}}},
		},
		Backup: &host.CachedPath{Tags: packet.Path{4, 2}, Hops: []topo.PortRef{{Switch: 1, Port: 4}, {Switch: 4, Port: 2}}},
	})
	dead, rerouted := pt.DropLink(1, 1)
	if rerouted != 1 {
		t.Fatalf("rerouted = %d, want 1", rerouted)
	}
	if len(dead) != 0 {
		t.Fatalf("dead = %v", dead)
	}
	e := pt.Lookup(dst)
	if len(e.Paths) != 1 || e.Paths[0].Tags[0] != 3 {
		t.Fatalf("paths = %+v", e.Paths)
	}
	// Kill the remaining path: backup promotes.
	dead, rerouted = pt.DropLink(1, 3)
	if rerouted != 1 {
		t.Fatalf("rerouted = %d, want 1 (backup promotion is a reroute)", rerouted)
	}
	if len(dead) != 0 {
		t.Fatalf("dead = %v", dead)
	}
	e = pt.Lookup(dst)
	if len(e.Paths) != 1 || e.Paths[0].Tags[0] != 4 || e.Backup != nil {
		t.Fatalf("backup not promoted: %+v", e)
	}
	// Kill the backup too: entry dies.
	dead, rerouted = pt.DropLink(1, 4)
	if rerouted != 0 {
		t.Fatalf("rerouted = %d, want 0 (entry died)", rerouted)
	}
	if len(dead) != 1 || dead[0] != dst {
		t.Fatalf("dead = %v", dead)
	}
	if pt.Lookup(dst) != nil {
		t.Fatal("entry survived")
	}
}

func TestPathTableAccessors(t *testing.T) {
	pt := host.NewPathTable()
	if pt.Len() != 0 || len(pt.Destinations()) != 0 {
		t.Fatal("empty table")
	}
	d := packet.MACFromUint64(1)
	pt.Install(d, &host.TableEntry{Paths: []host.CachedPath{{Tags: packet.Path{1}}}})
	if pt.Len() != 1 || pt.Destinations()[0] != d {
		t.Fatal("install/lookup")
	}
	pt.Invalidate(d)
	if pt.Lookup(d) != nil {
		t.Fatal("invalidate")
	}
}

func TestDataPathLatencyCharged(t *testing.T) {
	// ProcessDelay must appear in end-to-end delivery time.
	tp, _ := topo.Line(2, 4)
	run := func(delay sim.Time) sim.Time {
		cfg := core.DefaultConfig()
		cfg.Host.ProcessDelay = delay
		n := deploy(t, tp.Clone(), cfg)
		src := n.Hosts()[0]
		dst := n.Ctrl.MAC()
		var at sim.Time = -1
		n.Agent(dst).OnData = func(packet.MAC, uint16, []byte) { at = n.Eng.Now() }
		start := n.Eng.Now()
		_ = n.Agent(src).SendData(dst, []byte("ping"))
		n.Run()
		if at < 0 {
			t.Fatal("not delivered")
		}
		return at - start
	}
	fast := run(0)
	slow := run(200 * sim.Microsecond)
	if slow <= fast {
		t.Fatalf("processing delay not charged: fast=%v slow=%v", fast, slow)
	}
}
