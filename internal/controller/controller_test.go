package controller_test

import (
	"errors"
	"math/rand"

	"testing"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// discoverOn runs full discovery over the real fabric for a topology.
func discoverOn(t *testing.T, tp *topo.Topology, maxPorts int) (*core.Network, controller.DiscoveryReport) {
	t.Helper()
	n := undiscovered(t, tp, maxPorts)
	tr := controller.NewFabricTransport(n.Ctrl)
	var report controller.DiscoveryReport
	var derr error
	done := false
	n.Ctrl.Discover(tr, func(r controller.DiscoveryReport, err error) {
		report, derr, done = r, err, true
	})
	n.Run()
	if !done {
		t.Fatal("discovery never completed")
	}
	if derr != nil {
		t.Fatal(derr)
	}
	return n, report
}

func TestDiscoveryLine(t *testing.T) {
	tp, _ := topo.Line(3, 4)
	n, report := discoverOn(t, tp, 4)
	if report.Switches != 3 || report.Links != 2 || report.Hosts != 2 {
		t.Fatalf("report = %+v", report)
	}
	if err := sameTopologyStructure(n.Ctrl.Master(), tp); err != nil {
		t.Fatalf("discovered topology differs: %v", err)
	}
	if report.Probes == 0 || report.Duration <= 0 {
		t.Fatalf("bad accounting: %+v", report)
	}
}

func TestDiscoveryTestbed(t *testing.T) {
	tp, _ := topo.Testbed()
	n, report := discoverOn(t, tp, 16) // testbed wiring fits in 16 ports
	if report.Switches != 7 || report.Links != 10 || report.Hosts != 27 {
		t.Fatalf("report = %+v", report)
	}
	if err := sameTopologyStructure(n.Ctrl.Master(), tp); err != nil {
		t.Fatalf("discovered topology differs: %v", err)
	}
}

func TestDiscoveryWithAmbiguousParallelSpines(t *testing.T) {
	// Two spines between the same pair of leaves create exactly the §4.1
	// ambiguity: both return paths look identical from the controller.
	tp, _ := topo.LeafSpine(2, 2, 2, 8)
	n, report := discoverOn(t, tp, 8)
	if err := sameTopologyStructure(n.Ctrl.Master(), tp); err != nil {
		t.Fatalf("ambiguity resolution failed: %v", err)
	}
	if report.Links != 4 {
		t.Fatalf("links = %d, want 4", report.Links)
	}
}

func TestDiscoveryCubeViaOracle(t *testing.T) {
	tp, err := topo.Cube(3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	// A bare controller: oracle transport needs no fabric.
	hosts := tp.Hosts()
	ctrlMAC := hosts[0].Host
	agent := newBareAgent(eng, ctrlMAC)
	cfg := controller.DefaultConfig()
	cfg.Discovery.MaxPorts = 8
	c := controller.New(eng, agent, cfg)
	tr := controller.NewOracleTransport(eng, tp, ctrlMAC, cfg.Discovery)
	var derr error
	done := false
	c.Discover(tr, func(r controller.DiscoveryReport, err error) { derr, done = err, true })
	eng.Run()
	if !done || derr != nil {
		t.Fatalf("done=%v err=%v", done, derr)
	}
	if err := sameTopologyStructure(c.Master(), tp); err != nil {
		t.Fatalf("oracle discovery differs: %v", err)
	}
}

func TestOracleAndFabricDiscoveryAgree(t *testing.T) {
	tp, _ := topo.LeafSpine(2, 3, 2, 8)
	nFab, _ := discoverOn(t, tp.Clone(), 8)

	eng := sim.NewEngine(1)
	hosts := tp.Hosts()
	agent := newBareAgent(eng, hosts[0].Host)
	cfg := controller.DefaultConfig()
	cfg.Discovery.MaxPorts = 8
	c := controller.New(eng, agent, cfg)
	tr := controller.NewOracleTransport(eng, tp, hosts[0].Host, cfg.Discovery)
	c.Discover(tr, func(controller.DiscoveryReport, error) {})
	eng.Run()

	if err := sameTopologyStructure(nFab.Ctrl.Master(), c.Master()); err != nil {
		t.Fatalf("fabric vs oracle: %v", err)
	}
}

func TestDiscoveryProbeCountScalesQuadratically(t *testing.T) {
	// Same topology, more ports scanned => ~quadratic probe growth (§4.1:
	// O(N·P²)).
	probes := func(maxPorts int) uint64 {
		tp, _ := topo.Line(3, 4)
		eng := sim.NewEngine(1)
		agent := newBareAgent(eng, tp.Hosts()[0].Host)
		cfg := controller.DefaultConfig()
		cfg.Discovery.MaxPorts = maxPorts
		c := controller.New(eng, agent, cfg)
		tr := controller.NewOracleTransport(eng, tp, tp.Hosts()[0].Host, cfg.Discovery)
		c.Discover(tr, func(controller.DiscoveryReport, error) {})
		eng.Run()
		return tr.ProbesSent()
	}
	p8, p16 := probes(8), probes(16)
	ratio := float64(p16) / float64(p8)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("probe growth ratio = %.2f (p8=%d p16=%d), want ~4", ratio, p8, p16)
	}
}

func TestDiscoveryFailsWithoutFabric(t *testing.T) {
	// A controller with no network underneath finds nothing.
	tp := topo.New()
	_ = tp.AddSwitch(1, 4)
	_ = tp.AttachHost(packet.MACFromUint64(1), 1, 1)
	eng := sim.NewEngine(1)
	agent := newBareAgent(eng, packet.MACFromUint64(99)) // not in tp
	cfg := controller.DefaultConfig()
	cfg.Discovery.MaxPorts = 4
	c := controller.New(eng, agent, cfg)
	tr := controller.NewOracleTransport(eng, tp, packet.MACFromUint64(99), cfg.Discovery)
	var derr error
	c.Discover(tr, func(r controller.DiscoveryReport, err error) { derr = err })
	eng.Run()
	if derr == nil {
		t.Fatal("expected discovery failure")
	}
}

func TestPostDiscoveryEndToEnd(t *testing.T) {
	// Discover, bootstrap, then pass traffic — the full §4.1 lifecycle.
	tp, _ := topo.Testbed()
	n, _ := discoverOn(t, tp, 16)
	if err := n.Ctrl.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.Run()
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := 0
	n.Agent(dst).OnData = func(packet.MAC, uint16, []byte) { got++ }
	if err := n.Agent(src).SendData(dst, []byte("post-discovery")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 1 {
		t.Fatal("no delivery after discovery+bootstrap")
	}
}

func TestReplicationSnapshotAndPatch(t *testing.T) {
	// Three controllers share a consensus log; a failure handled by the
	// primary must update every replica's view.
	tp, _ := topo.Testbed()
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Build two extra (off-fabric) replicas plus the live controller.
	eng := n.Eng
	r2 := controller.New(eng, newBareAgent(eng, packet.MACFromUint64(200)), controller.DefaultConfig())
	r3 := controller.New(eng, newBareAgent(eng, packet.MACFromUint64(201)), controller.DefaultConfig())
	group := controller.BuildReplicaGroup(eng, []*controller.Controller{n.Ctrl, r2, r3})
	n.RunFor(2 * sim.Second) // elect
	primary := group.Primary()
	if primary == nil {
		t.Fatal("no primary")
	}
	if err := group.ProposeSnapshot(primary, n.Ctrl.Master().Clone()); err != nil {
		// The live controller may not be the leader; propose from leader.
		t.Fatal(err)
	}
	n.RunFor(2 * sim.Second)
	for i, r := range []*controller.Controller{n.Ctrl, r2, r3} {
		if r.Master() == nil {
			t.Fatalf("replica %d has no snapshot", i)
		}
		if err := sameTopologyStructure(r.Master(), tp); err != nil {
			t.Fatalf("replica %d snapshot differs: %v", i, err)
		}
	}
	// Now a failure: the live controller proposes the patch through the log.
	if err := n.Fab.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	n.RunFor(3 * sim.Second)
	for i, r := range []*controller.Controller{n.Ctrl, r2, r3} {
		if _, err := r.Master().PortToward(1, 3); err == nil {
			t.Fatalf("replica %d still has the failed link", i)
		}
	}
}

func TestControllerString(t *testing.T) {
	eng := sim.NewEngine(1)
	c := controller.New(eng, newBareAgent(eng, packet.MACFromUint64(1)), controller.DefaultConfig())
	if c.String() == "" {
		t.Fatal("empty string")
	}
}

// Property: discovery recovers the exact structure of random connected
// topologies (switches, links, hosts), for several seeds.
func TestDiscoveryRandomTopologyProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, err := topo.RandomRegular(12, 3, 1, 12, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eng := sim.NewEngine(seed)
		ctrlHost := tp.Hosts()[0].Host
		agent := newBareAgent(eng, ctrlHost)
		cfg := controller.DefaultConfig()
		cfg.Discovery.MaxPorts = 12
		c := controller.New(eng, agent, cfg)
		tr := controller.NewOracleTransport(eng, tp, ctrlHost, cfg.Discovery)
		var derr error
		c.Discover(tr, func(r controller.DiscoveryReport, err error) { derr = err })
		eng.Run()
		if derr != nil {
			t.Fatalf("seed %d: %v", seed, derr)
		}
		if err := sameTopologyStructure(c.Master(), tp); err != nil {
			t.Fatalf("seed %d: discovered topology differs: %v", seed, err)
		}
	}
}

// Discovery must also survive a topology where two switches are joined by
// parallel links through DIFFERENT port pairs.
func TestDiscoveryParallelLinks(t *testing.T) {
	tp := topo.New()
	_ = tp.AddSwitch(1, 8)
	_ = tp.AddSwitch(2, 8)
	_ = tp.Connect(1, 1, 2, 1)
	_ = tp.Connect(1, 2, 2, 2)
	ctrl := packet.MACFromUint64(1)
	_ = tp.AttachHost(ctrl, 1, 5)
	_ = tp.AttachHost(packet.MACFromUint64(2), 2, 5)
	eng := sim.NewEngine(1)
	agent := newBareAgent(eng, ctrl)
	cfg := controller.DefaultConfig()
	cfg.Discovery.MaxPorts = 8
	c := controller.New(eng, agent, cfg)
	tr := controller.NewOracleTransport(eng, tp, ctrl, cfg.Discovery)
	var derr error
	c.Discover(tr, func(r controller.DiscoveryReport, err error) { derr = err })
	eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	// Both links must be found (port-level pairing may differ for
	// symmetric parallel links, but the counts must match).
	if c.Master().NumLinks() != 2 {
		t.Fatalf("links = %d, want 2", c.Master().NumLinks())
	}
	if c.Master().NumHosts() != 2 {
		t.Fatalf("hosts = %d", c.Master().NumHosts())
	}
}

// Multi-controller bootstrap (§4.1): once one controller completes
// discovery and bootstraps the hosts, a second prober learns the network is
// owned and yields, becoming a replica.
func TestSecondControllerYields(t *testing.T) {
	tp, _ := topo.Testbed()
	n := undiscovered(t, tp, 16)
	// Controller A: the deployment's own. Run it to completion + bootstrap.
	trA := controller.NewFabricTransport(n.Ctrl)
	doneA := false
	n.Ctrl.Discover(trA, func(r controller.DiscoveryReport, err error) {
		if err != nil {
			t.Errorf("A: %v", err)
		}
		doneA = true
	})
	n.Run()
	if !doneA {
		t.Fatal("A never finished")
	}
	if err := n.Ctrl.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.Run()

	// Controller B: promote an ordinary host and let it probe.
	hosts := n.Hosts()
	bMAC := hosts[len(hosts)-1]
	cfg := controller.DefaultConfig()
	cfg.Discovery.MaxPorts = 16
	ctrlB := controller.New(n.Eng, n.Agent(bMAC), cfg)
	trB := controller.NewFabricTransport(ctrlB)
	var errB error
	doneB := false
	ctrlB.Discover(trB, func(r controller.DiscoveryReport, err error) { errB, doneB = err, true })
	n.Run()
	if !doneB {
		t.Fatal("B never resolved")
	}
	if !errors.Is(errB, controller.ErrOtherController) {
		t.Fatalf("B err = %v, want ErrOtherController", errB)
	}
	if ctrlB.Master() != nil {
		t.Fatal("B should not own a master view")
	}
}

// With no prior owner, a promoted host completes discovery normally — the
// yield logic must not fire on un-bootstrapped networks.
func TestSecondControllerWinsWhenFirstAbsent(t *testing.T) {
	tp, _ := topo.Testbed()
	n := undiscovered(t, tp, 16)
	hosts := n.Hosts()
	bMAC := hosts[len(hosts)-1]
	cfg := controller.DefaultConfig()
	cfg.Discovery.MaxPorts = 16
	ctrlB := controller.New(n.Eng, n.Agent(bMAC), cfg)
	trB := controller.NewFabricTransport(ctrlB)
	var errB error
	var repB controller.DiscoveryReport
	ctrlB.Discover(trB, func(r controller.DiscoveryReport, err error) { repB, errB = r, err })
	n.Run()
	if errB != nil {
		t.Fatal(errB)
	}
	if repB.Switches != 7 || repB.Hosts != 27 {
		t.Fatalf("report = %+v", repB)
	}
}
