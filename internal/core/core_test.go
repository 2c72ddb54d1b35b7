package core_test

import (
	"errors"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

func deploy(t *testing.T) *core.Network {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSendReceive(t *testing.T) {
	n := deploy(t)
	hosts := n.Hosts()
	var got []string
	if err := n.OnReceive(hosts[1], func(src core.MAC, p []byte) {
		got = append(got, string(p))
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(hosts[0], hosts[1], []byte("hi")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if len(got) != 1 || got[0] != "hi" {
		t.Fatalf("got = %v", got)
	}
}

func TestSendBeforeBootstrapFails(t *testing.T) {
	tp, _ := topo.Testbed()
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Hosts()
	if err := n.Send(hosts[0], hosts[1], []byte("x")); !errors.Is(err, core.ErrNotDeployed) {
		t.Fatalf("err = %v", err)
	}
}

func TestSendUnknownHost(t *testing.T) {
	n := deploy(t)
	var nobody core.MAC
	nobody[5] = 0xEE
	if err := n.Send(nobody, n.Hosts()[0], nil); !errors.Is(err, core.ErrNoSuchHost) {
		t.Fatalf("err = %v", err)
	}
	if err := n.OnReceive(nobody, nil); !errors.Is(err, core.ErrNoSuchHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestPing(t *testing.T) {
	n := deploy(t)
	hosts := n.Hosts()
	rtt, err := n.PingSync(hosts[0], hosts[len(hosts)-1])
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
	// Warm-cache ping should be faster (no controller round trip).
	rtt2, err := n.PingSync(hosts[0], hosts[len(hosts)-1])
	if err != nil {
		t.Fatal(err)
	}
	if rtt2 >= rtt {
		t.Fatalf("warm rtt %v not below cold rtt %v", rtt2, rtt)
	}
}

func TestDiscoverThenTraffic(t *testing.T) {
	tp, _ := topo.Testbed()
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	report, err := n.Discover(16)
	if err != nil {
		t.Fatal(err)
	}
	if report.Switches != 7 || report.Hosts != 27 {
		t.Fatalf("report = %+v", report)
	}
	hosts := n.Hosts()
	if _, err := n.PingSync(hosts[0], hosts[3]); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverKeepsPinging(t *testing.T) {
	n := deploy(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	if _, err := n.PingSync(src, dst); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if _, err := n.PingSync(src, dst); err != nil {
		t.Fatalf("ping after failure: %v", err)
	}
	if err := n.RestoreLink(1, 3); err != nil {
		t.Fatal(err)
	}
	n.RunFor(2 * sim.Second)
	if _, err := n.PingSync(src, dst); err != nil {
		t.Fatalf("ping after restore: %v", err)
	}
}

func TestWarmAllPrimesTables(t *testing.T) {
	n := deploy(t)
	n.WarmAll()
	for _, a := range n.Hosts() {
		for _, b := range n.Hosts() {
			if a != b && !n.Agent(a).RoutesReady(b) {
				t.Fatalf("%v has no route to %v after WarmAll", a, b)
			}
		}
	}
}

func TestSetPolicyPerHost(t *testing.T) {
	n := deploy(t)
	if err := n.SetPolicy(n.Hosts()[0], "flowlet"); err != nil {
		t.Fatal(err)
	}
	n.Agent(n.Hosts()[0]).SetPolicy(host.NewFlowletChooser(100 * sim.Microsecond))
	if err := n.SetPolicy(n.Hosts()[1], "single"); err != nil {
		t.Fatal(err)
	}
	var nobody core.MAC
	nobody[0] = 9
	if err := n.SetPolicy(nobody, "flowlet"); !errors.Is(err, core.ErrNoSuchHost) {
		t.Fatalf("err = %v", err)
	}
}

// Full-stack determinism: identical seeds must reproduce a run event for
// event — same RTTs, same switch counters, same event count.
func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		tp, _ := topo.Testbed()
		cfg := core.DefaultConfig()
		cfg.Seed = 77
		n, err := core.New(tp, core.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Discover(16); err != nil {
			t.Fatal(err)
		}
		hosts := n.Hosts()
		rtt, err := n.PingSync(hosts[2], hosts[17])
		if err != nil {
			t.Fatal(err)
		}
		_ = n.FailLink(1, 3)
		n.Run()
		rtt2, err := n.PingSync(hosts[2], hosts[17])
		if err != nil {
			t.Fatal(err)
		}
		return rtt + rtt2, n.Eng.Processed(), n.Fab.Switch(2).Stats().Forwarded
	}
	r1, e1, f1 := run()
	r2, e2, f2 := run()
	if r1 != r2 || e1 != e2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", r1, e1, f1, r2, e2, f2)
	}
}

func TestEnableReplication(t *testing.T) {
	n := deploy(t)
	hosts := n.Hosts()
	group, err := n.EnableReplicationAt([]core.MAC{hosts[5], hosts[11]})
	if err != nil {
		t.Fatal(err)
	}
	if group.Cluster.Size() != 3 {
		t.Fatalf("cluster size = %d", group.Cluster.Size())
	}
	if n.Group() != group {
		t.Fatal("Group() does not return the replica group")
	}
	// A failure must propagate to every replica's view through the log.
	if err := n.FailLink(2, 5); err != nil {
		t.Fatal(err)
	}
	n.RunFor(3 * sim.Second)
	for i, c := range group.Controllers() {
		if _, err := c.Master().PortToward(2, 5); err == nil {
			t.Fatalf("replica %d still has the failed link", i)
		}
	}
	// And traffic still flows.
	if _, err := n.PingSync(hosts[0], hosts[len(hosts)-1]); err != nil {
		t.Fatal(err)
	}
}

func TestEnableReplicationBeforeBootstrapFails(t *testing.T) {
	tp, _ := topo.Testbed()
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.EnableReplicationAt(n.Hosts()[:2]); !errors.Is(err, core.ErrNotDeployed) {
		t.Fatalf("err = %v", err)
	}
}
