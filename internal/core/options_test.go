package core_test

import (
	"errors"
	"strings"
	"testing"

	"dumbnet/internal/chaos"
	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// shardedNet deploys a fat-tree k=4 on n shards and boots it.
func shardedNet(t *testing.T, seed int64, shards int) *core.Network {
	t.Helper()
	tp, err := topo.FatTree(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithSeed(seed), core.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestShardedDeploymentPings(t *testing.T) {
	n := shardedNet(t, 7, 4)
	if n.SimGroup() == nil || n.SimGroup().NumShards() != 4 {
		t.Fatalf("expected a 4-shard group, got %v", n.SimGroup())
	}
	hosts := n.Hosts()
	// Ping across every pair sampled from distant pods so cross-shard paths
	// are exercised.
	pairs := [][2]core.MAC{
		{hosts[0], hosts[len(hosts)-1]},
		{hosts[1], hosts[len(hosts)/2]},
		{hosts[len(hosts)-1], hosts[0]},
	}
	for _, p := range pairs {
		rtt, err := n.PingSync(p[0], p[1])
		if err != nil {
			t.Fatalf("ping %v->%v: %v", p[0], p[1], err)
		}
		if rtt <= 0 {
			t.Fatalf("ping %v->%v: non-positive rtt %d", p[0], p[1], rtt)
		}
	}
}

func TestShardedDeploymentDeterministic(t *testing.T) {
	run := func(shards int) []sim.Time {
		n := shardedNet(t, 11, shards)
		hosts := n.Hosts()
		var rtts []sim.Time
		for i := 0; i < 4; i++ {
			rtt, err := n.PingSync(hosts[i], hosts[len(hosts)-1-i])
			if err != nil {
				t.Fatal(err)
			}
			rtts = append(rtts, rtt)
		}
		return rtts
	}
	a, b := run(4), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sharded runs diverged at ping %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestShardedSendReceive(t *testing.T) {
	n := shardedNet(t, 3, 4)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	var got []byte
	if err := n.OnReceive(dst, func(from core.MAC, payload []byte) {
		if from == src {
			got = append([]byte(nil), payload...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(src, dst, []byte("across shards")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if string(got) != "across shards" {
		t.Fatalf("payload = %q", got)
	}
}

// TestShardsRejectReplication: replication on a sharded network is refused
// through the refusals table, with an error naming both features.
func TestShardsRejectReplication(t *testing.T) {
	n := shardedNet(t, 1, 2)
	_, err := n.EnableReplicationAt(n.Hosts()[:2])
	if !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("EnableReplicationAt on a sharded network: err = %v, want ErrIncompatible", err)
	}
	for _, name := range []string{"WithShards", "EnableReplicationAt"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("refusal %q does not name %s", err, name)
		}
	}
	if n.Group() != nil {
		t.Fatal("a refused replication left a replica group behind")
	}
}

func TestWithPolicyAndSetPolicy(t *testing.T) {
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithPolicy("flowlet"))
	if err != nil {
		t.Fatal(err)
	}
	h := n.Hosts()[0]
	if _, ok := n.Agent(h).Chooser.(*host.FlowletChooser); !ok {
		t.Fatalf("WithPolicy(flowlet): chooser is %T", n.Agent(h).Chooser)
	}
	if err := n.SetPolicy(h, "ecn"); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Agent(h).Chooser.(*host.ECNChooser); !ok {
		t.Fatalf("SetPolicy(ecn): chooser is %T", n.Agent(h).Chooser)
	}
	if err := n.SetPolicy(h, "no-such-policy"); err == nil {
		t.Fatal("unknown policy should error")
	} else if !strings.Contains(err.Error(), "unknown routing policy") {
		t.Fatalf("unexpected error: %v", err)
	}

	if _, err := core.New(tp, core.WithPolicy("bogus")); err == nil {
		t.Fatal("WithPolicy(bogus) should fail construction")
	}
}

func TestWithTracerOption(t *testing.T) {
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.DefaultConfig())
	n, err := core.New(tp, core.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	if n.Eng.Tracer() != rec {
		t.Fatal("tracer not attached to home engine")
	}
}

func TestWithChaosRunChaos(t *testing.T) {
	tp, err := topo.LeafSpine(3, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := chaos.DefaultConfig(13)
	ccfg.Events = 8
	ccfg.CrashController = false // unreplicated deployment
	n, err := core.New(tp, core.WithSeed(13), core.WithChaos(ccfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunChaos(); err == nil {
		t.Fatal("RunChaos before Bootstrap should fail")
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.WarmAll()
	rep, err := n.RunChaos()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("chaos run produced no trace events")
	}
	if !rep.Ok() {
		t.Fatalf("chaos run violated invariants: %v", rep.Violations)
	}

	// Without WithChaos, RunChaos is a configuration error.
	plain, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RunChaos(); err == nil {
		t.Fatal("RunChaos without WithChaos should fail")
	}
}

func TestNewWithConfig(t *testing.T) {
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 77
	n, err := core.New(tp, core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.PingSync(n.Hosts()[0], n.Hosts()[1]); err != nil {
		t.Fatal(err)
	}
}
