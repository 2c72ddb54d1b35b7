package chaos_test

import (
	"slices"
	"testing"

	"dumbnet/internal/chaos"
	"dumbnet/internal/core"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// buildTenantNetwork stands up the churn fabric: the acceptance leaf-spine
// with virtualization installed and three pre-carved tenants; churn events
// create, delete and migrate more at runtime.
func buildTenantNetwork(t *testing.T, seed int64) *core.Network {
	t.Helper()
	tp, err := topo.LeafSpine(3, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithSeed(seed), core.WithTenants(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.WarmAll()
	return n
}

func churnConfig(seed int64) chaos.Config {
	cfg := chaos.DefaultConfig(seed)
	cfg.Events = 30
	cfg.CrashController = false // unreplicated harness
	cfg.TenantChurn = true
	cfg.TenantSize = 2
	return cfg
}

// TestTenantChurnChaos is the tentpole acceptance scenario in miniature:
// tenants churn while links fail, flap and heal, and every isolation
// invariant must hold — zero cross-tenant deliveries, views never widen,
// intra-tenant connectivity restored post-heal, zero blast radius.
func TestTenantChurnChaos(t *testing.T) {
	n := buildTenantNetwork(t, 42)
	rep, err := chaos.Run(n, churnConfig(42))
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
	churned := kinds[trace.ScenarioCreateTenant] + kinds[trace.ScenarioDeleteTenant] + kinds[trace.ScenarioMigrateHost]
	if churned == 0 {
		t.Errorf("no tenant-churn events in trace: %v", kinds)
	}
	faults := kinds[trace.ScenarioFailLink] + kinds[trace.ScenarioHealLink] + kinds[trace.ScenarioFlapLink] +
		kinds[trace.ScenarioCrashSwitch] + kinds[trace.ScenarioRestartSwitch]
	if faults == 0 {
		t.Errorf("churn displaced every fault event: %v", kinds)
	}
}

// TestTenantChurnDeterminism: seed 11 must reproduce its recorded digest —
// tenant mutations (map-ordered internally) must not leak nondeterminism
// into the event stream — and a different seed must diverge.
func TestTenantChurnDeterminism(t *testing.T) {
	run := func(seed int64) *chaos.Report {
		n := buildTenantNetwork(t, 7)
		rep, err := chaos.Run(n, churnConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	const want uint64 = 0xd8da891ea445a88f
	a := run(11)
	if got := a.Digest(); got != want {
		t.Fatalf("seed 11 digest = %#016x, want %#016x; trace:\n%v", got, want, a.Trace)
	}
	c := run(12)
	if slices.Equal(a.Trace, c.Trace) {
		t.Fatal("different seeds produced identical traces")
	}
	if a.Digest() == c.Digest() {
		t.Fatal("different traces produced identical digests")
	}
}

// TestChurnRequiresVirtualization: asking for churn without a manager is a
// configuration error, not a silent no-op.
func TestChurnRequiresVirtualization(t *testing.T) {
	tp, err := topo.LeafSpine(3, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	cfg := chaos.DefaultConfig(1)
	cfg.CrashController = false
	cfg.TenantChurn = true
	if _, err := chaos.Run(n, cfg); err == nil {
		t.Fatal("TenantChurn without virtualization accepted")
	}
}

// TestChurnOffPreservesSeedStreams: enabling the tenancy code paths must
// not shift the fault sequence of a churn-free scenario — pre-tenancy seeds
// keep drawing the same events. (Virtual timestamps legitimately differ:
// a tenanted warm-up issues fewer queries, so chaos starts earlier.)
func TestChurnOffPreservesSeedStreams(t *testing.T) {
	plain := buildNetwork(t, 7, false)
	cfg := chaos.DefaultConfig(33)
	cfg.CrashController = false
	cfg.Events = 15
	a, err := chaos.Run(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tenanted := buildTenantNetwork(t, 7)
	b, err := chaos.Run(tenanted, cfg) // same cfg: churn off, tenants exist
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("event counts diverged: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		ea, eb := a.Trace[i], b.Trace[i]
		ea.At, eb.At = 0, 0
		if ea != eb {
			t.Fatalf("fault stream diverged at %d: %v vs %v", i, a.Trace[i], b.Trace[i])
		}
	}
}
