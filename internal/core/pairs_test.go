package core_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"dumbnet/internal/chaos"
	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
)

// pairFeature is one switch the pairwise test combines: construction
// options, replication after boot, federation, a twin cable in the fabric,
// or a change to the chaos run every pair ends with. table names the
// refusals-table features it turns on.
type pairFeature struct {
	name      string
	opts      []core.Option
	replicate bool // EnableReplicationAt after boot
	federate  bool // deploy as member 0 of a two-fabric federation
	twin      bool // a second cable between spine 1 and leaf 3
	chaos     func(*chaos.Config)
	table     []string
}

func pairFeatures() []pairFeature {
	fs := []pairFeature{
		{name: "shards", opts: []core.Option{core.WithShards(2)}, table: []string{"WithShards"}},
		{name: "replication", replicate: true, table: []string{"EnableReplicationAt"}},
		{name: "tenants", opts: []core.Option{core.WithTenants(2)}, table: []string{"WithTenants"}},
		{name: "telemetry", opts: []core.Option{core.WithTelemetry(telemetry.DefaultConfig())}, table: []string{"WithTelemetry"}},
		{name: "hybrid", opts: []core.Option{core.WithHybridFlows(hybrid.Config{})}, table: []string{"WithHybridFlows"}},
		{name: "federation", federate: true, table: []string{"Federate"}},
		{name: "host-flood-off", opts: []core.Option{core.WithHostFlood(false)}},
		{name: "link-chaos", chaos: func(c *chaos.Config) { c.Loss, c.Flap, c.CrashSwitches = 0.01, true, true }},
		{name: "ctrl-crash", replicate: true, chaos: func(c *chaos.Config) { c.CrashController = true }, table: []string{"EnableReplicationAt"}},
		{name: "churn", opts: []core.Option{core.WithTenants(2)}, chaos: func(c *chaos.Config) { c.TenantChurn = true }, table: []string{"WithTenants"}},
		{name: "mcast", chaos: func(c *chaos.Config) { c.Mcast = true }},
		{name: "twin-cable", twin: true},
	}
	// A host runs one routing policy, so policies pair with every other
	// feature but not with each other.
	for _, p := range host.PolicyNames() {
		fs = append(fs, pairFeature{name: "policy-" + p, opts: []core.Option{core.WithPolicy(p)}})
	}
	return fs
}

// refusedPairs restates core's refusals table: a pair of features is
// refused exactly when, between them, they turn on both sides of one of
// these.
var refusedPairs = [][2]string{
	{"WithShards", "EnableReplicationAt"},
	{"WithShards", "WithHybridFlows"},
	{"Federate", "WithShards"},
	{"Federate", "WithHybridFlows"},
	{"Federate", "EnableReplicationAt"},
	{"Federate", "WithTenants"},
}

// knownDefects are pairs with an open correctness defect (ROADMAP.md's
// defect list): their invariant violations are logged, not failed.
var knownDefects = map[string]bool{
	"tenants+ctrl-crash": true, // (1) controller crash × static tenants
	"ctrl-crash+churn":   true, // (2) tenant churn × controller crash
}

// refusalFor returns the refused pair the two features turn on, if any.
func refusalFor(a, b pairFeature) ([2]string, bool) {
	on := append(slices.Clip(a.table), b.table...)
	for _, r := range refusedPairs {
		if slices.Contains(on, r[0]) && slices.Contains(on, r[1]) {
			return r, true
		}
	}
	return [2]string{}, false
}

// TestFeaturePairs deploys every pair of features on one small leaf-spine
// with one seed. Each pair is either refused with ErrIncompatible exactly
// where refusedPairs says, or it boots, pings a sample of host pairs, and
// passes a short chaos run with every invariant on (plus a WAN battery for
// federations). DESIGN.md's pair table records the outcomes.
func TestFeaturePairs(t *testing.T) {
	fs := pairFeatures()
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			a, b := fs[i], fs[j]
			if strings.HasPrefix(a.name, "policy-") && strings.HasPrefix(b.name, "policy-") {
				continue
			}
			t.Run(a.name+"+"+b.name, func(t *testing.T) {
				t.Parallel()
				runPair(t, a, b)
			})
		}
	}
}

func runPair(t *testing.T, a, b pairFeature) {
	const seed = 1
	refusal, refused := refusalFor(a, b)
	checkRefusal := func(err error) bool {
		t.Helper()
		switch {
		case err == nil:
			return false
		case !refused:
			t.Fatalf("unexpected error: %v", err)
		case !errors.Is(err, core.ErrIncompatible):
			t.Fatalf("refusal %v does not wrap ErrIncompatible", err)
		case !strings.Contains(err.Error(), refusal[0]) || !strings.Contains(err.Error(), refusal[1]):
			t.Fatalf("refusal %v does not name %s and %s", err, refusal[0], refusal[1])
		}
		t.Logf("refused: %v", err)
		return true
	}
	build := func() *topo.Topology {
		if !a.twin && !b.twin {
			tp, err := topo.LeafSpine(2, 4, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			return tp
		}
		// A sixth port on every switch carries the twin 1:6–3:6.
		tp, err := topo.LeafSpine(2, 4, 3, 6)
		if err == nil {
			err = tp.Connect(1, 6, 3, 6)
		}
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}

	opts := append([]core.Option{core.WithSeed(seed)}, append(a.opts, b.opts...)...)
	var (
		n   *core.Network
		fed *core.Federation
		err error
	)
	if a.federate || b.federate {
		fed, err = core.Federate(core.DefaultFederationConfig(seed),
			core.FabricSpec{Topo: build(), Opts: opts}, core.FabricSpec{Topo: build(), Opts: opts})
		if checkRefusal(err) {
			return
		}
		n = fed.Network(0)
	} else {
		n, err = core.New(build(), opts...)
		if checkRefusal(err) {
			return
		}
		if err := n.Bootstrap(); err != nil {
			t.Fatal(err)
		}
	}
	n.WarmAll()
	hosts := n.Hosts()
	if a.replicate || b.replicate {
		_, err := n.EnableReplicationAt([]core.MAC{hosts[len(hosts)/3], hosts[2*len(hosts)/3]})
		if checkRefusal(err) {
			return
		}
	}
	if refused {
		t.Fatalf("%s with %s not refused", refusal[0], refusal[1])
	}

	// Ping a sample of host pairs inside one traffic domain: the first
	// tenant when tenants are carved.
	domain := hosts
	if v := n.Vnet(); v != nil && v.Count() > 0 {
		domain, _ = v.Members(v.Tenants()[0])
	}
	last := len(domain) - 1
	for _, p := range [][2]core.MAC{{domain[0], domain[last]}, {domain[last/2], domain[0]}, {domain[last], domain[last/2]}} {
		if _, err := n.PingSync(p[0], p[1]); err != nil {
			t.Errorf("ping %v -> %v: %v", p[0], p[1], err)
		}
	}

	cfg := chaos.DefaultConfig(seed)
	cfg.Events = 6
	cfg.Loss, cfg.Jitter = 0, 0
	cfg.Flap, cfg.CrashSwitches, cfg.CrashController = false, false, false
	cfg.TenantSize = 2
	for _, f := range []pairFeature{a, b} {
		if f.chaos != nil {
			f.chaos(&cfg)
		}
	}
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	violations := rep.Violations
	if fed != nil {
		fcfg := chaos.DefaultFederationConfig(seed)
		fcfg.Events = 4
		frep, err := chaos.RunFederation(fed, fcfg)
		if err != nil {
			t.Fatalf("wan chaos: %v", err)
		}
		violations = append(violations, frep.Violations...)
	}
	for _, v := range violations {
		if knownDefects[a.name+"+"+b.name] {
			t.Logf("known defect: %v", v)
		} else {
			t.Errorf("invariant violated: %v", v)
		}
	}
}
