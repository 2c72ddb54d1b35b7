package chaos_test

import (
	"slices"
	"strings"
	"testing"

	"dumbnet/internal/chaos"
	"dumbnet/internal/core"
	"dumbnet/internal/topo"
)

// buildFederation stands up a two-fabric federation of small fat-trees
// for the WAN battery.
func buildFederation(t *testing.T, seed int64) *core.Federation {
	t.Helper()
	ta, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := core.Federate(core.DefaultFederationConfig(seed),
		core.FabricSpec{Name: "west", Topo: ta},
		core.FabricSpec{Name: "east", Topo: tb},
	)
	if err != nil {
		t.Fatalf("Federate: %v", err)
	}
	return fed
}

// TestFederationChaosBattery runs the randomized WAN battery — link cuts
// and gateway crashes with never-widen and blast-radius audits after every
// event — and requires a clean report.
func TestFederationChaosBattery(t *testing.T) {
	fed := buildFederation(t, 21)
	rep, err := chaos.RunFederation(fed, chaos.DefaultFederationConfig(21))
	if err != nil {
		t.Fatalf("RunFederation: %v", err)
	}
	if len(rep.Trace) == 0 {
		t.Fatalf("battery injected no events")
	}
	for _, v := range rep.Violations {
		t.Errorf("violation [%s]: %s", v.Invariant, v.Detail)
	}
	if t.Failed() {
		t.Fatalf("%d invariant violations (digest %#x)", len(rep.Violations), rep.Digest())
	}
}

// TestFederationChaosDeterminism replays seed 33 on a freshly built
// federation and requires its recorded digest; a different seed must
// diverge, and neither may violate an invariant.
func TestFederationChaosDeterminism(t *testing.T) {
	run := func(seed int64) *chaos.Report {
		fed := buildFederation(t, 21)
		rep, err := chaos.RunFederation(fed, chaos.DefaultFederationConfig(seed))
		if err != nil {
			t.Fatalf("RunFederation(seed=%d): %v", seed, err)
		}
		return rep
	}
	const want uint64 = 0xcde10629f0b14381
	a := run(33)
	if got := a.Digest(); got != want {
		t.Fatalf("seed 33 digest = %#016x, want %#016x; trace:\n%v", got, want, a.Trace)
	}
	c := run(34)
	if slices.Equal(a.Trace, c.Trace) {
		t.Fatalf("different seeds produced identical traces")
	}
	if len(a.Violations)+len(c.Violations) != 0 {
		t.Fatalf("violations: seed33=%d seed34=%d", len(a.Violations), len(c.Violations))
	}
}

// TestFederationRefusesLinkSwitches: the WAN battery shares Config with the
// link battery but injects none of its faults, so a config that turns one
// on is refused rather than silently ignored.
func TestFederationRefusesLinkSwitches(t *testing.T) {
	fed := buildFederation(t, 21)
	cfg := chaos.DefaultFederationConfig(21)
	cfg.Flap = true
	if _, err := chaos.RunFederation(fed, cfg); err == nil || !strings.Contains(err.Error(), "Flap") {
		t.Fatalf("RunFederation with Flap: err = %v, want a refusal naming Flap", err)
	}
}
