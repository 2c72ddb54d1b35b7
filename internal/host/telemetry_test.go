package host_test

import (
	"testing"

	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// fakeHealth flags an explicit set of directed links.
type fakeHealth struct {
	flagged map[[2]uint64]bool
}

func (f *fakeHealth) flag(sw packet.SwitchID, port packet.Tag) {
	if f.flagged == nil {
		f.flagged = make(map[[2]uint64]bool)
	}
	f.flagged[[2]uint64{uint64(sw), uint64(port)}] = true
}

func (f *fakeHealth) LinkFlagged(sw packet.SwitchID, port packet.Tag) bool {
	return f.flagged[[2]uint64{uint64(sw), uint64(port)}]
}

// telemetryAgent builds a bare agent with the "telemetry" policy installed
// and a fake scoreboard wired.
func telemetryAgent(t *testing.T) (*host.Agent, *host.TelemetryChooser, *fakeHealth) {
	t.Helper()
	eng := sim.NewEngine(1)
	a := host.New(eng, packet.MACFromUint64(1), host.Config{})
	p, err := a.UsePolicy("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	tc, ok := p.(*host.TelemetryChooser)
	if !ok {
		t.Fatalf("telemetry policy is a %T", p)
	}
	lh := &fakeHealth{}
	a.SetLinkHealth(lh)
	if a.LinkHealth() != host.LinkHealth(lh) {
		t.Fatal("LinkHealth accessor lost the scoreboard")
	}
	return a, tc, lh
}

// twoPaths is a pair of disjoint two-hop candidate routes.
func twoPaths() []host.CachedPath {
	return []host.CachedPath{
		{Tags: packet.Path{1, 2}, Hops: []topo.PortRef{{Switch: 1, Port: 1}, {Switch: 2, Port: 2}}},
		{Tags: packet.Path{3, 2}, Hops: []topo.PortRef{{Switch: 1, Port: 3}, {Switch: 3, Port: 2}}},
	}
}

func TestTelemetryPolicyRegistered(t *testing.T) {
	found := false
	for _, name := range host.PolicyNames() {
		if name == "telemetry" {
			found = true
		}
	}
	if !found {
		t.Fatalf("telemetry missing from the policy registry: %v", host.PolicyNames())
	}
}

// With nothing flagged, the chooser is sticky: same flow, same path, and
// ChoosePath agrees with the hash baseline.
func TestTelemetryChooserStickyWhenClean(t *testing.T) {
	_, tc, _ := telemetryAgent(t)
	flow := host.FlowKey{Dst: packet.MACFromUint64(9), SrcPort: 7}
	paths := twoPaths()
	base := tc.Choose(0, flow, len(paths))
	for i := 0; i < 5; i++ {
		if got := tc.ChoosePath(0, flow, paths); got != base {
			t.Fatalf("clean scoreboard moved the flow: %d != %d", got, base)
		}
	}
	if tc.Steered() != 0 {
		t.Fatalf("Steered = %d with a clean scoreboard", tc.Steered())
	}
}

// Flagging a link on the bound path steers the flow to the clean path.
func TestTelemetryChooserSteersOffFlaggedLink(t *testing.T) {
	_, tc, lh := telemetryAgent(t)
	flow := host.FlowKey{Dst: packet.MACFromUint64(9), SrcPort: 7}
	paths := twoPaths()
	base := tc.Choose(0, flow, len(paths))
	bound := paths[base]
	lh.flag(bound.Hops[0].Switch, bound.Hops[0].Port)

	got := tc.ChoosePath(0, flow, paths)
	if got == base {
		t.Fatal("flow not steered off the flagged link")
	}
	for _, hop := range paths[got].Hops {
		if lh.LinkFlagged(hop.Switch, hop.Port) {
			t.Fatal("steered onto a flagged link")
		}
	}
	if tc.Steered() != 1 {
		t.Fatalf("Steered = %d, want 1", tc.Steered())
	}
}

// When every path is flagged, the chooser picks the least-flagged one.
func TestTelemetryChooserMinimizesFlaggedHops(t *testing.T) {
	_, tc, lh := telemetryAgent(t)
	flow := host.FlowKey{Dst: packet.MACFromUint64(9), SrcPort: 7}
	paths := twoPaths()
	// Flag both hops of the base path but only one hop of the other.
	base := tc.Choose(0, flow, len(paths))
	other := (base + 1) % len(paths)
	lh.flag(paths[base].Hops[0].Switch, paths[base].Hops[0].Port)
	lh.flag(paths[base].Hops[1].Switch, paths[base].Hops[1].Port)
	lh.flag(paths[other].Hops[1].Switch, paths[other].Hops[1].Port)
	if got := tc.ChoosePath(0, flow, paths); got != other {
		t.Fatalf("chose path %d (2 flagged hops) over %d (1 flagged hop)", got, other)
	}
}

// A single-path entry is never steered, flags or not.
func TestTelemetryChooserSinglePath(t *testing.T) {
	_, tc, lh := telemetryAgent(t)
	flow := host.FlowKey{Dst: packet.MACFromUint64(9), SrcPort: 7}
	paths := twoPaths()[:1]
	lh.flag(paths[0].Hops[0].Switch, paths[0].Hops[0].Port)
	if got := tc.ChoosePath(0, flow, paths); got != 0 {
		t.Fatalf("single-path choice = %d", got)
	}
}

// Without a wired scoreboard the chooser degrades to the sticky baseline.
func TestTelemetryChooserNoScoreboard(t *testing.T) {
	eng := sim.NewEngine(1)
	a := host.New(eng, packet.MACFromUint64(1), host.Config{})
	p, err := a.UsePolicy("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	tc := p.(*host.TelemetryChooser)
	flow := host.FlowKey{Dst: packet.MACFromUint64(9), SrcPort: 7}
	paths := twoPaths()
	if got, want := tc.ChoosePath(0, flow, paths), tc.Choose(0, flow, len(paths)); got != want {
		t.Fatalf("no-scoreboard ChoosePath = %d, want sticky %d", got, want)
	}
}

// ECN echoes still bump the destination epoch (cooldown-gated), composing
// with the scoreboard signal.
func TestTelemetryChooserECNEpochBump(t *testing.T) {
	_, tc, _ := telemetryAgent(t)
	dst := packet.MACFromUint64(9)
	tc.OnCongestion(dst)
	if tc.Epoch(dst) != 1 {
		t.Fatalf("epoch = %d after first echo, want 1", tc.Epoch(dst))
	}
	// Inside the cooldown: suppressed.
	tc.OnCongestion(dst)
	if tc.Epoch(dst) != 1 {
		t.Fatalf("epoch = %d inside cooldown, want 1", tc.Epoch(dst))
	}
}
