package chaos_test

import (
	"bytes"
	"slices"
	"testing"

	"dumbnet/internal/chaos"
	"dumbnet/internal/core"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// chaosTelemetryConfig tunes the detectors to the chaos scenario's scale:
// 1ms windows, a drop burst of a few frames, and a heal SLO tight enough
// that real recoveries land on both sides of it.
func chaosTelemetryConfig() telemetry.Config {
	cfg := telemetry.DefaultConfig()
	cfg.Window = sim.Millisecond
	cfg.DropBurst = 4
	cfg.UtilThreshold = 512 // chaos traffic is sparse; keep congestion out of the way
	cfg.HealSLO = 2 * sim.Millisecond
	cfg.SLOFlagWindows = 4
	cfg.ClearWindows = 2
	return cfg
}

// buildTelemetryNetwork mirrors buildNetwork (same fabric, same seed
// handling) and attaches streaming telemetry — by default observation-only,
// so the data plane is untouched.
func buildTelemetryNetwork(t *testing.T, seed int64, opts ...core.Option) *core.Network {
	t.Helper()
	tp, err := topo.LeafSpine(3, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	n, err := core.New(tp, append([]core.Option{core.WithConfig(cfg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.WarmAll()
	hosts := n.Hosts()
	if _, err := n.EnableReplicationAt([]core.MAC{hosts[3], hosts[7]}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTelemetryChaosDigestUnchanged: attaching the streaming consumer must
// not perturb the simulation. The chaos event trace, its digest, and the
// byte-exact Chrome export of the flight recorder must all be identical
// with and without telemetry — the flush events observe, they never touch
// network state or the rng.
func TestTelemetryChaosDigestUnchanged(t *testing.T) {
	run := func(withTelemetry bool) (*chaos.Report, []byte) {
		n := buildTelemetryNetwork(t, 7)
		rec := trace.NewRecorder(trace.DefaultConfig())
		n.Eng.SetTracer(rec)
		if withTelemetry {
			if _, err := n.EnableTelemetry(chaosTelemetryConfig()); err != nil {
				t.Fatal(err)
			}
		}
		cfg := chaos.DefaultConfig(11)
		cfg.Events = 16
		rep, err := chaos.Run(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec.Records()); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	repOff, traceOff := run(false)
	repOn, traceOn := run(true)
	if !slices.Equal(repOff.Trace, repOn.Trace) {
		t.Fatalf("telemetry perturbed the chaos event trace:\n%v\nvs\n%v", repOff.Trace, repOn.Trace)
	}
	if repOff.Digest() != repOn.Digest() {
		t.Fatalf("telemetry changed the report digest: %x vs %x", repOff.Digest(), repOn.Digest())
	}
	if !bytes.Equal(traceOff, traceOn) {
		t.Fatal("telemetry changed the byte-exact flight-recorder export")
	}
	// And the attached run is itself reproducible.
	repOn2, traceOn2 := run(true)
	if repOn.Digest() != repOn2.Digest() || !bytes.Equal(traceOn, traceOn2) {
		t.Fatal("telemetry-attached chaos run is not reproducible")
	}
}

// TestTelemetryDetectorsUnderChaos: injected faults must light the
// detectors up — drop bursts from lossy links, recovery spans into the
// heal histogram, heal-SLO breaches — and once the fabric heals and the
// traffic stops, every flag must clear again.
func TestTelemetryDetectorsUnderChaos(t *testing.T) {
	n := buildTelemetryNetwork(t, 21, core.WithTelemetry(chaosTelemetryConfig()))
	hub := n.Telemetry()
	if hub == nil {
		t.Fatal("telemetry not enabled")
	}
	cfg := chaos.DefaultConfig(21)
	cfg.Events = 20
	cfg.Loss = 0.05 // lossy enough that drop bursts are certain
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %v", v)
		}
	}
	if hub.Raised() == 0 {
		t.Fatal("no detector fired across a lossy 20-event chaos scenario")
	}
	snap := hub.Snapshot()
	if snap.Drops == 0 {
		t.Fatal("consumer saw no drop records despite 5% injected loss")
	}
	if snap.Recovery.Count == 0 {
		t.Fatal("no recovery spans landed in the heal histogram")
	}
	// The chaos phase is over and the fabric healed: give the detectors
	// their clear windows and demand a clean scoreboard.
	n.RunFor(50 * sim.Millisecond)
	if got := hub.Flagged(); got != 0 {
		t.Fatalf("%d flags still raised after heal + quiet settle (summary: %s)",
			got, hub.SummaryLine())
	}
	if hub.Cleared() == 0 {
		t.Fatal("flags raised but none recorded as cleared")
	}
}

// TestTelemetryClosedLoopUnderChaos: with the "telemetry" policy installed
// fleet-wide, a chaos scenario still satisfies every invariant — the
// steering loop must never strand a flow — and the scoreboard actually
// drove at least one steering decision.
func TestTelemetryClosedLoopUnderChaos(t *testing.T) {
	n := buildTelemetryNetwork(t, 33,
		core.WithTelemetry(chaosTelemetryConfig()), core.WithPolicy("telemetry"))
	cfg := chaos.DefaultConfig(33)
	cfg.Events = 20
	cfg.Loss = 0.03
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated with telemetry steering active: %v", v)
		}
	}
	steered := uint64(0)
	for _, h := range n.Hosts() {
		if tc := n.TelemetryChooserOf(h); tc != nil {
			steered += tc.Steered()
		}
	}
	t.Logf("fleet steering decisions: %d", steered)
	if n.Telemetry().Raised() == 0 {
		t.Fatal("closed-loop chaos run raised no flags at all")
	}
}
