package core_test

import (
	"errors"
	"strings"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
)

// closedLoopConfig is a fast telemetry configuration for the demo tests:
// 1ms windows and a congestion threshold a test elephant flow can cross.
func closedLoopConfig() telemetry.Config {
	cfg := telemetry.DefaultConfig()
	cfg.Window = sim.Millisecond
	cfg.UtilThreshold = 24
	cfg.UtilWindows = 2
	cfg.ClearWindows = 2
	return cfg
}

// TestTelemetryClosedLoop is the closed-loop demo: an elephant flow on a
// 4-ary fat-tree congests its sticky path, the streaming consumer flags the
// hot links, and the "telemetry" policy steers the flow off them — then the
// flags clear once the traffic stops.
func TestTelemetryClosedLoop(t *testing.T) {
	tp, err := topo.FatTree(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithTelemetry(closedLoopConfig()), core.WithPolicy("telemetry"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	n.WarmAll()

	hub := n.Telemetry()
	if hub == nil {
		t.Fatal("WithTelemetry did not enable the hub at boot")
	}
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // different pods: multipath
	tc := n.TelemetryChooserOf(src)
	if tc == nil {
		t.Fatal("telemetry policy not installed on the source host")
	}

	// Learn routes first so the elephant starts with a full path table.
	if _, err := n.PingSync(src, dst); err != nil {
		t.Fatal(err)
	}

	// Elephant: 48 frames per 1ms window for 20 windows — double the
	// congestion threshold on every link of whichever path is bound.
	payload := []byte("elephant")
	for w := 0; w < 20; w++ {
		at := n.Eng.Now() + sim.Time(w)*sim.Millisecond
		n.Eng.At(at, func() {
			for i := 0; i < 48; i++ {
				if err := n.Send(src, dst, payload); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
	}
	n.RunFor(25 * sim.Millisecond)

	if hub.Raised() == 0 {
		t.Fatal("no detector fired under a sustained elephant flow")
	}
	if tc.Steered() == 0 {
		t.Fatal("scoreboard flags never steered the flow off its bound path")
	}

	// The flow's frames must have spread across more links than one bound
	// path uses: proof the steering moved real traffic, not just the choice.
	snap := hub.Snapshot()
	flowLinks := 0
	for _, l := range snap.Links {
		if l.Frames > 0 {
			flowLinks++
		}
	}
	if flowLinks <= 5 { // one inter-pod path crosses 5 switches
		t.Fatalf("traffic stayed on %d links — steering moved nothing", flowLinks)
	}
	if len(snap.TopFlows) == 0 || !strings.Contains(snap.TopFlows[0].Flow, "->") {
		t.Fatalf("heavy-hitter sketch missed the elephant: %+v", snap.TopFlows)
	}

	// Traffic stopped: every flag must clear within a few quiet windows.
	n.RunFor(20 * sim.Millisecond)
	if got := hub.Flagged(); got != 0 {
		t.Fatalf("%d subjects still flagged after the elephant stopped", got)
	}
	if hub.Flushes() == 0 || hub.TapDropped() != 0 {
		t.Fatalf("flushes=%d tapDropped=%d", hub.Flushes(), hub.TapDropped())
	}
}

// Sharded runs get one consumer per shard, each wired to that shard's
// agents, and the hub merges them.
func TestTelemetryShardedConsumers(t *testing.T) {
	tp, err := topo.LeafSpine(3, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithShards(2), core.WithTelemetry(closedLoopConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	hub := n.Telemetry()
	if hub == nil {
		t.Fatal("no hub")
	}
	if got := len(hub.Consumers()); got != n.SimGroup().NumShards() {
		t.Fatalf("%d consumers for %d shards", got, n.SimGroup().NumShards())
	}
	hosts := n.Hosts()
	if _, err := n.PingSync(hosts[0], hosts[len(hosts)-1]); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * sim.Millisecond)
	for i, c := range hub.Consumers() {
		if c.Flushes() == 0 {
			t.Fatalf("shard %d consumer never flushed", i)
		}
		if c.Engine() != n.SimGroup().Shard(i) {
			t.Fatalf("shard %d consumer bound to the wrong engine", i)
		}
	}
	// Every agent's scoreboard must belong to its own shard's consumer.
	for _, m := range hosts {
		a := n.Agent(m)
		c := hub.ConsumerFor(a.Engine())
		if c == nil {
			t.Fatalf("agent %v on an engine with no consumer", m)
		}
		if a.LinkHealth() != c.Board() {
			t.Fatalf("agent %v wired to a foreign shard's scoreboard", m)
		}
	}
}

func TestEnableTelemetryLifecycle(t *testing.T) {
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	// Before boot: refused.
	if _, err := n.EnableTelemetry(telemetry.DefaultConfig()); !errors.Is(err, core.ErrNotDeployed) {
		t.Fatalf("pre-boot EnableTelemetry err = %v, want ErrNotDeployed", err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	hub, err := n.EnableTelemetry(telemetry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second enable returns the same hub.
	again, err := n.EnableTelemetry(telemetry.DefaultConfig())
	if err != nil || again != hub {
		t.Fatalf("second EnableTelemetry = (%p, %v), want (%p, nil)", again, err, hub)
	}
	// The network's hub is the one merged view, with its JSON exporter.
	if n.Telemetry() != hub {
		t.Fatal("Network.Telemetry does not return the enabled hub")
	}
	if _, err := hub.SnapshotJSON(); err != nil {
		t.Fatal(err)
	}
}
