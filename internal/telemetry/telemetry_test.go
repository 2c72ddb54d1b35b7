package telemetry_test

import (
	"encoding/json"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// testConfig is a small, fast configuration the detector tests share:
// 1ms windows, low thresholds, short runs.
func testConfig() telemetry.Config {
	return telemetry.Config{
		Window:         sim.Millisecond,
		TapCapacity:    1 << 10,
		TopK:           4,
		UtilThreshold:  8,
		UtilWindows:    2,
		DropBurst:      4,
		MinActive:      2,
		ActiveWindows:  2,
		SilenceWindows: 3,
		HealSLO:        sim.Millisecond,
		SLOFlagWindows: 2,
		ClearWindows:   2,
	}
}

func mac(b byte) packet.MAC { return packet.MAC{0x02, 0, 0, 0, 0, b} }

// hop feeds one forwarded-frame record on the directed link (sw, port).
func hop(c *telemetry.Consumer, at int64, sw packet.SwitchID, port packet.Tag, src, dst packet.MAC) {
	c.IngestRecord(&trace.Record{At: at, Kind: trace.KindHop, Sw: sw, Port: port, Src: src, Dst: dst})
}

// hops feeds n hop records, plus keepalive traffic on a second link so the
// engine never looks idle (the blackhole detector requires that).
func hops(c *telemetry.Consumer, n int, sw packet.SwitchID, port packet.Tag) {
	for i := 0; i < n; i++ {
		hop(c, 0, sw, port, mac(1), mac(2))
	}
}

func TestCongestionRaisesAndClears(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	key := topo.PortRef{Switch: 5, Port: 2}

	// One hot window is not enough (UtilWindows = 2).
	hops(c, 8, 5, 2)
	c.EndWindow()
	if c.Board().Reasons(key)&telemetry.ReasonCongestion != 0 {
		t.Fatal("congestion flagged after a single hot window")
	}
	hops(c, 8, 5, 2)
	c.EndWindow()
	if c.Board().Reasons(key)&telemetry.ReasonCongestion == 0 {
		t.Fatal("congestion not flagged after UtilWindows hot windows")
	}
	if !c.Board().LinkFlagged(5, 2) {
		t.Fatal("LinkFlagged does not see the congestion flag")
	}
	if c.Board().LinkFlagged(5, 3) {
		t.Fatal("sibling port tainted by a per-link flag")
	}

	// Two quiet windows (below half the threshold) clear it.
	hops(c, 1, 5, 2)
	c.EndWindow()
	if c.Board().Reasons(key)&telemetry.ReasonCongestion == 0 {
		t.Fatal("congestion cleared after a single quiet window (ClearWindows = 2)")
	}
	hops(c, 1, 5, 2)
	c.EndWindow()
	if c.Board().Reasons(key) != 0 {
		t.Fatalf("congestion still flagged after ClearWindows quiet windows: %v", c.Board().Reasons(key))
	}
	if got := c.Board().Raised(); got != 1 {
		t.Fatalf("Raised = %d, want 1", got)
	}
	if got := c.Board().Cleared(); got != 1 {
		t.Fatalf("Cleared = %d, want 1", got)
	}
}

// Mid-band traffic (between half and full threshold) must neither raise
// nor clear: the hysteresis band holds existing state.
func TestCongestionHysteresisBand(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	key := topo.PortRef{Switch: 5, Port: 2}
	for i := 0; i < 2; i++ {
		hops(c, 8, 5, 2)
		c.EndWindow()
	}
	if c.Board().Reasons(key)&telemetry.ReasonCongestion == 0 {
		t.Fatal("setup: congestion not flagged")
	}
	// 5 frames/window is >= half of 8 but < 8: flag must hold indefinitely.
	for i := 0; i < 6; i++ {
		hops(c, 5, 5, 2)
		c.EndWindow()
	}
	if c.Board().Reasons(key)&telemetry.ReasonCongestion == 0 {
		t.Fatal("mid-band traffic cleared the congestion flag")
	}
}

func TestSwitchDropBurst(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	key := topo.PortRef{Switch: 7}
	for i := 0; i < 4; i++ {
		c.IngestRecord(&trace.Record{Kind: trace.KindDrop, Sw: 7, Op: uint8(trace.DropNoPort)})
	}
	c.EndWindow()
	if c.Board().Reasons(key)&telemetry.ReasonDropBurst == 0 {
		t.Fatal("switch drop burst not flagged")
	}
	// A switch-level flag taints every port of that switch.
	if !c.Board().LinkFlagged(7, 3) {
		t.Fatal("switch-level flag does not taint the switch's ports")
	}
	for i := 0; i < 2; i++ {
		c.EndWindow()
	}
	if c.Board().Reasons(key) != 0 {
		t.Fatal("switch drop burst did not clear after quiet windows")
	}
}

func TestGlobalDropBurst(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	// Link-level drops carry no switch: they land on the fabric-wide key.
	for i := 0; i < 4; i++ {
		c.IngestRecord(&trace.Record{Kind: trace.KindDrop, Op: uint8(trace.DropImpairLoss)})
	}
	c.EndWindow()
	if c.Board().Reasons(telemetry.GlobalKey)&telemetry.ReasonDropBurst == 0 {
		t.Fatal("fabric-wide drop burst not flagged")
	}
	// A global verdict gives no signal for choosing between paths.
	if c.Board().LinkFlagged(7, 3) {
		t.Fatal("fabric-wide flag tainted an individual link")
	}
	for i := 0; i < 2; i++ {
		c.EndWindow()
	}
	if c.Board().Reasons(telemetry.GlobalKey) != 0 {
		t.Fatal("fabric-wide drop burst did not clear after quiet windows")
	}
}

func TestBlackholeSilence(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	key := topo.PortRef{Switch: 5, Port: 2}
	// Arm: sustained activity for ActiveWindows.
	for i := 0; i < 2; i++ {
		hops(c, 4, 5, 2)
		c.EndWindow()
	}
	// Silence while the rest of the fabric still carries traffic.
	for i := 0; i < 3; i++ {
		if c.Board().Reasons(key)&telemetry.ReasonBlackhole != 0 {
			t.Fatalf("blackhole flagged after only %d silent windows", i)
		}
		hops(c, 2, 9, 1) // other-link traffic: the engine is not idle
		c.EndWindow()
	}
	if c.Board().Reasons(key)&telemetry.ReasonBlackhole == 0 {
		t.Fatal("blackhole not flagged after SilenceWindows of unexplained silence")
	}
	// Frames reappearing clear it immediately.
	hops(c, 1, 5, 2)
	hops(c, 2, 9, 1)
	c.EndWindow()
	if c.Board().Reasons(key)&telemetry.ReasonBlackhole != 0 {
		t.Fatal("blackhole flag survived traffic reappearing")
	}
}

// An alarmed down-link is an explained outage: silence after a
// RecoveryDetect(down) must not raise the blackhole flag.
func TestAlarmedDownIsNotABlackhole(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	key := topo.PortRef{Switch: 5, Port: 2}
	for i := 0; i < 2; i++ {
		hops(c, 4, 5, 2)
		c.EndWindow()
	}
	c.IngestRecord(&trace.Record{Kind: trace.KindRecovery, Op: uint8(trace.RecoveryDetect), Sw: 5, Port: 2, Up: false})
	for i := 0; i < 5; i++ {
		hops(c, 2, 9, 1)
		c.EndWindow()
	}
	if c.Board().Reasons(key)&telemetry.ReasonBlackhole != 0 {
		t.Fatal("alarm-explained silence raised the blackhole flag")
	}
}

// A fully idle engine gives no evidence: silence everywhere must not raise
// blackhole flags, and disarms previously active links.
func TestIdleEngineDisarmsBlackhole(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	key := topo.PortRef{Switch: 5, Port: 2}
	for i := 0; i < 2; i++ {
		hops(c, 4, 5, 2)
		c.EndWindow()
	}
	for i := 0; i < 8; i++ {
		c.EndWindow() // nothing anywhere
	}
	if c.Board().Reasons(key)&telemetry.ReasonBlackhole != 0 {
		t.Fatal("idle engine raised a blackhole flag")
	}
}

func TestHealSLOBreachAndDecay(t *testing.T) {
	cfg := testConfig()
	c := telemetry.NewOfflineConsumer(cfg)
	key := topo.PortRef{Switch: 3, Port: 1}
	down := func(at int64) {
		c.IngestRecord(&trace.Record{At: at, Kind: trace.KindRecovery, Op: uint8(trace.RecoveryDetect), Sw: 3, Port: 1, Up: false})
	}
	reroute := func(at int64) {
		c.IngestRecord(&trace.Record{At: at, Kind: trace.KindRecovery, Op: uint8(trace.RecoveryReroute), Sw: 3, Port: 1})
	}

	// Fast heal: inside the SLO, no flag, span recorded.
	down(0)
	reroute(int64(cfg.HealSLO) / 2)
	c.EndWindow()
	if c.HealBreaches() != 0 {
		t.Fatal("in-SLO heal counted as a breach")
	}
	if c.Recovery().Count() != 1 {
		t.Fatalf("recovery histogram count = %d, want 1", c.Recovery().Count())
	}

	// Slow heal: breach + TTL'd flag.
	down(10_000_000)
	reroute(10_000_000 + int64(cfg.HealSLO)*3)
	c.EndWindow()
	if c.HealBreaches() != 1 {
		t.Fatalf("HealBreaches = %d, want 1", c.HealBreaches())
	}
	if c.Board().Reasons(key)&telemetry.ReasonHealSLO == 0 {
		t.Fatal("SLO breach did not flag the link")
	}
	// The flag decays after SLOFlagWindows windows.
	for i := 0; i < cfg.SLOFlagWindows; i++ {
		c.EndWindow()
	}
	if c.Board().Reasons(key)&telemetry.ReasonHealSLO != 0 {
		t.Fatal("heal-SLO flag did not decay")
	}
}

func TestCtrlLatencyPairing(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	h := mac(9)
	c.IngestRecord(&trace.Record{At: 100, Kind: trace.KindCtrl, Op: uint8(trace.CtrlPathRequest), Src: h, Seq: 7})
	c.IngestRecord(&trace.Record{At: 4100, Kind: trace.KindCtrl, Op: uint8(trace.CtrlPathResponse), Src: h, Seq: 7})
	// An unmatched response (different seq) must not observe anything.
	c.IngestRecord(&trace.Record{At: 5000, Kind: trace.KindCtrl, Op: uint8(trace.CtrlPathResponse), Src: h, Seq: 8})
	c.EndWindow()
	if c.CtrlLatency().Count() != 1 {
		t.Fatalf("ctrl latency count = %d, want 1", c.CtrlLatency().Count())
	}
	if got := c.CtrlLatency().Max(); got != 4000 {
		t.Fatalf("ctrl latency = %d, want 4000", got)
	}
}

func TestHeavyHitterTenantLabels(t *testing.T) {
	c := telemetry.NewOfflineConsumer(testConfig())
	c.SetTenantResolver(func(src, dst packet.MAC) string {
		if src == mac(1) {
			return "blue"
		}
		return ""
	})
	for i := 0; i < 5; i++ {
		hop(c, 0, 1, 1, mac(1), mac(2))
	}
	hop(c, 0, 1, 1, mac(3), mac(4))
	c.EndWindow()
	top := c.Top()
	if len(top) != 2 {
		t.Fatalf("top-k length = %d, want 2", len(top))
	}
	if top[0].Flow.Tenant != "blue" || top[0].Count != 5 {
		t.Fatalf("hottest flow = %+v, want tenant blue count 5", top[0])
	}
	if top[1].Flow.Tenant != "" {
		t.Fatalf("untenanted flow labeled %q", top[1].Flow.Tenant)
	}
}

// TestOnlineConsumerFlush drives the real pipeline: engine + recorder + tap
// + periodic in-sim flush events.
func TestOnlineConsumerFlush(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := trace.NewRecorder(trace.DefaultConfig())
	eng.SetTracer(rec)
	cfg := testConfig()
	c := telemetry.NewConsumer(eng, rec.Subscribe(cfg.TapCapacity), cfg)
	c.Start()
	c.Start() // idempotent

	// A minimal frame: dst ‖ src MACs is all the recorder reads.
	frame := make([]byte, 16)
	d, s := mac(2), mac(1)
	copy(frame[0:6], d[:])
	copy(frame[6:12], s[:])

	// Emit UtilThreshold hops per window for three windows via in-sim
	// events, then let the consumer's flushes pick them up.
	for w := 0; w < 3; w++ {
		at := sim.Time(w) * cfg.Window
		eng.At(at, func() {
			for i := uint64(0); i < cfg.UtilThreshold; i++ {
				rec.PacketHop(int64(eng.Now()), 0, 5, 2, frame)
			}
		})
	}
	eng.RunUntil(3*cfg.Window + cfg.Window/2)

	if c.Flushes() < 3 {
		t.Fatalf("flushes = %d, want >= 3", c.Flushes())
	}
	if want := uint64(3) * cfg.UtilThreshold; c.Drained() != want {
		t.Fatalf("drained = %d, want %d", c.Drained(), want)
	}
	if c.TapDropped() != 0 {
		t.Fatalf("tap dropped %d records with a keeping-up consumer", c.TapDropped())
	}
	if !c.Board().LinkFlagged(5, 2) {
		t.Fatal("sustained over-threshold traffic did not flag the link online")
	}
	if n := c.Board().FlaggedCount(); n != 1 {
		t.Fatalf("scoreboard holds %d flags, want 1", n)
	}

	// Traffic stopped: the flag must clear on its own after quiet windows.
	eng.RunUntil(8 * cfg.Window)
	if c.Board().LinkFlagged(5, 2) {
		t.Fatal("congestion flag survived the traffic stopping")
	}
	if c.Board().Cleared() == 0 {
		t.Fatal("clear transition not counted")
	}
}

func TestHubOfflineSnapshot(t *testing.T) {
	recs := []trace.Record{
		{At: 0, Kind: trace.KindHop, Sw: 1, Port: 1, Src: mac(1), Dst: mac(2)},
		{At: 100, Kind: trace.KindHop, Sw: 1, Port: 1, Src: mac(1), Dst: mac(2)},
		{At: 200, Kind: trace.KindDrop, Sw: 1, Op: uint8(trace.DropNoPort)},
		{At: 2_100_000, Kind: trace.KindHop, Sw: 2, Port: 3, Src: mac(3), Dst: mac(4)},
	}
	s := telemetry.Offline(recs, testConfig())
	if s.Frames != 3 || s.Drops != 1 {
		t.Fatalf("frames/drops = %d/%d, want 3/1", s.Frames, s.Drops)
	}
	// Records span two windows (2.1ms at 1ms windows => 3 EndWindow calls).
	if s.Windows < 2 {
		t.Fatalf("windows = %d, want >= 2", s.Windows)
	}
	if s.DropCauses["no-port"] != 1 {
		t.Fatalf("drop causes = %v", s.DropCauses)
	}
	if len(s.TopFlows) != 2 || s.TopFlows[0].Count != 2 {
		t.Fatalf("top flows = %+v", s.TopFlows)
	}
	if len(s.Links) == 0 {
		t.Fatal("no link stats in snapshot")
	}
}

func TestHubExporters(t *testing.T) {
	hub := telemetry.NewHub(testConfig())
	eng := sim.NewEngine(1)
	c := hub.Attach(eng)
	if eng.Tracer() == nil {
		t.Fatal("Attach did not install a recorder")
	}
	if hub.ConsumerFor(eng) != c {
		t.Fatal("ConsumerFor lost the consumer")
	}
	hop(c, 0, 1, 2, mac(1), mac(2))
	c.EndWindow()

	js, err := hub.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Frames != 1 {
		t.Fatalf("snapshot frames = %d, want 1", snap.Frames)
	}
}

// TestConsumerAllocFree guards the streaming consumer's two hot calls at
// k=16 fat-tree scale (320 switches with 16 fabric ports each): ingesting a
// hop on a known link, and the window flush that runs the detectors over
// every directed link, each cost 0 allocs/op.
func TestConsumerAllocFree(t *testing.T) {
	c := telemetry.NewOfflineConsumer(telemetry.DefaultConfig())
	r := trace.Record{Kind: trace.KindHop, Dur: 100, Src: mac(7), Dst: mac(9)}
	for sw := 1; sw <= 320; sw++ {
		for p := 1; p <= 16; p++ {
			r.Sw, r.Port = packet.SwitchID(sw), packet.Tag(p)
			c.IngestRecord(&r)
		}
	}
	t.Run("IngestRecord", func(t *testing.T) {
		r.Sw, r.Port = 1, 1
		if n := testing.AllocsPerRun(1000, func() {
			r.At++
			c.IngestRecord(&r)
		}); n != 0 {
			t.Errorf("IngestRecord: %v allocs/op, want 0", n)
		}
	})
	t.Run("EndWindow", func(t *testing.T) {
		if n := testing.AllocsPerRun(100, c.EndWindow); n != 0 {
			t.Errorf("EndWindow over 5120 links: %v allocs/op, want 0", n)
		}
	})
}
