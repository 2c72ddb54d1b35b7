package host_test

import (
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// End-to-end tests of the ECN extension: marking at congested switch
// ports, receiver echoes, and congestion-aware rerouting.

// deployECN builds a two-spine fabric with ECN marking enabled and one
// deliberately slow spine so its queues build up.
func deployECN(t *testing.T) *core.Network {
	t.Helper()
	tp, err := topo.LeafSpine(2, 2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Fabric.Switch.ECNThreshold = 20 * sim.Microsecond
	// Slow fabric links so a burst queues: 100 Mbps, deep queue.
	cfg.Fabric.SwitchLink.BandwidthBps = 100e6
	cfg.Fabric.SwitchLink.MaxBacklog = 200 * sim.Millisecond
	cfg.Host.ProcessDelay = 0 // let bursts hit the queue back-to-back
	return deploy(t, tp, cfg)
}

func TestECNMarkingOnCongestedPort(t *testing.T) {
	n := deployECN(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	_ = n.Agent(src).SendData(dst, []byte("warm"))
	n.Run()
	// Burst enough 1 KB frames to exceed the 20 µs backlog threshold at
	// 100 Mbps (one frame ≈ 80 µs serialization).
	for i := 0; i < 20; i++ {
		_ = n.Agent(src).SendData(dst, make([]byte, 1000))
	}
	n.Run()
	marked := uint64(0)
	for _, id := range n.Topo.SwitchIDs() {
		marked += n.Fab.Switch(id).Stats().ECNMarked
	}
	if marked == 0 {
		t.Fatal("no frames marked despite a saturated port")
	}
	if n.Agent(dst).Stats().CEReceived == 0 {
		t.Fatal("receiver saw no CE marks")
	}
}

func TestECNEchoReachesSender(t *testing.T) {
	n := deployECN(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	var notified []packet.MAC
	n.Agent(src).OnCongestionNotice = func(d packet.MAC) { notified = append(notified, d) }
	// Receiver needs a cached route back to echo; warm both directions.
	_ = n.Agent(src).SendData(dst, []byte("warm"))
	n.Run()
	_ = n.Agent(dst).SendData(src, []byte("warm-back"))
	n.Run()
	for i := 0; i < 20; i++ {
		_ = n.Agent(src).SendData(dst, make([]byte, 1000))
	}
	n.Run()
	if n.Agent(dst).Stats().CongestionEchoes == 0 {
		t.Fatal("receiver sent no echoes")
	}
	if n.Agent(src).Stats().CongestionNotices == 0 || len(notified) == 0 {
		t.Fatal("sender heard no congestion notices")
	}
	if notified[0] != dst {
		t.Fatalf("notice names %v, want %v", notified[0], dst)
	}
}

func TestECNEchoRateLimited(t *testing.T) {
	n := deployECN(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	_ = n.Agent(src).SendData(dst, []byte("warm"))
	n.Run()
	_ = n.Agent(dst).SendData(src, []byte("warm-back"))
	n.Run()
	for i := 0; i < 60; i++ {
		_ = n.Agent(src).SendData(dst, make([]byte, 1000))
	}
	n.Run()
	st := n.Agent(dst).Stats()
	if st.CEReceived == 0 {
		t.Fatal("no CE marks")
	}
	if st.CongestionEchoes >= st.CEReceived {
		t.Fatalf("echoes (%d) not rate-limited below marks (%d)", st.CongestionEchoes, st.CEReceived)
	}
}

func TestECNChooserReroutesOnCongestion(t *testing.T) {
	n := deployECN(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	chooser := host.NewECNChooser(100*sim.Microsecond, nil)
	n.Agent(src).SetPolicy(chooser)
	_ = n.Agent(src).SendData(dst, []byte("warm"))
	n.Run()
	_ = n.Agent(dst).SendData(src, []byte("warm-back"))
	n.Run()

	// Record which spine carries traffic before congestion feedback, then
	// send saturating bursts with drain gaps so echoes come back between
	// rounds.
	before := [2]uint64{n.Fab.Switch(1).Stats().Forwarded, n.Fab.Switch(2).Stats().Forwarded}
	for round := 0; round < 5; round++ {
		for i := 0; i < 15; i++ {
			_ = n.Agent(src).SendData(dst, make([]byte, 1000))
		}
		n.Run()
	}
	if chooser.Epoch(dst) == 0 {
		t.Fatal("chooser never rerouted despite congestion notices")
	}
	after := [2]uint64{n.Fab.Switch(1).Stats().Forwarded, n.Fab.Switch(2).Stats().Forwarded}
	used := 0
	for i := range after {
		if after[i] > before[i] {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("traffic never moved to the second spine: before=%v after=%v", before, after)
	}
}

func TestECNChooserUnit(t *testing.T) {
	now := sim.Time(0)
	c := host.NewECNChooser(100*sim.Microsecond, func() sim.Time { return now })
	dst := packet.MACFromUint64(7)
	flow := host.FlowKey{Dst: dst}
	first := c.Choose(0, flow, 4)
	// Same epoch: stable.
	if c.Choose(0, flow, 4) != first {
		t.Fatal("unstable without congestion")
	}
	c.OnCongestion(dst)
	if c.Epoch(dst) != 1 {
		t.Fatalf("epoch = %d", c.Epoch(dst))
	}
	second := c.Choose(0, flow, 4)
	if second == first {
		t.Fatal("epoch bump did not move the path")
	}
	// Cooldown: a second notice right away is ignored.
	c.OnCongestion(dst)
	if c.Epoch(dst) != 1 {
		t.Fatal("cooldown not applied")
	}
	now += 200 * sim.Microsecond
	c.OnCongestion(dst)
	if c.Epoch(dst) != 2 {
		t.Fatal("epoch not bumped after cooldown")
	}
	// Single path: always 0.
	if c.Choose(0, flow, 1) != 0 {
		t.Fatal("single path must be 0")
	}
}

func TestCongestionControlRoundTrip(t *testing.T) {
	in := &packet.Congestion{Reporter: packet.MACFromUint64(5), Seq: 42}
	b, err := packet.EncodeControl(packet.MsgCongestion, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := packet.DecodeControl(b)
	if err != nil || typ != packet.MsgCongestion {
		t.Fatalf("decode: %v %v", typ, err)
	}
	if got := out.(*packet.Congestion); *got != *in {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestMarkCEHelpers(t *testing.T) {
	f := &packet.Frame{Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
		Tags: packet.Path{1}, InnerType: packet.EtherTypeIPv4, Payload: []byte("x")}
	buf, _ := f.Encode()
	if packet.HasCE(buf) {
		t.Fatal("fresh frame marked")
	}
	packet.MarkCE(buf)
	if !packet.HasCE(buf) {
		t.Fatal("mark did not stick")
	}
	// Mark survives a tag pop (constant offset shifts with the header).
	rest, _, err := packet.PopTag(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !packet.HasCE(rest) {
		t.Fatal("mark lost across a hop")
	}
	g, err := packet.Decode(rest)
	if err != nil || g.Flags&packet.FlagCE == 0 {
		t.Fatalf("decoded flags = %x, %v", g.Flags, err)
	}
	// No-ops on non-DumbNet frames.
	raw := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x00, 0, 0}
	packet.MarkCE(raw)
	if packet.HasCE(raw) {
		t.Fatal("marked a non-DumbNet frame")
	}
}
