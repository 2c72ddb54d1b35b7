package dswitch_test

import (
	"testing"

	"dumbnet/internal/dswitch"
	"dumbnet/internal/fabric"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// testHost is a minimal sim.Node collecting everything it receives.
type testHost struct {
	frames [][]byte
	link   *sim.Link
}

func (h *testHost) Receive(port int, frame []byte) { h.frames = append(h.frames, frame) }

func (h *testHost) send(frame []byte) { h.link.SendFrom(h, frame) }

// decode returns the i-th received frame parsed as a DumbNet frame.
func (h *testHost) decode(t *testing.T, i int) *packet.Frame {
	t.Helper()
	f, err := packet.Decode(h.frames[i])
	if err != nil {
		t.Fatalf("decode frame %d: %v", i, err)
	}
	return f
}

// buildLine wires a 3-switch line fabric with hosts on both ends.
func buildLine(t *testing.T) (*sim.Engine, *fabric.Fabric, *testHost, *testHost, packet.MAC, packet.MAC) {
	t.Helper()
	eng := sim.NewEngine(1)
	tp, err := topo.Line(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fabric.Build(eng, tp, fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	h1, h2 := &testHost{}, &testHost{}
	m1, m2 := hosts[0].Host, hosts[1].Host
	if h1.link, err = fb.AttachHost(m1, h1); err != nil {
		t.Fatal(err)
	}
	if h2.link, err = fb.AttachHost(m2, h2); err != nil {
		t.Fatal(err)
	}
	return eng, fb, h1, h2, m1, m2
}

func TestTagForwardingAcrossFabric(t *testing.T) {
	eng, fb, h1, h2, m1, m2 := buildLine(t)
	// Path: sw1 port2 -> sw2 port2 -> sw3 port3 (host h2).
	f := &packet.Frame{
		Dst: m2, Src: m1,
		Tags:      packet.Path{2, 2, 3},
		InnerType: packet.EtherTypeIPv4,
		Payload:   []byte("data"),
	}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h1.send(buf)
	eng.Run()
	if len(h2.frames) != 1 {
		t.Fatalf("h2 received %d frames", len(h2.frames))
	}
	got := h2.decode(t, 0)
	if len(got.Tags) != 0 {
		t.Fatalf("tags not fully consumed: %v", got.Tags)
	}
	if string(got.Payload) != "data" || got.Dst != m2 || got.Src != m1 {
		t.Fatalf("frame corrupted: %+v", got)
	}
	// Every switch on the path forwarded exactly once.
	for _, id := range []packet.SwitchID{1, 2, 3} {
		if fwd := fb.Switch(id).Stats().Forwarded; fwd != 1 {
			t.Fatalf("switch %d forwarded %d", id, fwd)
		}
	}
}

func TestForwardToDeadPortDrops(t *testing.T) {
	eng, fb, h1, h2, m1, m2 := buildLine(t)
	f := &packet.Frame{Dst: m2, Src: m1, Tags: packet.Path{4}, InnerType: packet.EtherTypeIPv4}
	buf, _ := f.Encode()
	h1.send(buf)
	eng.Run()
	if len(h2.frames) != 0 {
		t.Fatal("frame delivered via dead port")
	}
	if fb.Switch(1).Stats().DropNoPort != 1 {
		t.Fatalf("stats = %+v", fb.Switch(1).Stats())
	}
}

func TestForwardOverDownLinkDrops(t *testing.T) {
	eng, fb, h1, h2, m1, m2 := buildLine(t)
	if err := fb.FailLink(2, 3); err != nil {
		t.Fatal(err)
	}
	eng.Run() // settle port-state events
	f := &packet.Frame{Dst: m2, Src: m1, Tags: packet.Path{2, 2, 3}, InnerType: packet.EtherTypeIPv4}
	buf, _ := f.Encode()
	h1.send(buf)
	eng.Run()
	for i := range h2.frames {
		if got, err := packet.Decode(h2.frames[i]); err == nil && got.InnerType == packet.EtherTypeIPv4 {
			t.Fatal("data frame crossed a failed link")
		}
	}
	if fb.Switch(2).Stats().DropLinkDown != 1 {
		t.Fatalf("switch2 stats = %+v", fb.Switch(2).Stats())
	}
}

func TestIDQueryReply(t *testing.T) {
	eng, _, h1, _, m1, _ := buildLine(t)
	// 0-9-ø bounces off the local switch... our host port on switch 1 is 3.
	// Query switch 1: tags [0, 3]; reply comes back out port 3 with ø.
	body, _ := packet.EncodeControl(packet.MsgProbe, &packet.Probe{Origin: m1, Seq: 77, Path: packet.Path{0, 3}})
	f := &packet.Frame{
		Dst: packet.BroadcastMAC, Src: m1,
		Tags:      packet.Path{0, 3},
		InnerType: packet.EtherTypeControl,
		Payload:   body,
	}
	buf, _ := f.Encode()
	h1.send(buf)
	eng.Run()
	if len(h1.frames) != 1 {
		t.Fatalf("received %d frames", len(h1.frames))
	}
	got := h1.decode(t, 0)
	typ, msg, err := packet.DecodeControl(got.Payload)
	if err != nil || typ != packet.MsgIDReply {
		t.Fatalf("reply type %v err %v", typ, err)
	}
	rep := msg.(*packet.IDReply)
	if rep.ID != 1 || rep.Seq != 77 {
		t.Fatalf("reply = %+v", rep)
	}
}

// TestIDQueryStatsBothEncodings: a stats request gets the counter snapshot
// back in the encoding it was sent in, MPLS as well as native.
func TestIDQueryStatsBothEncodings(t *testing.T) {
	for _, mpls := range []bool{false, true} {
		eng, _, h1, _, m1, _ := buildLine(t)
		body, _ := packet.EncodeControl(packet.MsgStatsRequest, &packet.StatsRequest{Origin: m1, Seq: 5})
		f := &packet.Frame{Dst: packet.BroadcastMAC, Src: m1, Tags: packet.Path{0, 3}, InnerType: packet.EtherTypeControl, Payload: body}
		encode, decode := f.Encode, packet.Decode
		if mpls {
			encode, decode = f.EncodeMPLS, packet.DecodeMPLS
		}
		buf, _ := encode()
		h1.send(buf)
		eng.Run()
		if len(h1.frames) != 1 {
			t.Fatalf("mpls=%v: received %d frames", mpls, len(h1.frames))
		}
		got, err := decode(h1.frames[0])
		if err != nil {
			t.Fatalf("mpls=%v: decode reply: %v", mpls, err)
		}
		typ, msg, err := packet.DecodeControl(got.Payload)
		if err != nil || typ != packet.MsgStatsReply {
			t.Fatalf("mpls=%v: reply type %v err %v", mpls, typ, err)
		}
		if rep := msg.(*packet.StatsReply); rep.ID != 1 || rep.Seq != 5 {
			t.Fatalf("mpls=%v: reply = %+v", mpls, rep)
		}
	}
}

func TestIDQueryMultiHop(t *testing.T) {
	eng, _, h1, _, m1, _ := buildLine(t)
	// Query switch 2 from h1: out port 2 to sw2, query, return path 1-3:
	// tags [2, 0, 1, 3]: sw1 forwards via port2; sw2 sees 0, replies along
	// 1-3: out its port1 to sw1, which forwards out port 3 to h1.
	body, _ := packet.EncodeControl(packet.MsgProbe, &packet.Probe{Origin: m1, Seq: 5, Path: packet.Path{2, 0, 1, 3}})
	f := &packet.Frame{
		Dst: packet.BroadcastMAC, Src: m1,
		Tags:      packet.Path{2, 0, 1, 3},
		InnerType: packet.EtherTypeControl,
		Payload:   body,
	}
	buf, _ := f.Encode()
	h1.send(buf)
	eng.Run()
	if len(h1.frames) != 1 {
		t.Fatalf("received %d frames", len(h1.frames))
	}
	got := h1.decode(t, 0)
	_, msg, err := packet.DecodeControl(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep := msg.(*packet.IDReply); rep.ID != 2 || rep.Seq != 5 {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestLinkFailureBroadcastReachesHosts(t *testing.T) {
	eng, fb, h1, h2, _, _ := buildLine(t)
	if err := fb.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Both hosts must hear at least one link-event (from their switch side).
	check := func(name string, h *testHost, wantSwitches []packet.SwitchID) {
		found := map[packet.SwitchID]bool{}
		for i := range h.frames {
			got, err := packet.Decode(h.frames[i])
			if err != nil || got.InnerType != packet.EtherTypeControl {
				continue
			}
			typ, msg, err := packet.DecodeControl(got.Payload)
			if err != nil || typ != packet.MsgLinkEvent {
				continue
			}
			ev := msg.(*packet.LinkEvent)
			if ev.Up {
				t.Fatalf("%s: unexpected up event", name)
			}
			found[ev.Switch] = true
		}
		for _, sw := range wantSwitches {
			if !found[sw] {
				t.Fatalf("%s: no link event from switch %d (got %v)", name, sw, found)
			}
		}
	}
	// Both endpoints of the failed link observe the failure and flood, but
	// the floods cannot cross the dead link itself: each host hears the
	// alarm from its own side of the cut.
	check("h1", h1, []packet.SwitchID{1})
	check("h2", h2, []packet.SwitchID{2})
}

func TestAlarmSuppression(t *testing.T) {
	eng, fb, h1, _, _, _ := buildLine(t)
	l, err := fb.LinkBetween(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Flap the link rapidly: down, up, down within the suppression window.
	l.Fail()
	eng.RunFor(10 * sim.Millisecond)
	l.Restore()
	eng.RunFor(10 * sim.Millisecond)
	l.Fail()
	eng.Run()
	st := fb.Switch(1).Stats()
	if st.AlarmsSent != 1 {
		t.Fatalf("alarms sent = %d, want 1 (suppressed flapping)", st.AlarmsSent)
	}
	if st.AlarmsSquelch != 2 {
		t.Fatalf("squelched = %d, want 2", st.AlarmsSquelch)
	}
	// After the suppression window, a new alarm goes out.
	eng.RunFor(2 * sim.Second)
	l.Restore()
	eng.Run()
	if got := fb.Switch(1).Stats().AlarmsSent; got != 2 {
		t.Fatalf("alarms after window = %d, want 2", got)
	}
	_ = h1
}

func TestFloodHopLimit(t *testing.T) {
	// A 10-switch line with hop limit 5: hosts at the far end must NOT
	// hear the alarm from switch 1 (switch-based flood reaches only 5
	// hops; beyond that, host flooding takes over in the full system).
	eng := sim.NewEngine(1)
	tp, _ := topo.Line(10, 4)
	cfg := fabric.DefaultConfig()
	fb, err := fabric.Build(eng, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	hFar := &testHost{}
	if hFar.link, err = fb.AttachHost(hosts[1].Host, hFar); err != nil { // host on switch 10
		t.Fatal(err)
	}
	if err := fb.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := range hFar.frames {
		got, err := packet.Decode(hFar.frames[i])
		if err != nil {
			continue
		}
		typ, _, _ := packet.DecodeControl(got.Payload)
		if typ == packet.MsgLinkEvent {
			t.Fatal("alarm crossed more than the hop limit")
		}
	}
	// But switches within the limit did see floods.
	if fb.Switch(3).Stats().FloodsIn == 0 {
		t.Fatal("switch 3 should have seen the flood")
	}
}

func TestEndOfPathDataFrameDropped(t *testing.T) {
	eng, fb, h1, _, m1, m2 := buildLine(t)
	// A data frame whose path ends at a switch (empty tags).
	f := &packet.Frame{Dst: m2, Src: m1, Tags: nil, InnerType: packet.EtherTypeIPv4, Payload: []byte("x")}
	buf, _ := f.Encode()
	h1.send(buf)
	eng.Run()
	if fb.Switch(1).Stats().DropEndOfPath != 1 {
		t.Fatalf("stats = %+v", fb.Switch(1).Stats())
	}
	_ = h1
}

func TestSwitchStatelessness(t *testing.T) {
	// Forwarding the same frame twice must behave identically: the switch
	// keeps no state that could change its behaviour.
	eng, fb, h1, h2, m1, m2 := buildLine(t)
	for i := 0; i < 5; i++ {
		f := &packet.Frame{Dst: m2, Src: m1, Tags: packet.Path{2, 2, 3}, InnerType: packet.EtherTypeIPv4}
		buf, _ := f.Encode()
		h1.send(buf)
	}
	eng.Run()
	if len(h2.frames) != 5 {
		t.Fatalf("delivered %d of 5", len(h2.frames))
	}
	if fb.Switch(2).Stats().Forwarded != 5 {
		t.Fatalf("forwarded = %d", fb.Switch(2).Stats().Forwarded)
	}
}

func TestSwitchAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := dswitch.New(eng, 42, 8, dswitch.DefaultConfig())
	if sw.ID() != 42 || sw.Ports() != 8 {
		t.Fatalf("id=%d ports=%d", sw.ID(), sw.Ports())
	}
	if sw.LinkAt(0) != nil || sw.LinkAt(9) != nil || sw.LinkAt(3) != nil {
		t.Fatal("unwired ports should return nil")
	}
}

func TestTrailingAlarmAdvertisesFinalState(t *testing.T) {
	eng, fb, h1, _, _, _ := buildLine(t)
	l, err := fb.LinkBetween(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Down alarm opens the window; the restore inside it is deferred, not
	// dropped: at window expiry a trailing alarm must advertise "up".
	l.Fail()
	eng.RunFor(10 * sim.Millisecond)
	l.Restore()
	eng.RunFor(5 * sim.Second)
	st := fb.Switch(1).Stats()
	if st.AlarmsSent != 2 {
		t.Fatalf("alarms sent = %d, want 2 (down + trailing up)", st.AlarmsSent)
	}
	// The host behind switch 1 must have heard the final up event.
	var sawUp bool
	for i := range h1.frames {
		f, err := packet.Decode(h1.frames[i])
		if err != nil {
			continue
		}
		typ, msg, err := packet.DecodeControl(f.Payload)
		if err != nil || typ != packet.MsgLinkEvent {
			continue
		}
		if ev := msg.(*packet.LinkEvent); ev.Switch == 1 && ev.Up {
			sawUp = true
		}
	}
	if !sawUp {
		t.Fatal("trailing up alarm never reached the host")
	}
}

func TestSwitchCrashAndRestart(t *testing.T) {
	eng, fb, h1, h2, m1, m2 := buildLine(t)
	mid := fb.Switch(2)
	mid.Crash()
	if !mid.Down() {
		t.Fatal("switch not down after Crash")
	}
	eng.RunFor(100 * sim.Millisecond)
	// Neighbours observed the dark ports and alarmed.
	if fb.Switch(1).Stats().AlarmsSent == 0 || fb.Switch(3).Stats().AlarmsSent == 0 {
		t.Fatal("neighbours did not alarm on switch crash")
	}
	// Frames through the dead switch die (on the downed link, before it).
	f := &packet.Frame{Dst: m2, Src: m1, Tags: packet.Path{2, 2, 3},
		InnerType: packet.EtherTypeIPv4, Payload: []byte("x")}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h1.send(buf)
	eng.Run()
	countData := func() int {
		n := 0
		for i := range h2.frames {
			if fr, err := packet.Decode(h2.frames[i]); err == nil && fr.InnerType == packet.EtherTypeIPv4 {
				n++
			}
		}
		return n
	}
	if countData() != 0 {
		t.Fatal("frame crossed a crashed switch")
	}
	// Restart: links come back, forwarding resumes after the suppression
	// window lets the up alarms through.
	mid.Restart()
	eng.RunFor(2 * sim.Second)
	buf, err = f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h1.send(buf)
	eng.Run()
	if got := countData(); got != 1 {
		t.Fatalf("after restart h2 got %d data frames, want 1", got)
	}
}

func TestCrashedSwitchDropsAndCounts(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := dswitch.New(eng, 9, 4, dswitch.DefaultConfig())
	sw.Crash()
	sw.Receive(1, []byte{1, 2, 3})
	if sw.Stats().DropSwitchDown != 1 {
		t.Fatalf("stats = %+v", sw.Stats())
	}
	sw.Restart()
	if sw.Down() {
		t.Fatal("still down after Restart")
	}
}
