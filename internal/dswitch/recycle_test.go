package dswitch_test

import (
	"encoding/binary"
	"testing"

	"dumbnet/internal/dswitch"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// replySink checks every frame it receives is the switch's ID reply to
// probe seq 9, then returns it to the frame pool.
type replySink struct {
	t *testing.T
	n int
}

func (s *replySink) Receive(_ int, frame []byte) {
	s.n++
	decode := packet.Decode
	if dswitch.EtherTypeOf(frame) == packet.EtherTypeMPLS {
		decode = packet.DecodeMPLS
	}
	f, err := decode(frame)
	if err != nil {
		s.t.Errorf("undecodable reply: %v", err)
		return
	}
	typ, msg, err := packet.DecodeControl(f.Payload)
	if err != nil || typ != packet.MsgIDReply {
		s.t.Errorf("reply type %v err %v", typ, err)
	} else if rep := msg.(*packet.IDReply); rep.ID != 1 || rep.Seq != 9 {
		s.t.Errorf("reply = %+v", rep)
	}
	packet.PutBuffer(frame)
}

// A frame that ends at the switch — a spent link-event flood, an ID query in
// either encoding, and every frame the switch drops — goes back to the frame
// pool once the switch has read it. A run that draws the frame from the pool
// must cost what a run on a buffer too small for the pool costs (decoding
// the control message is all that allocates), so a frame the switch keeps
// shows as one extra allocation per run. Under -race the pool drops items at
// random, so only the replies are checked there: the race build poisons a
// released buffer, and the ID replies, written into buffers the drop rows
// released, would not decode if an encoder left any of that poison behind.
func TestConsumedFramesRecycled(t *testing.T) {
	eng := sim.NewEngine(1)
	lcfg := sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}
	sw := dswitch.New(eng, 1, 4, dswitch.DefaultConfig())
	sink := &replySink{t: t}
	sw.AttachLink(2, sim.NewLink(eng, sw, 2, sink, 1, lcfg))
	crashed := dswitch.New(eng, 2, 4, dswitch.DefaultConfig())
	crashed.Crash()
	dark := dswitch.New(eng, 3, 4, dswitch.DefaultConfig())
	down := sim.NewLink(eng, dark, 2, &replySink{t: t}, 1, lcfg)
	dark.AttachLink(2, down)
	down.Fail()
	eng.Run()

	encode := func(f packet.Frame, mpls bool) []byte {
		enc := f.Encode
		if mpls {
			enc = f.EncodeMPLS
		}
		b, err := enc()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	spent, err := packet.EncodeControl(packet.MsgLinkEvent, &packet.LinkEvent{Switch: 7, Port: 1, Seq: 1, HopsLeft: 0})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := packet.EncodeControl(packet.MsgProbe, &packet.Probe{Origin: packet.MACFromUint64(1), Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	query := packet.Frame{Dst: packet.BroadcastMAC, Src: packet.MACFromUint64(1),
		Tags: packet.Path{packet.TagIDQuery, 2}, InnerType: packet.EtherTypeControl, Payload: probe}
	data := func(tags packet.Path) packet.Frame {
		return packet.Frame{Dst: packet.MACFromUint64(2), Src: packet.MACFromUint64(1),
			Tags: tags, InnerType: packet.EtherTypeIPv4, Payload: []byte("data")}
	}
	notDumbNet := encode(data(packet.Path{2}), false)
	binary.BigEndian.PutUint16(notDumbNet[12:14], packet.EtherTypeIPv4)
	tree, err := packet.EncodeTree([]packet.TreeHop{{Port: 2}, {Port: 3}})
	if err != nil {
		t.Fatal(err)
	}
	badTree := make([]byte, packet.EncodedLenMcast(len(tree), 4))
	if _, err := packet.EncodeMcastTo(badTree, packet.McastMAC(1), packet.MACFromUint64(1), 0, tree, packet.EtherTypeIPv4, []byte("data")); err != nil {
		t.Fatal(err)
	}
	badTree[17] = 9 // branch count no longer tiles the tree region

	for _, tc := range []struct {
		name   string
		sw     *dswitch.Switch
		master []byte
		// dropped reads the counter a dropped frame must move, nil for
		// frames the switch consumes.
		dropped func(dswitch.Stats) uint64
	}{
		{"spent link event", sw, encode(packet.Frame{Dst: packet.BroadcastMAC, InnerType: packet.EtherTypeControl, Payload: spent}, false), nil},
		{"crashed switch", crashed, encode(data(packet.Path{2}), false), func(s dswitch.Stats) uint64 { return s.DropSwitchDown }},
		{"undecodable frame", sw, notDumbNet, func(s dswitch.Stats) uint64 { return s.DropBadFrame }},
		{"unwired port", sw, encode(data(packet.Path{3}), false), func(s dswitch.Stats) uint64 { return s.DropNoPort }},
		{"down link", dark, encode(data(packet.Path{2}), false), func(s dswitch.Stats) uint64 { return s.DropLinkDown }},
		{"malformed mcast tree", sw, badTree, func(s dswitch.Stats) uint64 { return s.DropBadMcast }},
		{"MPLS bottom label", sw, encode(data(nil), true), func(s dswitch.Stats) uint64 { return s.DropEndOfPath }},
		{"ID query", sw, encode(query, false), nil},
		{"MPLS ID query", sw, encode(query, true), nil},
	} {
		var before uint64
		if tc.dropped != nil {
			before = tc.dropped(tc.sw.Stats())
		}
		small := make([]byte, len(tc.master)) // below the pool's recycle size
		unpooled := func() {
			copy(small, tc.master)
			tc.sw.Receive(1, small)
			eng.Run()
		}
		pooled := func() {
			buf := packet.GetBuffer(len(tc.master))
			copy(buf, tc.master)
			tc.sw.Receive(1, buf)
			eng.Run()
		}
		pooled()
		base := testing.AllocsPerRun(200, unpooled)
		got := testing.AllocsPerRun(200, pooled)
		t.Logf("%s: %.1f allocations per pooled frame, %.1f per unpooled one", tc.name, got, base)
		if !raceEnabled && got != base {
			t.Errorf("%s: %.1f allocations per pooled frame, want %.1f: the switch kept the frame", tc.name, got, base)
		}
		if tc.dropped != nil {
			if n := tc.dropped(tc.sw.Stats()) - before; n != 1+2*201 {
				t.Errorf("%s: %d frames counted as dropped, want %d", tc.name, n, 1+2*201)
			}
		}
	}
	if want := 2 * (1 + 2*201); sink.n != want {
		t.Fatalf("%d ID replies, want %d", sink.n, want)
	}
}

// poolSink counts the frames it receives and returns each to the pool.
type poolSink struct{ n int }

func (s *poolSink) Receive(_ int, frame []byte) {
	s.n++
	packet.PutBuffer(frame)
}

// The learning switch returns every frame that goes no further to the frame
// pool once it has counted it: a short frame, one on a blocked port, one a
// control hook consumed, a failed MPLS pop and a send onto a missing, down
// or out-of-range port. A flood draws its copies from the pool and returns
// the original. As in TestConsumedFramesRecycled, a pooled run must cost
// what a run on a buffer too small for the pool costs, so a kept frame shows
// as one extra allocation per run.
func TestLearningFramesRecycled(t *testing.T) {
	eng := sim.NewEngine(1)
	lcfg := sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}
	sw := dswitch.NewLearning(eng, 1, 5, sim.Microsecond)
	sw.EnableMPLS()
	sinks := [2]*poolSink{{}, {}}
	for i, s := range sinks {
		sw.AttachLink(2+i, sim.NewLink(eng, sw, 2+i, s, 1, lcfg))
	}
	down := sim.NewLink(eng, sw, 4, &poolSink{}, 1, lcfg)
	sw.AttachLink(4, down)
	down.Fail()
	blocked := dswitch.NewLearning(eng, 2, 4, sim.Microsecond)
	blocked.SetBlocked(1, true)
	ctl := dswitch.NewLearning(eng, 3, 4, sim.Microsecond)
	ctl.SetControl(func(int, []byte) bool { return true })
	eng.Run()

	mpls := func(tags packet.Path) []byte {
		f := packet.Frame{Dst: packet.MACFromUint64(2), Src: packet.MACFromUint64(1),
			Tags: tags, InnerType: packet.EtherTypeIPv4, Payload: []byte("data")}
		b, err := f.EncodeMPLS()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	flood := rawFrame(packet.BroadcastMAC, packet.MACFromUint64(1), "data")
	dropped := func(s dswitch.LearningStats) uint64 { return s.Dropped }
	for _, tc := range []struct {
		name   string
		sw     *dswitch.LearningSwitch
		master []byte
		// counter reads the counter one run moves by per, nil when the
		// frame moves none.
		counter func(dswitch.LearningStats) uint64
		per     uint64
	}{
		{"short frame", sw, flood[:packet.EthernetHeaderLen-1], dropped, 1},
		{"blocked port", blocked, flood, dropped, 1},
		{"consumed control frame", ctl, flood, nil, 0},
		{"MPLS bottom label", sw, mpls(nil), dropped, 1},
		{"MPLS label to an unwired port", sw, mpls(packet.Path{5}), dropped, 1},
		{"MPLS label to a down port", sw, mpls(packet.Path{4}), dropped, 1},
		{"MPLS label past the last port", sw, mpls(packet.Path{200}), dropped, 1},
		{"flood", sw, flood, func(s dswitch.LearningStats) uint64 { return s.Flooded }, 2},
	} {
		var before uint64
		if tc.counter != nil {
			before = tc.counter(tc.sw.Stats())
		}
		small := make([]byte, len(tc.master)) // below the pool's recycle size
		unpooled := func() {
			copy(small, tc.master)
			tc.sw.Receive(1, small)
			eng.Run()
		}
		pooled := func() {
			buf := packet.GetBuffer(len(tc.master))
			copy(buf, tc.master)
			tc.sw.Receive(1, buf)
			eng.Run()
		}
		pooled()
		base := testing.AllocsPerRun(200, unpooled)
		got := testing.AllocsPerRun(200, pooled)
		t.Logf("%s: %.1f allocations per pooled frame, %.1f per unpooled one", tc.name, got, base)
		if !raceEnabled && got != base {
			t.Errorf("%s: %.1f allocations per pooled frame, want %.1f: the switch kept the frame", tc.name, got, base)
		}
		if tc.counter != nil {
			if n := tc.counter(tc.sw.Stats()) - before; n != tc.per*(1+2*201) {
				t.Errorf("%s: counter moved by %d, want %d", tc.name, n, tc.per*(1+2*201))
			}
		}
	}
	if want := 1 + 2*201; sinks[0].n != want || sinks[1].n != want {
		t.Fatalf("sinks got %d and %d flooded frames, want %d each", sinks[0].n, sinks[1].n, want)
	}
}
