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
