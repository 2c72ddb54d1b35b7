package dswitch_test

import (
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
// either encoding — goes back to the frame pool once the switch has read it. A run that draws
// the frame from the pool must cost what a run on a buffer too small for the
// pool costs (decoding the control message is all that allocates), so a
// frame the switch keeps shows as one extra allocation per run. Under -race
// the pool drops items at random, so only the replies are checked there:
// the race build poisons a released buffer, and a reply written from a
// released query would not decode.
func TestConsumedFramesRecycled(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := dswitch.New(eng, 1, 4, dswitch.DefaultConfig())
	sink := &replySink{t: t}
	sw.AttachLink(2, sim.NewLink(eng, sw, 2, sink, 1, sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}))

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
	for _, tc := range []struct {
		name string
		f    packet.Frame
		mpls bool
	}{
		{"spent link event", packet.Frame{Dst: packet.BroadcastMAC, InnerType: packet.EtherTypeControl, Payload: spent}, false},
		{"ID query", query, false},
		{"MPLS ID query", query, true},
	} {
		encode := tc.f.Encode
		if tc.mpls {
			encode = tc.f.EncodeMPLS
		}
		master, err := encode()
		if err != nil {
			t.Fatal(err)
		}
		small := make([]byte, len(master)) // below the pool's recycle size
		unpooled := func() {
			copy(small, master)
			sw.Receive(1, small)
			eng.Run()
		}
		pooled := func() {
			buf := packet.GetBuffer(len(master))
			copy(buf, master)
			sw.Receive(1, buf)
			eng.Run()
		}
		pooled()
		base := testing.AllocsPerRun(200, unpooled)
		got := testing.AllocsPerRun(200, pooled)
		t.Logf("%s: %.1f allocations per pooled frame, %.1f per unpooled one", tc.name, got, base)
		if !raceEnabled && got != base {
			t.Errorf("%s: %.1f allocations per pooled frame, want %.1f: the switch kept the frame", tc.name, got, base)
		}
	}
	if want := 2 * (1 + 2*201); sink.n != want {
		t.Fatalf("%d ID replies, want %d", sink.n, want)
	}
}
