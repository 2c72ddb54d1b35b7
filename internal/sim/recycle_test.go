package sim

import (
	"bytes"
	"testing"

	"dumbnet/internal/packet"
)

// endNode is a link end that keeps nothing and monitors no port, so flipping
// a link between two of them schedules no events.
type endNode struct{}

func (*endNode) Receive(int, []byte) {}

// echoSink checks every frame it receives equals want, then returns it to
// the frame pool.
type echoSink struct {
	t    *testing.T
	want []byte
	n    int
}

func (s *echoSink) Receive(_ int, frame []byte) {
	s.n++
	if !bytes.Equal(frame, s.want) {
		s.t.Errorf("delivered frame %x, want %x", frame, s.want)
	}
	packet.PutBuffer(frame)
}

// A frame a link drops — sent onto a down link, lost to impairment, refused
// by a full queue, or on the wire when the far end went down — goes back to
// the frame pool: SendFrom handed it to the link. A run that draws the frame
// from the pool must cost what a run on a buffer too small for the pool
// costs, so a dropped frame the link leaves to the collector shows as one
// extra allocation per run. Under -race the pool drops items at random, so
// only the deliveries are checked there: the race build poisons a released
// buffer, and the frames encoded afterwards into buffers the drops released
// must arrive intact.
func TestDroppedFramesRecycled(t *testing.T) {
	f := packet.Frame{Dst: packet.MACFromUint64(2), Src: packet.MACFromUint64(1),
		Tags: packet.Path{2, 3}, InnerType: packet.EtherTypeIPv4, Payload: []byte("data")}
	master, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(1)
	a, b := &endNode{}, &endNode{}
	downed := NewLink(eng, a, 1, b, 1, LinkConfig{})
	downed.Fail()
	lossy := NewLink(eng, a, 1, b, 1, LinkConfig{})
	lossy.Impair(Impairment{LossProb: 1})
	// 1 kB at 1 Mb/s keeps the queue busy for 8 ms, far past MaxBacklog;
	// the engine does not run until that row is done.
	full := NewLink(eng, a, 1, b, 1, LinkConfig{BandwidthBps: 1e6, MaxBacklog: Nanosecond})
	full.SendFrom(a, make([]byte, 1000))
	flight := NewLink(eng, a, 1, b, 1, LinkConfig{PropDelay: Microsecond})

	for _, tc := range []struct {
		name string
		send func(frame []byte)
		lost func() uint64
	}{
		{"down link", func(fr []byte) { downed.SendFrom(a, fr) }, func() uint64 { return downed.StatsFrom(true).DownTx }},
		{"impairment loss", func(fr []byte) { lossy.SendFrom(a, fr) }, func() uint64 { return lossy.StatsFrom(true).ImpairLost }},
		{"queue overflow", func(fr []byte) { full.SendFrom(a, fr) }, func() uint64 { return full.StatsFrom(true).Drops }},
		{"lost in flight", func(fr []byte) {
			flight.SetUp(true)
			flight.SendFrom(a, fr)
			flight.SetUp(false)
			eng.Run()
		}, func() uint64 { return flight.StatsFrom(true).LostInFlight }},
	} {
		before := tc.lost()
		small := make([]byte, len(master)) // below the pool's recycle size
		unpooled := func() {
			copy(small, master)
			tc.send(small)
		}
		pooled := func() {
			buf := packet.GetBuffer(len(master))
			copy(buf, master)
			tc.send(buf)
		}
		pooled()
		base := testing.AllocsPerRun(200, unpooled)
		got := testing.AllocsPerRun(200, pooled)
		t.Logf("%s: %.1f allocations per pooled frame, %.1f per unpooled one", tc.name, got, base)
		if !raceEnabled && got != base {
			t.Errorf("%s: %.1f allocations per pooled frame, want %.1f: the link kept the frame", tc.name, got, base)
		}
		if n := tc.lost() - before; n != 1+2*201 {
			t.Errorf("%s: %d frames counted as lost, want %d", tc.name, n, 1+2*201)
		}
	}

	sink := &echoSink{t: t, want: master}
	clean := NewLink(eng, a, 1, sink, 1, LinkConfig{PropDelay: Microsecond})
	const sends = 64
	for i := 0; i < sends; i++ {
		buf := packet.GetBuffer(len(master))
		if _, err := f.EncodeTo(buf); err != nil {
			t.Fatal(err)
		}
		clean.SendFrom(a, buf)
		eng.Run()
	}
	if sink.n != sends {
		t.Fatalf("%d frames delivered, want %d", sink.n, sends)
	}
}
