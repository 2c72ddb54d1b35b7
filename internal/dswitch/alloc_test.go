package dswitch_test

import (
	"testing"

	"dumbnet/internal/dswitch"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/trace"
)

// countSink is a sim.Node that counts deliveries without retaining frames,
// so it contributes no allocations of its own to the measured path.
type countSink struct{ n int }

func (s *countSink) Receive(int, []byte) { s.n++ }

// forwardHop wires host -> switch -> host across one switch and returns a
// closure that replays a single tagged data frame through it.
func forwardHop(tb testing.TB, rec *trace.Recorder) (send func(), delivered *int) {
	tb.Helper()
	eng := sim.NewEngine(1)
	if rec != nil {
		eng.SetTracer(rec)
	}
	sw := dswitch.New(eng, 1, 4, dswitch.DefaultConfig())
	src, dst := &countSink{}, &countSink{}
	lcfg := sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}
	up := sim.NewLink(eng, src, 1, sw, 1, lcfg)
	sw.AttachLink(1, up)
	down := sim.NewLink(eng, sw, 2, dst, 1, lcfg)
	sw.AttachLink(2, down)
	f := &packet.Frame{
		Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
		Tags: packet.Path{2}, InnerType: packet.EtherTypeIPv4,
		Payload: make([]byte, 1450),
	}
	master, err := f.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, len(master))
	return func() {
		copy(buf, master)
		up.SendFrom(src, buf)
		eng.Run()
	}, &dst.n
}

// TestForwardPathAllocFree locks in the flight-recorder overhead contract:
// the switch forwarding path performs zero heap allocations whether tracing
// is disabled or every flow is sampled (the recorder writes hop records into
// a preallocated ring).
func TestForwardPathAllocFree(t *testing.T) {
	send, delivered := forwardHop(t, nil)
	send() // warm event pools
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("forward path with tracing disabled allocated %.1f/op, want 0", allocs)
	}
	if *delivered == 0 {
		t.Fatal("sink never received a frame — benchmark harness is broken")
	}

	rec := trace.NewRecorder(trace.DefaultConfig())
	send, delivered = forwardHop(t, rec)
	send()
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("forward path with full sampling allocated %.1f/op, want 0", allocs)
	}
	if *delivered == 0 {
		t.Fatal("traced sink never received a frame")
	}
	if rec.Total() == 0 {
		t.Fatal("recorder captured no hop records despite SampleMod=1")
	}
}

// The traced/untraced pair makes flight-recorder overhead visible in the
// ordinary `go test -bench` output; bench/ times the untraced hop as
// dswitch.forward_ns.
func BenchmarkSwitchForwardUntraced(b *testing.B) {
	send, _ := forwardHop(b, nil)
	send()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

func BenchmarkSwitchForwardTraced(b *testing.B) {
	send, _ := forwardHop(b, trace.NewRecorder(trace.DefaultConfig()))
	send()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
