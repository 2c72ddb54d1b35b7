package sim

import "testing"

// The engine event loop is the substrate under every Fig 9/10 number; these
// benches guard its ns/op and, above all, its allocs/op (expected: zero).

func BenchmarkEngineAfterStep(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(10, fn)
		e.Step()
	}
}

// BenchmarkEngineEventChurn keeps a standing population of future events so
// heap sifts actually move elements, the worst case for the scheduler.
func BenchmarkEngineEventChurn(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i)*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Microsecond, fn)
		e.Step()
	}
}

func BenchmarkEngineAfterEventStep(b *testing.B) {
	e := NewEngine(1)
	h := &countingHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterEvent(10, h)
		e.Step()
	}
}

type benchSink struct{}

func (*benchSink) Receive(int, []byte) {}

// BenchmarkLinkForward measures one full link traversal: serialization,
// propagation, recycled delivery event, receive.
func BenchmarkLinkForward(b *testing.B) {
	e := NewEngine(1)
	a := &benchSink{}
	c := &benchSink{}
	l := NewLink(e, a, 1, c, 1, LinkConfig{PropDelay: Microsecond, BandwidthBps: 10e9})
	frame := make([]byte, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SendFrom(a, frame)
		e.Run()
	}
}
