package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %d", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.After(10, func() {
		times = append(times, e.Now())
		e.After(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		e.At(50, func() {
			if e.Now() != 100 {
				t.Errorf("past event ran at %d", e.Now())
			}
		})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %d", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.RunFor(15)
	if ran != 3 || e.Now() != 35 {
		t.Fatalf("ran=%d now=%d", ran, e.Now())
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Duration() != time.Second {
		t.Fatal("Second mismatch")
	}
	if (2 * Millisecond).Seconds() != 0.002 {
		t.Fatal("Seconds mismatch")
	}
	if FromDuration(3*time.Microsecond) != 3*Microsecond {
		t.Fatal("FromDuration mismatch")
	}
}

// collector is a test Node recording deliveries.
type collector struct {
	frames [][]byte
	ports  []int
	times  []Time
	eng    *Engine
	states []bool
}

func (c *collector) Receive(port int, frame []byte) {
	c.ports = append(c.ports, port)
	c.frames = append(c.frames, frame)
	if c.eng != nil {
		c.times = append(c.times, c.eng.Now())
	}
}

func (c *collector) PortStateChanged(port int, up bool) {
	c.states = append(c.states, up)
}

func TestLinkDelivery(t *testing.T) {
	e := NewEngine(1)
	a := &collector{eng: e}
	b := &collector{eng: e}
	l := NewLink(e, a, 1, b, 2, LinkConfig{PropDelay: 10 * Microsecond})
	l.SendFrom(a, []byte("hello"))
	e.Run()
	if len(b.frames) != 1 || string(b.frames[0]) != "hello" || b.ports[0] != 2 {
		t.Fatalf("delivery = %v %v", b.frames, b.ports)
	}
	if b.times[0] != 10*Microsecond {
		t.Fatalf("delivered at %d", b.times[0])
	}
	if len(a.frames) != 0 {
		t.Fatal("sender received its own frame")
	}
	st := l.StatsFrom(true)
	if st.Frames != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLinkBidirectional(t *testing.T) {
	e := NewEngine(1)
	a := &collector{}
	b := &collector{}
	l := NewLink(e, a, 1, b, 1, LinkConfig{})
	l.SendFrom(b, []byte("to-a"))
	e.Run()
	if len(a.frames) != 1 || string(a.frames[0]) != "to-a" {
		t.Fatalf("a got %v", a.frames)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	e := NewEngine(1)
	a := &collector{}
	b := &collector{eng: e}
	// 8 Mbps: a 1000-byte frame takes 1 ms to serialize.
	l := NewLink(e, a, 1, b, 1, LinkConfig{BandwidthBps: 8e6})
	l.SendFrom(a, make([]byte, 1000))
	l.SendFrom(a, make([]byte, 1000))
	e.Run()
	if len(b.times) != 2 {
		t.Fatalf("deliveries = %d", len(b.times))
	}
	if b.times[0] != Millisecond || b.times[1] != 2*Millisecond {
		t.Fatalf("times = %v", b.times)
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	e := NewEngine(1)
	a := &collector{}
	b := &collector{}
	// 8 Mbps, 1 KB frames = 1 ms each; backlog cap 3 ms.
	l := NewLink(e, a, 1, b, 1, LinkConfig{BandwidthBps: 8e6, MaxBacklog: 3 * Millisecond})
	for i := 0; i < 10; i++ {
		l.SendFrom(a, make([]byte, 1000))
	}
	e.Run()
	st := l.StatsFrom(true)
	if st.Drops == 0 {
		t.Fatal("expected drops")
	}
	if int(st.Frames)+int(st.Drops) != 10 {
		t.Fatalf("frames %d + drops %d != 10", st.Frames, st.Drops)
	}
	if len(b.frames) != int(st.Frames) {
		t.Fatalf("delivered %d, sent %d", len(b.frames), st.Frames)
	}
}

func TestLinkFailure(t *testing.T) {
	e := NewEngine(1)
	a := &collector{}
	b := &collector{}
	l := NewLink(e, a, 1, b, 1, LinkConfig{})
	l.Fail()
	e.Run()
	// Both port monitors must observe the down event.
	if len(a.states) != 1 || a.states[0] != false {
		t.Fatalf("a states = %v", a.states)
	}
	if len(b.states) != 1 || b.states[0] != false {
		t.Fatalf("b states = %v", b.states)
	}
	l.SendFrom(a, []byte("lost"))
	e.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame delivered over a dead link")
	}
	if l.StatsFrom(true).DownTx != 1 {
		t.Fatalf("downtx = %d", l.StatsFrom(true).DownTx)
	}
	l.Restore()
	e.Run()
	if len(a.states) != 2 || a.states[1] != true {
		t.Fatalf("a states after restore = %v", a.states)
	}
	if !l.Up() {
		t.Fatal("link should be up")
	}
}

func TestLinkFailureMidFlight(t *testing.T) {
	e := NewEngine(1)
	a := &collector{}
	b := &collector{}
	l := NewLink(e, a, 1, b, 1, LinkConfig{PropDelay: 10 * Millisecond})
	l.SendFrom(a, []byte("in-flight"))
	e.After(Millisecond, func() { l.Fail() })
	e.Run()
	if len(b.frames) != 0 {
		t.Fatal("in-flight frame survived link failure")
	}
	if n := l.StatsFrom(true).LostInFlight; n != 1 {
		t.Fatalf("LostInFlight = %d, want 1", n)
	}
	if n := l.StatsFrom(false).LostInFlight; n != 0 {
		t.Fatalf("reverse-direction LostInFlight = %d, want 0", n)
	}
}

func TestLinkDuplicateSetUpNoNotify(t *testing.T) {
	e := NewEngine(1)
	a := &collector{}
	b := &collector{}
	l := NewLink(e, a, 1, b, 1, LinkConfig{})
	l.SetUp(true) // already up
	e.Run()
	if len(a.states) != 0 {
		t.Fatal("redundant SetUp should not notify")
	}
}

// Property: N frames sent back-to-back on an idle link are delivered in
// order, each exactly serialization+propagation after the previous start.
func TestLinkOrderingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		e := NewEngine(1)
		a := &collector{}
		b := &collector{eng: e}
		l := NewLink(e, a, 1, b, 1, LinkConfig{BandwidthBps: 1e9, PropDelay: Microsecond, MaxBacklog: Second})
		total := 0
		for _, s := range sizes {
			n := int(s%1400) + 1
			total += n
			l.SendFrom(a, make([]byte, n))
		}
		e.Run()
		if len(b.frames) != len(sizes) {
			return false
		}
		for i := 1; i < len(b.times); i++ {
			if b.times[i] <= b.times[i-1] {
				return false
			}
		}
		return int(l.StatsFrom(true).Bytes) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkImpairmentLoss(t *testing.T) {
	e := NewEngine(7)
	a := &collector{}
	b := &collector{eng: e}
	l := NewLink(e, a, 1, b, 1, LinkConfig{})
	l.Impair(Impairment{LossProb: 0.5})
	const n = 1000
	for i := 0; i < n; i++ {
		l.SendFrom(a, []byte{byte(i)})
	}
	e.Run()
	st := l.StatsFrom(true)
	if st.ImpairLost == 0 || int(st.ImpairLost)+len(b.frames) != n {
		t.Fatalf("lost=%d delivered=%d", st.ImpairLost, len(b.frames))
	}
	if st.ImpairLost < n/4 || st.ImpairLost > 3*n/4 {
		t.Fatalf("loss far from 50%%: %d/%d", st.ImpairLost, n)
	}
	// Clearing the impairment restores lossless delivery.
	l.Impair(Impairment{})
	got := len(b.frames)
	for i := 0; i < 10; i++ {
		l.SendFrom(a, []byte{1})
	}
	e.Run()
	if len(b.frames) != got+10 {
		t.Fatalf("clean link dropped frames: %d -> %d", got, len(b.frames))
	}
}

func TestLinkImpairmentDeterministic(t *testing.T) {
	run := func() (uint64, int) {
		e := NewEngine(42)
		a := &collector{}
		b := &collector{eng: e}
		l := NewLink(e, a, 1, b, 1, LinkConfig{})
		l.Impair(Impairment{LossProb: 0.3, CorruptProb: 0.2, JitterMax: 5 * Microsecond})
		for i := 0; i < 500; i++ {
			l.SendFrom(a, []byte{byte(i), byte(i >> 8), 0})
		}
		e.Run()
		st := l.StatsFrom(true)
		return st.ImpairLost, len(b.frames)
	}
	l1, d1 := run()
	l2, d2 := run()
	if l1 != l2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", l1, d1, l2, d2)
	}
}

func TestLinkImpairmentCorruption(t *testing.T) {
	e := NewEngine(3)
	a := &collector{}
	b := &collector{eng: e}
	l := NewLink(e, a, 1, b, 1, LinkConfig{})
	l.Impair(Impairment{CorruptProb: 1})
	l.SendFrom(a, []byte{0, 0, 0, 0})
	e.Run()
	if len(b.frames) != 1 {
		t.Fatalf("corrupted frame not delivered")
	}
	var ones int
	for _, by := range b.frames[0] {
		for ; by != 0; by &= by - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("expected exactly one flipped bit, got %d", ones)
	}
	if l.StatsFrom(true).ImpairCorrupt != 1 {
		t.Fatalf("stats = %+v", l.StatsFrom(true))
	}
}

func TestLinkImpairmentJitterDelaysDelivery(t *testing.T) {
	e := NewEngine(9)
	a := &collector{}
	b := &collector{eng: e}
	l := NewLink(e, a, 1, b, 1, LinkConfig{PropDelay: 10 * Microsecond})
	l.Impair(Impairment{JitterMax: 50 * Microsecond})
	for i := 0; i < 50; i++ {
		l.SendFrom(a, []byte{byte(i)})
	}
	e.Run()
	var jittered bool
	for _, at := range b.times {
		if at < 10*Microsecond || at > 60*Microsecond {
			t.Fatalf("delivery at %d outside jitter envelope", at)
		}
		if at > 10*Microsecond {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("no frame was jittered")
	}
}

func TestLinkFlapCyclesAndStop(t *testing.T) {
	e := NewEngine(1)
	a := &collector{}
	b := &collector{}
	l := NewLink(e, a, 1, b, 1, LinkConfig{})
	l.StartFlap(10*Millisecond, 5*Millisecond, 5*Millisecond, 3)
	e.RunUntil(100 * Millisecond)
	// 3 cycles: down+up transitions observed by both port monitors... the
	// collector here monitors nothing (no PortMonitor on b? it has one).
	if !l.Up() {
		t.Fatal("link should finish up after the last cycle")
	}
	// 3 downs + 3 ups seen by each endpoint monitor.
	if len(b.states) != 6 {
		t.Fatalf("expected 6 state changes, got %d (%v)", len(b.states), b.states)
	}
	// A second flap can be cancelled before it fires.
	l.StartFlap(10*Millisecond, 5*Millisecond, 5*Millisecond, 100)
	l.StopFlap()
	before := len(b.states)
	e.RunUntil(e.Now() + 200*Millisecond)
	if len(b.states) != before {
		t.Fatalf("cancelled flap still toggled the link: %d -> %d", before, len(b.states))
	}
}
