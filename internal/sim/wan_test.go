package sim

import "testing"

// monNode records PortStateChanged notifications with the local virtual
// time they arrived at.
type monNode struct {
	eng    *Engine
	events []monEvent
}

type monEvent struct {
	at Time
	up bool
}

func (m *monNode) Receive(port int, frame []byte) {}

func (m *monNode) PortStateChanged(port int, up bool) {
	m.events = append(m.events, monEvent{at: m.eng.Now(), up: up})
}

// TestCrossLinkSetUpWANLookahead pins the one-lookahead SetUp contract at
// WAN-scale (millisecond) delays: flipping a cross-shard link mid-run from
// end A's shard notifies A at the flip instant and B exactly one lookahead
// later — the soonest a conservatively-synchronized remote shard may
// observe anything.
func TestCrossLinkSetUpWANLookahead(t *testing.T) {
	const wan = 5 * Millisecond
	g := NewShardedEngine(3, 2)
	defer g.Close()
	a := &monNode{eng: g.Shard(0)}
	b := &monNode{eng: g.Shard(1)}
	l := NewLinkBetween(g.Shard(0), a, 0, g.Shard(1), b, 0, LinkConfig{PropDelay: wan, BandwidthBps: 10e9})
	if got := g.Lookahead(); got != wan {
		t.Fatalf("lookahead = %v, want WAN delay %v", got, wan)
	}

	// Keep both shards hot so neither sits idle past the flip times.
	for _, e := range []*Engine{g.Shard(0), g.Shard(1)} {
		eng := e
		var tick func()
		tick = func() {
			if eng.Now() < 60*Millisecond {
				eng.After(100*Microsecond, tick)
			}
		}
		eng.At(0, tick)
	}

	g.Shard(0).At(20*Millisecond, func() { l.SetUp(false) })
	g.Shard(0).At(40*Millisecond, func() { l.SetUp(true) })
	g.Run()

	want := func(m *monNode, name string, evs ...monEvent) {
		t.Helper()
		if len(m.events) != len(evs) {
			t.Fatalf("%s saw %d transitions %v, want %d", name, len(m.events), m.events, len(evs))
		}
		for i, w := range evs {
			if m.events[i] != w {
				t.Fatalf("%s transition %d = %+v, want %+v", name, i, m.events[i], w)
			}
		}
	}
	want(a, "near end", monEvent{20 * Millisecond, false}, monEvent{40 * Millisecond, true})
	want(b, "far end",
		monEvent{20*Millisecond + wan, false},
		monEvent{40*Millisecond + wan, true})
}

// TestCrossLinkSetUpIdleImmediate: the same flip while the group is parked
// takes effect on both ends at once — fault injection between runs must
// not need a warm-up window.
func TestCrossLinkSetUpIdleImmediate(t *testing.T) {
	g := NewShardedEngine(3, 2)
	defer g.Close()
	a := &monNode{eng: g.Shard(0)}
	b := &monNode{eng: g.Shard(1)}
	l := NewLinkBetween(g.Shard(0), a, 0, g.Shard(1), b, 0, LinkConfig{PropDelay: 5 * Millisecond})
	l.SetUp(false)
	if l.Up() {
		t.Fatal("idle SetUp(false) left the link up")
	}
	g.RunFor(Millisecond)
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("idle flip notified a=%v b=%v, want one transition each", a.events, b.events)
	}
	if a.events[0].at != 0 || b.events[0].at != 0 {
		t.Fatalf("idle flip deferred: a=%v b=%v", a.events, b.events)
	}
}

// TestCrossShardWindowScalesWithWANDelay: the WAN propagation delay IS the
// conservative lookahead, so federating over milliseconds instead of
// microseconds must collapse the window count for the same virtual
// duration — the property that makes fabric-per-shard federation pay.
func TestCrossShardWindowScalesWithWANDelay(t *testing.T) {
	windows := func(prop Time) uint64 {
		g := NewShardedEngine(9, 2)
		defer g.Close()
		a := &pingNode{eng: g.Shard(0), limit: 1 << 30}
		b := &pingNode{eng: g.Shard(1), limit: 1 << 30}
		l := NewLinkBetween(g.Shard(0), a, 0, g.Shard(1), b, 0, LinkConfig{PropDelay: prop, BandwidthBps: 10e9})
		a.link, b.link = l, l
		g.Shard(0).At(0, func() { l.SendFrom(a, []byte{1, 2, 3, 4}) })
		g.RunUntil(200 * Millisecond)
		par, solo := g.Windows()
		return par + solo
	}
	narrow := windows(50 * Microsecond)
	wide := windows(5 * Millisecond)
	if wide >= narrow {
		t.Fatalf("ms-scale WAN lookahead did not widen windows: %d (5ms) vs %d (50us)", wide, narrow)
	}
	if narrow < 10*wide {
		t.Fatalf("window reduction too small: %d (50us) vs %d (5ms), want >= 10x", narrow, wide)
	}
}
