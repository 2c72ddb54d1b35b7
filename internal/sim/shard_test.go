package sim

import (
	"fmt"
	"testing"
)

// pingNode is a minimal Node that echoes every frame back on the link it
// arrived on, after a small processing delay, and hashes what it sees. Used
// to generate genuine cross-shard traffic.
type pingNode struct {
	eng   *Engine
	link  *Link
	seen  uint64
	hash  uint64
	limit int
}

func (p *pingNode) Receive(port int, frame []byte) {
	p.seen++
	for _, b := range frame {
		p.hash = p.hash*1099511628211 + uint64(b)
	}
	p.hash = p.hash*31 + uint64(p.eng.Now())
	if int(p.seen) >= p.limit {
		return
	}
	// Echo with a jittered local delay drawn from this shard's rng.
	d := Time(p.eng.Rand().Int63n(int64(10 * Microsecond)))
	frame = append(frame[:0:0], frame...)
	p.link.SendFromAfter(p, frame, d)
}

// buildPingPair wires two pingNodes across shards 0 and 1 of a group (or on
// one engine when g has a single shard) and starts an exchange.
func buildPingPair(g *ShardGroup, limit int) (*pingNode, *pingNode) {
	ea := g.Shard(0)
	eb := g.Shard(g.NumShards() - 1)
	a := &pingNode{eng: ea, limit: limit}
	b := &pingNode{eng: eb, limit: limit}
	l := NewLinkBetween(ea, a, 0, eb, b, 0, LinkConfig{PropDelay: 50 * Microsecond, BandwidthBps: 1e9})
	a.link, b.link = l, l
	ea.At(0, func() { l.SendFrom(a, []byte{1, 2, 3, 4}) })
	return a, b
}

func TestShardedPingDeterministic(t *testing.T) {
	run := func(shards int) (uint64, uint64, uint64) {
		g := NewShardedEngine(7, shards)
		defer g.Close()
		a, b := buildPingPair(g, 200)
		g.Run()
		return a.hash, b.hash, g.Processed()
	}
	h1a, h1b, p1 := run(2)
	h2a, h2b, p2 := run(2)
	if h1a != h2a || h1b != h2b || p1 != p2 {
		t.Fatalf("sharded run not reproducible: (%x,%x,%d) vs (%x,%x,%d)", h1a, h1b, p1, h2a, h2b, p2)
	}
	if p1 == 0 {
		t.Fatal("no events processed")
	}
}

// TestShardGroupSingleShardMatchesEngine verifies that a one-shard group
// replays exactly the same schedule as a standalone engine with the same
// seed: same rng stream, same event count, same hash.
func TestShardGroupSingleShardMatchesEngine(t *testing.T) {
	runOn := func(e *Engine, runAll func()) (uint64, uint64) {
		var hash uint64
		var count uint64
		var tick func()
		tick = func() {
			count++
			hash = hash*1099511628211 + uint64(e.Rand().Int63())
			hash = hash*31 + uint64(e.Now())
			if count < 500 {
				e.After(Time(e.Rand().Int63n(int64(Millisecond))), tick)
			}
		}
		e.At(0, tick)
		runAll()
		return hash, count
	}
	plain := NewEngine(99)
	h1, c1 := runOn(plain, plain.Run)
	g := NewShardedEngine(99, 1)
	defer g.Close()
	h2, c2 := runOn(g.Shard(0), g.Run)
	if h1 != h2 || c1 != c2 {
		t.Fatalf("single-shard group diverges from standalone engine: (%x,%d) vs (%x,%d)", h1, c1, h2, c2)
	}
}

// TestShardedCrossOrdering checks the deterministic merge: many cross-shard
// events landing at identical times from different source shards must be
// executed in (time, source shard, production order) order at the receiver.
func TestShardedCrossOrdering(t *testing.T) {
	const senders = 3
	g := NewShardedEngine(1, senders+1)
	defer g.Close()
	rxEng := g.Shard(0)

	var order []string
	rx := &funcNode{fn: func(port int, frame []byte) {
		order = append(order, fmt.Sprintf("%d@%d", frame[0], rxEng.Now()))
	}}
	// Each sender shard fires two frames at the same instant over identical
	// links, so all arrivals collide at one virtual time.
	for s := 1; s <= senders; s++ {
		eng := g.Shard(s)
		tag := byte(s)
		txNode := &funcNode{}
		l := NewLinkBetween(eng, txNode, 0, rxEng, rx, s, LinkConfig{PropDelay: Millisecond})
		eng.At(0, func() {
			l.SendFrom(txNode, []byte{tag, 1})
			l.SendFrom(txNode, []byte{tag, 2})
		})
	}
	g.Run()
	want := []string{"1@1000000", "1@1000000", "2@1000000", "2@1000000", "3@1000000", "3@1000000"}
	if len(order) != len(want) {
		t.Fatalf("got %d arrivals, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("arrival %d = %s, want %s (full: %v)", i, order[i], want[i], order)
		}
	}
}

// TestShardedRunLeavesShardClocksApart shows why pkt-wave-s2 has pkt-wave's
// digest but not its latency percentiles: Run stops each shard's clock at
// that shard's own last event, while one engine stops at the last event of
// all. Whatever the caller schedules next with After — the next round's
// sends and pings — starts earlier on a shard that went quiet first, so
// from the second round on the shards' traffic meets at other relative
// times than on one engine. (RunUntil clamps every clock to its deadline
// and has no such gap.)
func TestShardedRunLeavesShardClocksApart(t *testing.T) {
	nextRound := func(shards int) Time {
		g := NewShardedEngine(1, shards)
		defer g.Close()
		busy, quiet := g.Shard(0), g.Shard(shards-1)
		busy.At(10*Microsecond, func() {})
		quiet.At(3*Microsecond, func() {})
		g.Run()
		var at Time
		quiet.After(Microsecond, func() { at = quiet.Now() })
		g.Run()
		return at
	}
	if one, two := nextRound(1), nextRound(2); one != 11*Microsecond || two != 4*Microsecond {
		t.Fatalf("next round's first event at %v on one engine, %v on two shards; want 11µs and 4µs",
			one.Duration(), two.Duration())
	}
}

// TestShardedSameDeadlineTieOrder pins a second, smaller 1-vs-2-shard
// difference: same-deadline order. Two frames tie at one switch port: X
// crosses from shard 0, sent at t=0; Y is local to the switch's shard, sent
// at t=500ns; both arrive at t=1µs and leave on one output link, so the one
// the switch sees first is serialized first. On one engine X's delivery
// takes its sequence number when it is sent, before Y's, and goes first. On
// two shards it takes one when the barrier merges it at the end of the
// window — after Y's — so Y goes first. The output instants are the same;
// which frame gets which is not.
func TestShardedSameDeadlineTieOrder(t *testing.T) {
	type arrival struct {
		tag byte
		at  Time
	}
	run := func(shards int) []arrival {
		g := NewShardedEngine(1, shards)
		defer g.Close()
		ea, es := g.Shard(0), g.Shard(shards-1)
		var got []arrival
		sink := &funcNode{fn: func(_ int, f []byte) { got = append(got, arrival{f[0], es.Now()}) }}
		sw, a, b := &funcNode{}, &funcNode{}, &funcNode{}
		out := NewLink(es, sw, 9, sink, 1, LinkConfig{BandwidthBps: 1e9})
		sw.fn = func(_ int, f []byte) { out.SendFrom(sw, f) }
		fromA := NewLinkBetween(ea, a, 1, es, sw, 1, LinkConfig{PropDelay: Microsecond})
		fromB := NewLink(es, b, 1, sw, 2, LinkConfig{PropDelay: 500 * Nanosecond})
		ea.At(0, func() { fromA.SendFrom(a, append([]byte{'X'}, make([]byte, 124)...)) })
		es.At(500*Nanosecond, func() { fromB.SendFrom(b, append([]byte{'Y'}, make([]byte, 124)...)) })
		g.Run()
		return got
	}
	one, two := run(1), run(2)
	if len(one) != 2 || len(two) != 2 {
		t.Fatalf("arrivals: one engine %v, two shards %v", one, two)
	}
	if one[0].tag != 'X' || two[0].tag != 'Y' {
		t.Fatalf("tie order: one engine %c first, two shards %c first; want X, then Y", one[0].tag, two[0].tag)
	}
	if one[0].at != two[0].at || one[1].at != two[1].at {
		t.Fatalf("output instants differ: one engine %v, two shards %v", one, two)
	}
}

// funcNode is a comparable Node wrapping a callback (SendFrom identifies
// endpoints by ==, so a bare func type won't do).
type funcNode struct {
	fn func(port int, frame []byte)
}

func (f *funcNode) Receive(port int, frame []byte) {
	if f.fn != nil {
		f.fn(port, frame)
	}
}

// TestShardedRunUntilClampsClocks verifies that after RunUntil all shards sit
// at the deadline even if some never executed an event.
func TestShardedRunUntilClampsClocks(t *testing.T) {
	g := NewShardedEngine(3, 4)
	defer g.Close()
	g.Shard(1).At(2*Millisecond, func() {})
	g.RunUntil(10 * Millisecond)
	for i := 0; i < g.NumShards(); i++ {
		if now := g.Shard(i).Now(); now != 10*Millisecond {
			t.Fatalf("shard %d clock = %v, want 10ms", i, now)
		}
	}
	if g.Now() != 10*Millisecond {
		t.Fatalf("group clock = %v", g.Now())
	}
}

// TestCrossLinkLookaheadValidation: a cross-shard link with zero propagation
// delay must be rejected — it would collapse the conservative window.
func TestCrossLinkLookaheadValidation(t *testing.T) {
	g := NewShardedEngine(1, 2)
	defer g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-delay cross-shard link accepted")
		}
	}()
	NewLinkBetween(g.Shard(0), &funcNode{}, 0, g.Shard(1), &funcNode{}, 0, LinkConfig{})
}

// TestCrossLinkUnrelatedEngines: linking two standalone engines is a wiring
// bug and must panic.
func TestCrossLinkUnrelatedEngines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("link across unrelated engines accepted")
		}
	}()
	NewLinkBetween(NewEngine(1), &funcNode{}, 0, NewEngine(2), &funcNode{}, 0, LinkConfig{PropDelay: Millisecond})
}

// TestShardAffinityGuard: with checks enabled, touching another shard's
// engine from inside a window must panic rather than race.
func TestShardAffinityGuard(t *testing.T) {
	if !shardDebug {
		old := shardDebug
		shardDebug = true
		defer func() { shardDebug = old }()
	}
	g := NewShardedEngine(5, 2)
	defer g.Close()
	// Force concurrent windows with a cross link so both shards are active.
	a, b := buildPingPair(g, 50)
	_ = a
	_ = b
	var caught any
	// Shard 1's handler illegally reads shard 0's clock.
	g.Shard(1).At(10*Microsecond, func() {
		defer func() { caught = recover() }()
		g.Shard(0).Now()
	})
	// Keep shard 0 busy in the same window so it is worker-owned.
	g.Shard(0).At(10*Microsecond, func() {})
	g.RunUntil(20 * Microsecond)
	if caught == nil {
		t.Fatal("cross-shard Now() did not panic with shard checks on")
	}
}

// TestShardedSetUpCrossLink: failing a cross-shard link mid-run drops
// in-flight traffic without deadlock, and restoring it lets traffic resume.
func TestShardedSetUpCrossLink(t *testing.T) {
	g := NewShardedEngine(11, 2)
	defer g.Close()
	a, b := buildPingPair(g, 1<<30)
	link := a.link
	// Flap from shard A's timeline, like StartFlap does.
	g.Shard(0).At(5*Millisecond, func() { link.SetUp(false) })
	g.Shard(0).At(10*Millisecond, func() { link.SetUp(true) })
	g.RunUntil(8 * Millisecond)
	seenDown := a.seen + b.seen
	g.RunUntil(9 * Millisecond)
	if a.seen+b.seen != seenDown {
		t.Fatalf("traffic flowed over a failed link: %d -> %d", seenDown, a.seen+b.seen)
	}
	// After restore the conversation is dead (frames were dropped, nobody
	// retries in this toy), so just assert the link is usable again.
	g.Shard(0).At(12*Millisecond, func() { link.SendFrom(a, []byte{9}) })
	g.RunUntil(20 * Millisecond)
	if a.seen+b.seen == seenDown {
		t.Fatal("restored link delivered nothing")
	}
}

// TestShardedSoloFastPath: a run where only one shard ever has events should
// still complete and stay bounded by cross arrivals it produces itself.
func TestShardedSoloFastPath(t *testing.T) {
	g := NewShardedEngine(2, 3)
	defer g.Close()
	e := g.Shard(2)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			e.After(Microsecond, tick)
		}
	}
	e.At(0, func() { tick() })
	g.Run()
	if count != 1000 {
		t.Fatalf("solo shard ran %d/1000 ticks", count)
	}
	if g.Processed() != 1000 {
		t.Fatalf("processed %d", g.Processed())
	}
}

// TestShardedOneWayFreeListsBounded sends frames one way across a
// cross-shard link, one wave per lookahead, so each window runs the sender's
// next wave on shard 0 while shard 1 delivers the last one. Deliver events
// come from the sender's free list and return to the receiver's; the
// barrier hands them back, so after 1,000 waves the receiver's list holds
// no more than one wave's frames and the two lists no more than were ever
// in flight.
func TestShardedOneWayFreeListsBounded(t *testing.T) {
	const frames, waves = 64, 1000
	g := NewShardedEngine(1, 2)
	defer g.Close()
	ea, eb := g.Shard(0), g.Shard(1)
	a, received := &funcNode{}, 0
	b := &funcNode{fn: func(int, []byte) { received++ }}
	l := NewLinkBetween(ea, a, 0, eb, b, 0, LinkConfig{PropDelay: 10 * Microsecond})
	frame := []byte{1, 2, 3, 4}
	sent := 0
	var wave func()
	wave = func() {
		for i := 0; i < frames; i++ {
			l.SendFromAfter(a, frame, 0)
		}
		if sent++; sent < waves {
			ea.After(10*Microsecond, wave)
		}
	}
	ea.At(0, wave)
	g.Run()
	if received != frames*waves {
		t.Fatalf("received %d frames, want %d", received, frames*waves)
	}
	if parallel, _ := g.Windows(); parallel < waves/2 {
		t.Fatalf("%d parallel windows: the two shards did not run side by side", parallel)
	}
	if n := len(eb.freeDelivers); n > frames {
		t.Fatalf("receiver's free list holds %d deliver events after %d waves, want <= %d", n, waves, frames)
	}
	// The opening solo window sends two waves before the first delivery;
	// no later window has more in flight.
	if n := len(ea.freeDelivers) + len(eb.freeDelivers); n > 2*frames {
		t.Fatalf("%d deliver events on the free lists after %d waves, want <= %d", n, waves, 2*frames)
	}
}

func BenchmarkShardGroupPingPong(b *testing.B) {
	g := NewShardedEngine(1, 2)
	defer g.Close()
	a, _ := buildPingPair(g, 1<<30)
	_ = a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RunFor(100 * Microsecond)
	}
}
