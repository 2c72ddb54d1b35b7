package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/trace"
)

// The link as it stood before ForwardFrom fused a switch's forwarding delay
// into the delivery and before the link spent a node's receive delay, kept
// as the reference the link must match frame for frame: every deferred send
// is an event of its own at its transmit instant, every delivery runs at
// arrival, and a node with a receive delay defers its own processing.

type refEnd struct {
	eng       *Engine
	node      Node
	port      int
	up        bool
	busyUntil Time
	stats     LinkStats
}

type refLink struct {
	cfg     LinkConfig
	a, b    refEnd
	imp     Impairment
	cross   bool
	flapGen uint64
}

func newRefLink(engA *Engine, aNode Node, aPort int, engB *Engine, bNode Node, bPort int, cfg LinkConfig) *refLink {
	l := &refLink{
		cfg: cfg.withDefaults(),
		a:   refEnd{eng: engA, node: aNode, port: aPort, up: true},
		b:   refEnd{eng: engB, node: bNode, port: bPort, up: true},
	}
	if engA != engB {
		l.cross = true
		engA.group.registerCrossLink(l.cfg.PropDelay)
	}
	return l
}

func (l *refLink) endFor(from Node) *refEnd {
	if from == l.a.node {
		return &l.a
	}
	return &l.b
}

func (l *refLink) other(e *refEnd) *refEnd {
	if e == &l.a {
		return &l.b
	}
	return &l.a
}

func (l *refLink) StatsFrom(fromA bool) LinkStats {
	st, rx := l.b.stats, &l.a
	if fromA {
		st, rx = l.a.stats, &l.b
	}
	st.LostInFlight = rx.stats.LostInFlight
	return st
}

func (l *refLink) Backlog(from Node) Time {
	tx := l.endFor(from)
	return max(tx.busyUntil-tx.eng.Now(), 0)
}

func (l *refLink) SetUp(up bool) {
	l.a.up = up
	if l.cross {
		if g := l.a.eng.group; g != nil && g.running.Load() {
			b := &l.b
			l.a.eng.crossSchedule(b.eng, l.a.eng.now+g.lookahead, func() { b.up = up }, nil)
			return
		}
	}
	l.b.up = up
}

func (l *refLink) Impair(imp Impairment) { l.imp = imp }

func (l *refLink) StartFlap(after, downFor, upFor Time, cycles int) {
	l.flapGen++
	gen, eng := l.flapGen, l.a.eng
	var cycle func(remaining int)
	cycle = func(remaining int) {
		if gen != l.flapGen || remaining <= 0 {
			return
		}
		l.SetUp(false)
		eng.After(downFor, func() {
			if gen != l.flapGen {
				return
			}
			l.SetUp(true)
			eng.After(upFor, func() { cycle(remaining - 1) })
		})
	}
	eng.After(after, func() { cycle(cycles) })
}

func (l *refLink) SendFromAfter(from Node, frame []byte, d Time) {
	tx := l.endFor(from)
	tx.eng.After(d, func() { l.transmit(tx, frame) })
}

func (l *refLink) ForwardFrom(from Node, frame []byte, d Time) { l.SendFromAfter(from, frame, d) }

func (l *refLink) SendFrom(from Node, frame []byte) { l.transmit(l.endFor(from), frame) }

func (l *refLink) transmit(tx *refEnd, frame []byte) {
	rx, eng := l.other(tx), tx.eng
	if !tx.up {
		drop(&tx.stats.DownTx, eng, trace.DropLinkDownTx, frame)
		return
	}
	if l.imp.LossProb > 0 && eng.Rand().Float64() < l.imp.LossProb {
		drop(&tx.stats.ImpairLost, eng, trace.DropImpairLoss, frame)
		return
	}
	if l.imp.CorruptProb > 0 && len(frame) > 0 && eng.Rand().Float64() < l.imp.CorruptProb {
		i := eng.Rand().Intn(len(frame))
		frame[i] ^= 1 << uint(eng.Rand().Intn(8))
		tx.stats.ImpairCorrupt++
		eng.tracer.PacketDrop(int64(eng.Now()), 0, trace.CorruptImpair, frame)
	}
	now := eng.Now()
	start := max(tx.busyUntil, now)
	if start-now > l.cfg.MaxBacklog {
		drop(&tx.stats.Drops, eng, trace.DropQueueOverflow, frame)
		return
	}
	var txTime Time
	if l.cfg.BandwidthBps > 0 {
		txTime = Time(float64(len(frame)) * 8 / l.cfg.BandwidthBps * float64(Second))
	}
	tx.busyUntil = start + txTime
	tx.stats.Frames++
	tx.stats.Bytes += uint64(len(frame))
	deliverAt := tx.busyUntil + l.cfg.PropDelay
	if l.imp.JitterMax > 0 {
		deliverAt += Time(eng.Rand().Int63n(int64(l.imp.JitterMax) + 1))
		tx.stats.Jittered++
	}
	eng.crossSchedule(rx.eng, deliverAt, func() {
		if !rx.up {
			rx.stats.LostInFlight++
			packet.PutBuffer(frame)
			return
		}
		rx.node.Receive(rx.port, frame)
	}, nil)
}

// testLink is what the oracle drives on both links.
type testLink interface {
	SendFrom(from Node, frame []byte)
	SendFromAfter(from Node, frame []byte, d Time)
	ForwardFrom(from Node, frame []byte, d Time)
	SetUp(up bool)
	Impair(imp Impairment)
	Backlog(from Node) Time
	StatsFrom(fromA bool) LinkStats
	StartFlap(after, downFor, upFor Time, cycles int)
}

const (
	oracleForward = 500 * Nanosecond  // the switches' pipeline delay
	oracleEncap   = 600 * Nanosecond  // the hosts' send delay
	oracleRx      = 2 * Microsecond   // the hosts' receive delay
	oracleSpan    = 300 * Microsecond // how long a schedule runs
)

// oracleNode is a host (receive delay, logs what it processes) or a
// two-port dumb switch (logs each arrival, forwards it out its other port).
// On the reference link a host defers its own processing, as the host
// agent did; it declares its delay either way, which only the link reads.
type oracleNode struct {
	name  string
	eng   *Engine
	links [2]testLink
	host  bool
	ref   bool
	// cross is the switch's port on a cross-shard link, -1 when none.
	cross int
	log   []string
}

func (n *oracleNode) ReceiveDelay() Time {
	if n.host {
		return oracleRx
	}
	return 0
}

func (n *oracleNode) Receive(port int, frame []byte) {
	id := fmt.Sprintf("%x", frame[6:12])
	if !n.host {
		// Read the output port's backlog as an ECN-marking switch does,
		// inside the event, where a fused frame whose transmit instant is
		// now may or may not have started. Not on a cross-shard arrival:
		// its order among the local events of its instant follows the
		// barrier's merge, which moves with the window layout.
		out, got := n.links[1-port], fmt.Sprintf("%d %s got %s on %d", n.eng.Now(), n.name, id, port)
		if port != n.cross {
			got += fmt.Sprintf(" backlog %d", out.Backlog(n))
		}
		n.log = append(n.log, got)
		out.ForwardFrom(n, frame, oracleForward)
		return
	}
	note := func() { n.log = append(n.log, fmt.Sprintf("%d %s processed %s", n.eng.Now(), n.name, id)) }
	if n.ref {
		n.eng.After(oracleRx, note)
		return
	}
	note()
}

// oracleWorld is h1 –l1– s1 –l2– s2 –l3– h2 on one engine, or with l2
// across two shards. Only l2 is ever impaired.
type oracleWorld struct {
	engs  []*Engine      // one engine, or a shard each for h1–s1 and s2–h2
	nodes [4]*oracleNode // h1, s1, s2, h2
	links [3]testLink
}

type linkMaker func(engA *Engine, aNode Node, aPort int, engB *Engine, bNode Node, bPort int, cfg LinkConfig) testLink

func newOracleWorld(seed int64, shards int, ref bool) *oracleWorld {
	w := &oracleWorld{}
	var g *ShardGroup
	if shards > 1 {
		g = NewShardedEngine(seed, shards)
		w.engs = []*Engine{g.Shard(0), g.Shard(1)}
	} else {
		e := NewEngine(seed)
		w.engs = []*Engine{e}
	}
	mk := linkMaker(func(ea *Engine, a Node, pa int, eb *Engine, b Node, pb int, cfg LinkConfig) testLink {
		return NewLinkBetween(ea, a, pa, eb, b, pb, cfg)
	})
	if ref {
		mk = func(ea *Engine, a Node, pa int, eb *Engine, b Node, pb int, cfg LinkConfig) testLink {
			return newRefLink(ea, a, pa, eb, b, pb, cfg)
		}
	}
	for i, name := range []string{"h1", "s1", "s2", "h2"} {
		w.nodes[i] = &oracleNode{name: name, eng: w.engs[i/2%len(w.engs)], host: i == 0 || i == 3, ref: ref, cross: -1}
		if shards > 1 && (i == 1 || i == 2) {
			w.nodes[i].cross = 2 - i // s1's port 1 and s2's port 0 face l2
		}
	}
	for _, e := range w.engs {
		e.SetTracer(trace.NewRecorder(trace.DefaultConfig()))
	}
	// 8 Gb/s: one byte a nanosecond, so with frames of whole hundreds of
	// bytes, delays of whole hundreds of nanoseconds and a schedule on the
	// same grid, state changes fall exactly on transmit and arrival
	// instants all the time.
	cfg := LinkConfig{PropDelay: 200 * Nanosecond, BandwidthBps: 8e9, MaxBacklog: 6 * Microsecond}
	for i := range w.links {
		a, b := w.nodes[i], w.nodes[i+1]
		c := cfg
		if i == 1 {
			// Between the switches, as on the fabric, a frame's time on
			// the wire exceeds the forwarding delay: the precondition under
			// which a switch's Backlog read in Receive meets the same
			// fused frames as on the unfused link (DESIGN.md).
			c.PropDelay = oracleForward
		}
		if i == 1 && shards > 1 {
			// Off the grid: a cross-shard arrival and a local event at one
			// instant are ordered by when the barrier merged the arrival,
			// which moves with the window layout, and so with how many
			// events each link schedules. At +37 ns no such tie meets one
			// link end.
			c.PropDelay = Microsecond + 37*Nanosecond
		}
		w.links[i] = mk(a.eng, a, min(i, 1), b.eng, b, 0, c)
		a.links[min(i, 1)], b.links[0] = w.links[i], w.links[i]
	}
	return w
}

// frame builds a frame of n bytes whose source address carries id.
func oracleFrame(id, n int) []byte {
	f := make([]byte, n)
	f[6], f[10], f[11] = 0xF0, byte(id>>8), byte(id)
	return f
}

// schedule installs one seeded run, every action scheduled before the run
// starts: host sends (deferred and direct), sends from the switches, direct
// or deferred by less than their forwarding delay (each replays what is
// fused on that end), cuts and restores of every link, flaps, impairment on
// and off (on one engine only: a cross-shard link's impairment is read by
// both shards), and Backlog reads of every end.
// Flap periods stay above a frame's longest time in the queue and on the
// wire: a change scheduled inside that for exactly the frame's arrival at a
// receive-delayed end is the fused link's documented hazard, and every
// change here is scheduled before the frames it meets. Changes scheduled
// after a forward for its transmit instant are TestLinkChangeAtTransmitInstant's.
func (w *oracleWorld) schedule(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	grid := func(span Time) Time { return Time(rng.Int63n(int64(span/(100*Nanosecond)))) * 100 * Nanosecond }
	for id := 1; id <= 600; id++ {
		src := w.nodes[0]
		if rng.Intn(2) == 1 {
			src = w.nodes[3]
		}
		fr, at, direct := oracleFrame(id, 100*(1+rng.Intn(15))), grid(oracleSpan), rng.Intn(5) == 0
		src.eng.At(at, func() {
			if l := src.links[0]; direct {
				l.SendFrom(src, fr)
			} else {
				l.SendFromAfter(src, fr, oracleEncap)
			}
		})
	}
	for id := 1001; id <= 1080; id++ {
		sw, port := w.nodes[1+rng.Intn(2)], rng.Intn(2)
		fr, d := oracleFrame(id, 100*(1+rng.Intn(15))), grid(oracleForward)
		if id%2 == 0 {
			sw.eng.At(grid(oracleSpan), func() { sw.links[port].SendFrom(sw, fr) })
		} else { // deferred, but ahead of what the switch has fused
			sw.eng.At(grid(oracleSpan), func() { sw.links[port].SendFromAfter(sw, fr, d) })
		}
	}
	for i := 0; i < 30; i++ {
		k := rng.Intn(3)
		l, at := w.links[k], grid(oracleSpan)
		e := w.nodes[k].eng
		e.At(at, func() { l.SetUp(false) })
		e.At(at+100*Nanosecond*Time(1+rng.Intn(40)), func() { l.SetUp(true) })
	}
	for i := 0; i < 4; i++ {
		k := rng.Intn(3)
		l := w.links[k]
		after, down, up, cycles := grid(oracleSpan), 8*Microsecond+grid(4*Microsecond), 8*Microsecond+grid(4*Microsecond), 1+rng.Intn(4)
		w.nodes[k].eng.At(0, func() { l.StartFlap(after, down, up, cycles) })
	}
	imp := Impairment{LossProb: 0.2, CorruptProb: 0.2, JitterMax: 300 * Nanosecond}
	for i := 0; i < 6 && len(w.engs) == 1; i++ {
		at := grid(oracleSpan)
		l := w.links[1]
		w.nodes[1].eng.At(at, func() { l.Impair(imp) })
		w.nodes[1].eng.At(at+grid(20*Microsecond), func() { l.Impair(Impairment{}) })
	}
	for i := 0; i < 300; i++ {
		k, end := rng.Intn(3), rng.Intn(2)
		n, l := w.nodes[k+end], w.links[k]
		n.eng.At(grid(oracleSpan), func() {
			n.log = append(n.log, fmt.Sprintf("%d %s backlog on l%d %d", n.eng.Now(), n.name, k+1, l.Backlog(n)))
		})
	}
}

// outcome is everything a run's frames met, order-free where two frames at
// one instant may interleave differently: the node logs (arrivals,
// processing, Backlog reads) and trace records sorted, then link stats per
// direction.
func (w *oracleWorld) outcome() []string {
	var out []string
	for _, n := range w.nodes {
		out = append(out, n.log...)
	}
	for _, e := range w.engs {
		for _, r := range e.Tracer().Records() {
			out = append(out, fmt.Sprintf("%d trace %s %v %v", r.At, r.OpString(), r.Src, r.Dst))
		}
	}
	slices.Sort(out)
	for i, l := range w.links {
		out = append(out, fmt.Sprintf("l%d a→b %+v", i+1, l.StatsFrom(true)), fmt.Sprintf("l%d b→a %+v", i+1, l.StatsFrom(false)))
	}
	return out
}

// TestLinkMatchesReference drives seeded schedules through the link and
// through the reference, on one engine and with the middle link across two
// shards, and requires the same fate for every frame (where and when it was
// received or processed, or the drop record with its cause and time), the
// same LinkStats, the same trace records and the same Backlog reads. On
// one engine the link must also have fused: fewer events than the
// reference.
func TestLinkMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				run := func(ref bool) ([]string, uint64) {
					w := newOracleWorld(seed, shards, ref)
					w.schedule(seed)
					var events uint64
					if shards > 1 {
						g := w.engs[0].Group()
						g.Run()
						events = w.engs[0].Processed() + w.engs[1].Processed()
						g.Close()
					} else {
						w.engs[0].Run()
						events = w.engs[0].Processed()
					}
					return w.outcome(), events
				}
				got, fusedEvents := run(false)
				want, refEvents := run(true)
				if !slices.Equal(got, want) {
					t.Fatalf("outcomes differ\nonly the link:\n%s\nonly the reference:\n%s", strings.Join(missing(want, got), "\n"), strings.Join(missing(got, want), "\n"))
				}
				t.Logf("%d outcome lines; %d events, reference %d", len(got), fusedEvents, refEvents)
				if shards == 1 && fusedEvents >= refEvents {
					t.Errorf("%d events, reference %d: nothing fused", fusedEvents, refEvents)
				}
			})
		}
	}
}

// TestLinkChangeAtTransmitInstant covers what the seeded schedules leave
// out: state changes and sends scheduled after a switch forwarded, for
// exactly the instant its frame reaches the transmitter. The unfused send
// runs before them there, so the fused frame must count as started: cut,
// it is lost in flight, not dropped at the transmitter; a change of
// impairment, a direct send and a Backlog read at that instant find it
// sent.
func TestLinkChangeAtTransmitInstant(t *testing.T) {
	acts := map[string]func(w *oracleWorld){
		"cut":    func(w *oracleWorld) { w.links[1].SetUp(false) },
		"impair": func(w *oracleWorld) { w.links[1].Impair(Impairment{LossProb: 0.5, JitterMax: 300}) },
		"send":   func(w *oracleWorld) { w.links[1].SendFrom(w.nodes[1], oracleFrame(9, 200)) },
		"backlog": func(w *oracleWorld) {
			w.nodes[1].log = append(w.nodes[1].log, fmt.Sprint("backlog ", w.links[1].Backlog(w.nodes[1])))
		},
	}
	for name, act := range acts {
		t.Run(name, func(t *testing.T) {
			run := func(ref bool) []string {
				w := newOracleWorld(1, 1, ref)
				eng := w.engs[0]
				eng.At(Microsecond, func() {
					w.links[1].ForwardFrom(w.nodes[1], oracleFrame(1, 300), oracleForward)
					w.links[1].ForwardFrom(w.nodes[1], oracleFrame(2, 300), oracleForward)
				})
				// Scheduled after the forwards, for their transmit instant.
				eng.At(Microsecond+100, func() { eng.After(oracleForward-100, func() { act(w) }) })
				eng.Run()
				return w.outcome()
			}
			if got, want := run(false), run(true); !slices.Equal(got, want) {
				t.Fatalf("outcomes differ\nonly the link:\n%s\nonly the reference:\n%s", strings.Join(missing(want, got), "\n"), strings.Join(missing(got, want), "\n"))
			}
		})
	}
}

// missing lists the lines of b that a lacks, counting repeats.
func missing(a, b []string) []string {
	n := map[string]int{}
	for _, x := range a {
		n[x]++
	}
	var out []string
	for _, x := range b {
		if n[x]--; n[x] < 0 {
			out = append(out, x)
		}
	}
	return out
}
