package sim

import (
	"sync"

	"dumbnet/internal/trace"
)

// Node is anything that can receive frames from a link: a switch or a host
// NIC. Receive runs at frame-delivery virtual time.
type Node interface {
	// Receive is invoked with the local port the frame arrived on and the
	// frame bytes. The receiver owns the buffer from here on: it sends it on
	// (a switch forwarding it), or returns it to packet's frame pool when it
	// is done — after which every slice of it, payloads handed to
	// application callbacks included, is dead.
	Receive(port int, frame []byte)
}

// LinkState notifications are delivered to nodes implementing PortMonitor —
// the hardware port up/down signal dumb switches rely on (§4.2).
type PortMonitor interface {
	PortStateChanged(port int, up bool)
}

// LinkConfig sets the physical characteristics of a link.
type LinkConfig struct {
	// PropDelay is the one-way propagation delay.
	PropDelay Time
	// BandwidthBps is the line rate in bits per second; 0 means infinite
	// (no serialization delay).
	BandwidthBps float64
	// MaxBacklog bounds the transmit queue, expressed as queueing delay;
	// frames that would wait longer are dropped. 0 means a generous
	// default of 50 ms.
	MaxBacklog Time
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.MaxBacklog == 0 {
		c.MaxBacklog = 50 * Millisecond
	}
	return c
}

// LinkStats counts per-direction traffic.
type LinkStats struct {
	Frames uint64
	Bytes  uint64
	Drops  uint64
	DownTx uint64 // sends attempted while the link was down

	ImpairLost    uint64 // frames dropped by probabilistic impairment loss
	ImpairCorrupt uint64 // frames bit-flipped by impairment corruption
	Jittered      uint64 // frames delivered with extra impairment latency
}

// Impairment models a degraded cable: probabilistic frame loss, random
// single-bit corruption, and bounded latency jitter. All randomness is drawn
// from the transmitting end's seeded engine, so impaired runs stay
// reproducible — in a sharded run each direction draws from its own shard's
// stream.
// The zero value is a clean link.
type Impairment struct {
	// LossProb is the per-frame probability of silent loss, in [0, 1].
	LossProb float64
	// CorruptProb is the per-frame probability of flipping one random bit.
	CorruptProb float64
	// JitterMax adds a uniform random [0, JitterMax] delay per delivery.
	JitterMax Time
}

// Active reports whether the impairment does anything.
func (imp Impairment) Active() bool {
	return imp.LossProb > 0 || imp.CorruptProb > 0 || imp.JitterMax > 0
}

// linkEnd is one side of a link. Each end belongs to exactly one engine
// (shard) and carries its own view of the link state: in a sharded run the
// far side of a failing cable learns about the failure one propagation
// delay later, exactly like real optics — and, conveniently, exactly within
// the lookahead contract.
type linkEnd struct {
	eng  *Engine
	node Node
	port int
	up   bool
	// busyUntil is when the transmitter in this direction frees up.
	busyUntil Time
	stats     LinkStats
}

// Link is a full-duplex point-to-point cable between two nodes. Each
// direction has an independent transmitter with serialization delay and a
// bounded queue. A link may span two shards of a ShardGroup; it is then the
// only legal communication channel between them, and its propagation delay
// contributes to the group's lookahead.
type Link struct {
	cfg  LinkConfig
	a, b linkEnd
	imp  Impairment
	// cross is set when the two ends live on different engines.
	cross bool
	// flapGen invalidates previously scheduled flap toggles when bumped.
	flapGen uint64
	// watch, when set, observes transitions of the overall link state
	// (both-ends Up). The hybrid fluid layer uses it to zero/restore the
	// corresponding fluid link capacities on chaos fail/heal events.
	watch func(up bool)
}

// NewLink wires aNode's aPort to bNode's bPort on a single engine. The link
// starts up.
func NewLink(eng *Engine, aNode Node, aPort int, bNode Node, bPort int, cfg LinkConfig) *Link {
	return NewLinkBetween(eng, aNode, aPort, eng, bNode, bPort, cfg)
}

// NewLinkBetween wires aNode's aPort (living on engine engA) to bNode's
// bPort (on engB). With engA == engB this is NewLink. With different
// engines the two must be shards of the same ShardGroup, the propagation
// delay must be positive, and the link registers itself as a cross-shard
// edge, narrowing the group's lookahead window.
func NewLinkBetween(engA *Engine, aNode Node, aPort int, engB *Engine, bNode Node, bPort int, cfg LinkConfig) *Link {
	l := &Link{
		cfg: cfg.withDefaults(),
		a:   linkEnd{eng: engA, node: aNode, port: aPort, up: true},
		b:   linkEnd{eng: engB, node: bNode, port: bPort, up: true},
	}
	if engA != engB {
		if engA.group == nil || engA.group != engB.group {
			panic("sim: NewLinkBetween across engines that are not shards of one group")
		}
		l.cross = true
		engA.group.registerCrossLink(l.cfg.PropDelay)
	}
	return l
}

// Up reports link state: true only when both ends consider the cable live.
func (l *Link) Up() bool { return l.a.up && l.b.up }

// Ends returns the two (node, port) endpoints.
func (l *Link) Ends() (Node, int, Node, int) { return l.a.node, l.a.port, l.b.node, l.b.port }

// endFor returns the link end owned by node from; nil when from is not an
// endpoint.
func (l *Link) endFor(from Node) *linkEnd {
	switch {
	case from == l.a.node:
		return &l.a
	case from == l.b.node:
		return &l.b
	}
	return nil
}

// StatsFrom returns the transmit stats for the direction originating at the
// given node (true for endpoint A).
func (l *Link) StatsFrom(fromA bool) LinkStats {
	if fromA {
		return l.a.stats
	}
	return l.b.stats
}

// Backlog reports the current transmit-queue delay in the direction
// originating at node from — the congestion signal an ECN-marking switch
// reads from its output port.
func (l *Link) Backlog(from Node) Time {
	tx := l.endFor(from)
	if tx == nil {
		return 0
	}
	if b := tx.busyUntil - tx.eng.Now(); b > 0 {
		return b
	}
	return 0
}

// SetUp changes link state and notifies both endpoints that implement
// PortMonitor, modelling the physical-layer signal both sides observe. On a
// single engine both ends flip in the same instant, exactly as before
// sharding existed. On a cross-shard link flipped mid-run, the caller's side
// (end A's shard — flap timers and fault injectors live there) flips now and
// the far side flips one lookahead later, the soonest a remote shard may
// observe anything.
func (l *Link) SetUp(up bool) {
	l.setEndUp(&l.a, up)
	if l.cross {
		if g := l.a.eng.group; g != nil && g.running.Load() {
			b := &l.b
			at := l.a.eng.now + g.lookahead
			l.a.eng.crossSchedule(b.eng, at, func() { l.setEndUp(b, up) }, nil)
			return
		}
	}
	l.setEndUp(&l.b, up)
}

// setEndUp flips one end's view of the link and notifies its monitor on its
// own engine.
func (l *Link) setEndUp(end *linkEnd, up bool) {
	if end.up == up {
		return
	}
	wasUp := l.Up()
	end.up = up
	if mon, ok := end.node.(PortMonitor); ok {
		port := end.port
		end.eng.After(0, func() { mon.PortStateChanged(port, up) })
	}
	if nowUp := l.Up(); nowUp != wasUp && l.watch != nil {
		l.watch(nowUp)
	}
}

// Watch installs an observer for overall link-state transitions (the
// both-ends Up value). The callback runs synchronously inside the state
// flip, at the flipping end's virtual time; at most one watcher is
// supported. Pass nil to clear.
func (l *Link) Watch(fn func(up bool)) { l.watch = fn }

// Fail is shorthand for SetUp(false).
func (l *Link) Fail() { l.SetUp(false) }

// Restore is shorthand for SetUp(true).
func (l *Link) Restore() { l.SetUp(true) }

// Impair installs an impairment model on the link (both directions). Pass
// the zero Impairment to clear it.
func (l *Link) Impair(imp Impairment) { l.imp = imp }

// Impairment returns the current impairment model.
func (l *Link) Impairment() Impairment { return l.imp }

// StartFlap schedules cycles of down/up toggles: after an initial delay the
// link goes down for downFor, comes back for upFor, and repeats, cycles
// times. A later StartFlap or StopFlap cancels any toggles still scheduled.
// Flap timers run on end A's engine.
func (l *Link) StartFlap(after, downFor, upFor Time, cycles int) {
	l.flapGen++
	gen := l.flapGen
	eng := l.a.eng
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

// StopFlap cancels scheduled flap toggles. The link keeps its current state;
// call Restore to force it up.
func (l *Link) StopFlap() { l.flapGen++ }

// deliverEvent carries one in-flight frame to its receiving endpoint. The
// structs are pooled so per-frame delivery costs no heap allocation — the
// dominant event type in any traffic-carrying simulation. The event runs on
// the receiving end's engine.
type deliverEvent struct {
	rx    *linkEnd
	frame []byte
}

var deliverPool = sync.Pool{New: func() any { return new(deliverEvent) }}

func (d *deliverEvent) RunEvent() {
	rx, frame := d.rx, d.frame
	*d = deliverEvent{}
	deliverPool.Put(d)
	if !rx.up {
		return // link died while the frame was in flight
	}
	rx.node.Receive(rx.port, frame)
}

// sendEvent defers a SendFrom by a pipeline delay (switch forwarding, host
// encap) without allocating a closure per frame.
type sendEvent struct {
	link  *Link
	from  Node
	frame []byte
}

var sendPool = sync.Pool{New: func() any { return new(sendEvent) }}

func (s *sendEvent) RunEvent() {
	link, from, frame := s.link, s.from, s.frame
	*s = sendEvent{}
	sendPool.Put(s)
	link.SendFrom(from, frame)
}

// SendFromAfter schedules SendFrom(from, frame) after d nanoseconds of
// virtual time on the sending end's engine. It is the hot-path form used by
// switch forwarding and host encapsulation: the deferral is a pooled typed
// event, so it performs no per-frame allocation where an equivalent closure
// would.
func (l *Link) SendFromAfter(from Node, frame []byte, d Time) {
	tx := l.endFor(from)
	if tx == nil {
		panic("sim: SendFromAfter by non-endpoint node")
	}
	s := sendPool.Get().(*sendEvent)
	s.link, s.from, s.frame = l, from, frame
	tx.eng.AfterEvent(d, s)
}

// SendFrom transmits a frame from the endpoint owned by node `from` (which
// must be one of the link's endpoints; sends from elsewhere panic — that is
// a wiring bug, not a runtime condition). The frame buffer is owned by the
// link after the call. Timing, randomness, and stats all come from the
// transmitting end's engine; delivery is scheduled on the receiving end's
// engine, crossing the shard boundary through the group's outbox when the
// two differ.
func (l *Link) SendFrom(from Node, frame []byte) {
	var tx, rx *linkEnd
	switch {
	case from == l.a.node:
		tx, rx = &l.a, &l.b
	case from == l.b.node:
		tx, rx = &l.b, &l.a
	default:
		panic("sim: SendFrom by non-endpoint node")
	}
	eng := tx.eng
	if !tx.up {
		tx.stats.DownTx++
		eng.tracer.PacketDrop(int64(eng.Now()), 0, trace.DropLinkDownTx, frame)
		return
	}
	if l.imp.LossProb > 0 && eng.Rand().Float64() < l.imp.LossProb {
		tx.stats.ImpairLost++
		eng.tracer.PacketDrop(int64(eng.Now()), 0, trace.DropImpairLoss, frame)
		return
	}
	if l.imp.CorruptProb > 0 && len(frame) > 0 && eng.Rand().Float64() < l.imp.CorruptProb {
		i := eng.Rand().Intn(len(frame))
		frame[i] ^= 1 << uint(eng.Rand().Intn(8))
		tx.stats.ImpairCorrupt++
		eng.tracer.PacketDrop(int64(eng.Now()), 0, trace.CorruptImpair, frame)
	}
	now := eng.Now()
	start := tx.busyUntil
	if start < now {
		start = now
	}
	if start-now > l.cfg.MaxBacklog {
		tx.stats.Drops++
		eng.tracer.PacketDrop(int64(now), 0, trace.DropQueueOverflow, frame)
		return
	}
	var txTime Time
	if l.cfg.BandwidthBps > 0 {
		bits := float64(len(frame)) * 8
		txTime = Time(bits / l.cfg.BandwidthBps * float64(Second))
	}
	tx.busyUntil = start + txTime
	tx.stats.Frames++
	tx.stats.Bytes += uint64(len(frame))
	deliverAt := tx.busyUntil + l.cfg.PropDelay
	if l.imp.JitterMax > 0 {
		deliverAt += Time(eng.Rand().Int63n(int64(l.imp.JitterMax) + 1))
		tx.stats.Jittered++
	}
	d := deliverPool.Get().(*deliverEvent)
	d.rx, d.frame = rx, frame
	eng.crossSchedule(rx.eng, deliverAt, nil, d)
}
