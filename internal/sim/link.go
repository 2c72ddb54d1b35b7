package sim

import (
	"dumbnet/internal/packet"
	"dumbnet/internal/trace"
)

// Node is anything that can receive frames from a link: a switch or a host
// NIC. Receive runs at frame-delivery virtual time plus the node's receive
// delay, when it declares one (ReceiveDelayer).
type Node interface {
	// Receive is invoked with the local port the frame arrived on and the
	// frame bytes. The receiver owns the buffer from here on: it sends it on
	// (a switch forwarding it), or returns it to packet's frame pool when it
	// is done — after which every slice of it, payloads handed to
	// application callbacks included, is dead.
	Receive(port int, frame []byte)
}

// ReceiveDelayer is a Node whose receive path costs a fixed processing
// time before it acts on a frame (a host agent's datapath). The link spends
// that time on the wire: the frame's one delivery event calls Receive that
// much after it arrives. Whether it was lost in flight still depends on the
// receiving end's state at arrival.
type ReceiveDelayer interface {
	ReceiveDelay() Time
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
	LostInFlight  uint64 // frames on the wire when the receiving end went down
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

// linkEnd is one side of a link. Each end belongs to exactly one engine
// (shard) and carries its own view of the link state: in a sharded run the
// far side of a failing cable learns about the failure one propagation
// delay later, exactly like real optics — and, conveniently, exactly within
// the lookahead contract.
type linkEnd struct {
	// The fields a delivery reads come first, to share its cache lines.
	eng *Engine
	// fused lists, oldest first, the deliveries of the frames the far end's
	// ForwardFrom committed ahead of their transmit instant, kept on this
	// end because the delivery runs here; each leaves as it runs, or once
	// found handed to the transmitter (Link.unstarted).
	fused *deliverEvent
	node  Node
	port  int
	up    bool
	// deferred counts this end's pending sendEvents.
	deferred int32
	// rxDelay is the node's receive delay, added to every delivery here;
	// flips holds the times of this end's state changes over the last
	// rxDelay, so that a delivery can tell whether the end was up when its
	// frame arrived.
	rxDelay   Time
	flips     []Time
	link      *Link
	fusedTail *deliverEvent
	// busyUntil is when the transmitter in this direction frees up.
	busyUntil Time
	// stats counts this end's transmissions, except LostInFlight: frames
	// lost arriving here, counted here because only this end's engine may
	// write it. StatsFrom reports it with the direction they travelled.
	stats LinkStats
}

// upAt reports whether e was up at instant t; a change at t counts as made
// before it. The changes alternate, so the state before the first one
// after t is the current state, flipped once per change from there on.
func (e *linkEnd) upAt(t Time) bool {
	for i, at := range e.flips {
		if at > t {
			return e.up == ((len(e.flips)-i)%2 == 0)
		}
	}
	return e.up
}

// Link is a full-duplex point-to-point cable between two nodes. Each
// direction has an independent transmitter with serialization delay and a
// bounded queue. A link may span two shards of a ShardGroup; it is then the
// only legal communication channel between them, and its propagation delay
// contributes to the group's lookahead.
type Link struct {
	cfg LinkConfig
	imp Impairment
	// cross is set when the two ends live on different engines.
	cross bool
	a, b  linkEnd
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
	l.a.link, l.b.link = l, l
	for _, e := range [...]*linkEnd{&l.a, &l.b} {
		if r, ok := e.node.(ReceiveDelayer); ok {
			e.rxDelay = r.ReceiveDelay()
		}
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
	st, rx := l.b.stats, &l.a
	if fromA {
		st, rx = l.a.stats, &l.b
	}
	st.LostInFlight = rx.stats.LostInFlight
	return st
}

// other returns the end facing e.
func (l *Link) other(e *linkEnd) *linkEnd {
	if e == &l.a {
		return &l.b
	}
	return &l.a
}

// Backlog reports the current transmit-queue delay in the direction
// originating at node from — the congestion signal an ECN-marking switch
// reads from its output port. Fused frames that have not reached their
// transmit instant are not in it yet.
func (l *Link) Backlog(from Node) Time {
	tx := l.endFor(from)
	if tx == nil {
		return 0
	}
	busy := tx.busyUntil
	if d := l.unstarted(tx); d != nil {
		busy = d.busy
	}
	return max(busy-tx.eng.Now(), 0)
}

// unstarted drops from tx's fused frames those already handed to the
// transmitter — the unfused send would have run: its instant is past, or
// is now and its schedule number is below the running event's — and
// returns the first one left. Each frame is dropped at most once, and the
// delivery of a dropped one no longer pops it.
func (l *Link) unstarted(tx *linkEnd) *deliverEvent {
	rx, now, cur := l.other(tx), tx.eng.now, tx.eng.cur
	for d := rx.fused; d != nil && (d.start < now || d.start == now && d.seq < cur); d = d.next {
		if rx.fused = d.next; rx.fused == nil {
			rx.fusedTail = nil
		}
	}
	return rx.fused
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
	wasUp := l.watch != nil && l.Up() // read the far end only for a watcher
	end.up = up
	if !up {
		l.replay(end)
	}
	if end.rxDelay > 0 {
		now, i := end.eng.now, 0
		for i < len(end.flips) && end.flips[i] <= now-end.rxDelay {
			i++
		}
		end.flips = append(append(end.flips[:0], end.flips[i:]...), now)
	}
	if mon, ok := end.node.(PortMonitor); ok {
		port := end.port
		end.eng.After(0, func() { mon.PortStateChanged(port, up) })
	}
	if l.watch != nil && l.Up() != wasUp {
		l.watch(!wasUp)
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
func (l *Link) Impair(imp Impairment) {
	if imp != l.imp {
		l.replay(&l.a)
		l.replay(&l.b)
	}
	l.imp = imp
}

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

// deliverEvent carries one in-flight frame to its receiving endpoint, and
// sendEvent defers a send by a pipeline delay (host encap, a send that
// cannot fuse) without a closure per frame: the per-hop event types of any
// traffic-carrying simulation. A frame costs one deliverEvent per link it
// crosses, at its arrival plus the receiver's delay; a switch's forwarding
// delay costs a sendEvent only when ForwardFrom cannot fuse it. Neither
// costs a heap allocation once warm. Each engine keeps a LIFO free list of
// each, touched only by the goroutine running that engine. A sendEvent is
// taken from and returned to the transmitting end's engine, where it runs.
// A deliverEvent is taken from the transmitting end's engine and returned
// to the receiving end's engine, where it runs; across shards the receiver
// counts what it owes the sender, and the barrier hands them back
// (handBack).
type deliverEvent struct {
	rx    *linkEnd
	frame []byte
	// For a fused frame: the next one in its receiving end's list, its
	// transmit instant, the sending end's busy time before it was
	// committed, and the engine's schedule number for the delivery, which
	// replay gives the send it stands for. A nil frame marks a delivery
	// whose frame replay sent again.
	next        *deliverEvent
	start, busy Time
	seq         uint64
}

func (d *deliverEvent) RunEvent() {
	rx, frame, e := d.rx, d.frame, d.rx.eng
	if d.seq != 0 && rx.fused == d { // fused: leave the list
		if rx.fused = d.next; rx.fused == nil {
			rx.fusedTail = nil
		}
	}
	*d = deliverEvent{}
	e.freeDelivers.Put(d)
	if e.owed != nil { // a shard: was d taken on another one?
		if from := rx.link.other(rx).eng; from != e {
			e.owed[from.shard]++
		}
	}
	if frame == nil {
		return
	}
	if !rx.upAt(e.now - rx.rxDelay) {
		rx.stats.LostInFlight++ // link died while the frame was in flight
		packet.PutBuffer(frame)
		return
	}
	rx.node.Receive(rx.port, frame)
}

type sendEvent struct {
	tx    *linkEnd
	frame []byte
}

func (s *sendEvent) RunEvent() {
	tx, frame := s.tx, s.frame
	*s = sendEvent{}
	tx.eng.freeSends.Put(s)
	tx.deferred--
	tx.link.transmit(tx, frame, tx.eng.now)
}

// SendFromAfter schedules SendFrom(from, frame) after d nanoseconds of
// virtual time on the sending end's engine. It is the form used by host
// encapsulation, whose sends are never fused (see DESIGN.md): the deferral
// is a recycled typed event, so it performs no per-frame allocation where
// an equivalent closure would.
func (l *Link) SendFromAfter(from Node, frame []byte, d Time) { l.sendAfter(from, frame, d, false) }

// ForwardFrom is SendFromAfter for a switch's fixed pipeline delay d. When
// the frame's fate at now+d is already certain — a clean link with both
// ends on one engine, the sending end up with no deferred send pending, a
// queue that will take the frame, an instant no earlier than the end's
// last fused one — it commits the frame to the transmitter as of now+d at
// once and schedules only its delivery. Until that instant the frame stays
// on the receiving end's fused list, and whatever could still change its
// fate (SetUp(false), a changed Impair, a SendFrom, a send with an earlier
// instant) first replays it as the deferred send it stands for.
func (l *Link) ForwardFrom(from Node, frame []byte, d Time) { l.sendAfter(from, frame, d, true) }

func (l *Link) sendAfter(from Node, frame []byte, d Time, fuse bool) {
	tx := l.endFor(from)
	if tx == nil {
		panic("sim: SendFromAfter by non-endpoint node")
	}
	at, rx := tx.eng.Now()+d, l.other(tx)
	if rx.fusedTail != nil && at < rx.fusedTail.start {
		l.replay(tx) // the earlier send goes first
	}
	if fuse && !l.cross && l.imp == (Impairment{}) && tx.up && tx.deferred == 0 &&
		max(tx.busyUntil, at)-at <= l.cfg.MaxBacklog {
		busy := tx.busyUntil
		tx.eng.seal(at)
		f := l.transmit(tx, frame, at)
		f.start, f.busy, f.seq = at, busy, tx.eng.seq
		if rx.fusedTail == nil {
			rx.fused = f
		} else {
			rx.fusedTail.next = f
		}
		rx.fusedTail = f
		return
	}
	tx.eng.schedule(at, nil, tx.newSend(frame))
}

// newSend returns a sendEvent that transmits frame from e, counted pending.
func (e *linkEnd) newSend(frame []byte) *sendEvent {
	s := e.eng.freeSends.Get()
	s.tx, s.frame = e, frame
	e.deferred++
	return s
}

// replay turns tx's fused frames not yet handed to the transmitter into
// the deferred sends they stand for: it undoes their commit (busy time,
// Frames, Bytes), voids their deliveries and schedules each send at its
// instant under its delivery's schedule number, where the send would have
// stood in the queue had it never been fused.
func (l *Link) replay(tx *linkEnd) {
	d, rx := l.unstarted(tx), l.other(tx)
	if d == nil {
		return
	}
	tx.busyUntil, rx.fused, rx.fusedTail = d.busy, nil, nil
	for ; d != nil; d = d.next {
		tx.stats.Frames--
		tx.stats.Bytes -= uint64(len(d.frame))
		tx.eng.requeue(d.start, d.seq, tx.newSend(d.frame))
		d.frame = nil
	}
}

// SendFrom transmits a frame from the endpoint owned by node `from` (which
// must be one of the link's endpoints; sends from elsewhere panic — that is
// a wiring bug, not a runtime condition). The frame buffer is owned by the
// link after the call. Timing, randomness, and stats all come from the
// transmitting end's engine; delivery is scheduled on the receiving end's
// engine, crossing the shard boundary through the group's outbox when the
// two differ.
func (l *Link) SendFrom(from Node, frame []byte) {
	tx := l.endFor(from)
	if tx == nil {
		panic("sim: SendFrom by non-endpoint node")
	}
	l.replay(tx)
	l.transmit(tx, frame, tx.eng.Now())
}

// transmit commits frame to tx's transmitter as of instant at — now, or a
// fused frame's transmit instant — and schedules its delivery, which it
// returns; it returns nil when the link drops the frame.
func (l *Link) transmit(tx *linkEnd, frame []byte, at Time) *deliverEvent {
	rx, eng := l.other(tx), tx.eng
	if !tx.up {
		drop(&tx.stats.DownTx, eng, trace.DropLinkDownTx, frame)
		return nil
	}
	if l.imp.LossProb > 0 && eng.Rand().Float64() < l.imp.LossProb {
		drop(&tx.stats.ImpairLost, eng, trace.DropImpairLoss, frame)
		return nil
	}
	if l.imp.CorruptProb > 0 && len(frame) > 0 && eng.Rand().Float64() < l.imp.CorruptProb {
		i := eng.Rand().Intn(len(frame))
		frame[i] ^= 1 << uint(eng.Rand().Intn(8))
		tx.stats.ImpairCorrupt++
		eng.tracer.PacketDrop(int64(eng.Now()), 0, trace.CorruptImpair, frame)
	}
	start := max(tx.busyUntil, at)
	if start-at > l.cfg.MaxBacklog {
		drop(&tx.stats.Drops, eng, trace.DropQueueOverflow, frame)
		return nil
	}
	var txTime Time
	if l.cfg.BandwidthBps > 0 {
		bits := float64(len(frame)) * 8
		txTime = Time(bits / l.cfg.BandwidthBps * float64(Second))
	}
	tx.busyUntil = start + txTime
	tx.stats.Frames++
	tx.stats.Bytes += uint64(len(frame))
	deliverAt := tx.busyUntil + l.cfg.PropDelay + rx.rxDelay
	if l.imp.JitterMax > 0 {
		deliverAt += Time(eng.Rand().Int63n(int64(l.imp.JitterMax) + 1))
		tx.stats.Jittered++
	}
	d := eng.freeDelivers.Get()
	d.rx, d.frame = rx, frame
	eng.crossSchedule(rx.eng, deliverAt, nil, d)
	return d
}

// drop discards a frame the link owns (SendFrom handed it over): it counts
// it on counter, records it, and only then returns its buffer to the frame
// pool.
func drop(counter *uint64, eng *Engine, cause trace.DropCause, frame []byte) {
	*counter++
	eng.tracer.PacketDrop(int64(eng.Now()), 0, cause, frame)
	packet.PutBuffer(frame)
}
