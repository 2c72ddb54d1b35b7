// Package sim is a deterministic discrete-event simulator: a virtual clock,
// an event queue, and link primitives with propagation delay, serialization
// at finite bandwidth, bounded queues and failure injection. The DumbNet
// switch and host models execute on top of it, replacing the paper's
// physical testbed and Mininet-style emulator with a reproducible
// laptop-scale substrate.
package sim

import (
	"math/rand"
	"time"

	"dumbnet/internal/trace"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Common virtual durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds converts to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromDuration converts a wall-clock duration into virtual time.
func FromDuration(d time.Duration) Time { return Time(d) }

// Handler is the typed, allocation-free alternative to a closure callback:
// implementations are usually pooled structs whose fields carry the event's
// arguments. RunEvent fires at the scheduled virtual time; a pooled handler
// should copy its fields to locals (or finish using them) and return itself
// to its pool before or after running, never while still scheduled.
type Handler interface {
	RunEvent()
}

// node is one pending event in the engine's arena: either a closure (fn) or
// a typed Handler (h), exactly one set, and the arena index of the next
// event of its run (0 ends the run; arena slot 0 is never an event).
type node struct {
	fn   func()
	h    Handler
	next int32
}

// run is a FIFO chain of pending events sharing one deadline. seq is the
// schedule number of its first event: runs ordered by (at, seq), each
// drained front to back, execute in exactly (time, schedule order).
type run struct {
	at   Time
	seq  uint64
	head int32
}

// runHeap is a concrete-typed binary min-heap of runs. It deliberately does
// not use container/heap: boxing through `any` in Push/Pop allocates on
// every operation.
type runHeap []run

func (h runHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// The engine pushes (append, then up) and pops (last run to the root, then
// down) inline, so a queue holding one run — the shallow case — never calls
// into a sift loop.
func (h runHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h runHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		least := l
		if r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// newestRun is one slot of the newest-run table: the deadline, first seq and
// tail node of the newest run opened on a deadline hashing to the slot, so a
// later event for that deadline joins it in O(1). seq == 0 marks an empty
// slot (real seqs start at 1).
type newestRun struct {
	at   Time
	seq  uint64
	tail int32
}

// newestRuns sizes the newest-run table: 256 slots, 6 KiB per engine. A
// pkt-wave round keeps ~510 deadlines pending at ~9 events each; with 256
// slots its pending events sit ~6 to a run. A miss only opens a second run
// for the deadline — a heap push, no change in order — so the size trades
// joins against a table that stays in L1 and costs little per engine
// (chaos-soak builds one per round).
const newestRuns = 256

// slotOf hashes a deadline into the newest-run table (Fibonacci hashing:
// the top 8 bits of a multiplicative hash, so deadlines a serialization
// quantum apart spread across slots).
func slotOf(t Time) int { return int(uint64(t) * 0x9E3779B97F4A7C15 >> 56) }

// QueueStats is the engine queue's high-water marks. PeakPending ÷ PeakRuns,
// events per run, is what decides how much the run heap saves over
// ordering events one by one: ~6 on pkt-wave, ~1 on chaos-soak.
type QueueStats struct {
	PeakPending int // most events pending at once
	PeakRuns    int // most same-deadline runs pending at once
}

// Engine is the simulation core. It is single-threaded: all event handlers
// run sequentially in virtual-time order, so models need no locking.
//
// The queue orders deadlines, not events. Pending events live in an arena
// (reused through a free list) chained into runs — one FIFO per deadline —
// and a binary heap orders the runs by (deadline, seq of the first event).
// Packet workloads schedule in same-deadline bursts (a switch forwarding a
// batch at now+ForwardDelay, a link delivering at one serialization
// boundary): pkt-wave keeps ~6 pending events per run, so the heap orders a
// sixth as many entries as an event heap would. The newest-run table finds
// the open run for a deadline in O(1). Arena, heap and table keep their
// storage, so a steady-state schedule/execute cycle allocates nothing.
type Engine struct {
	now       Time
	arena     []node // arena[0] is the nil link, never an event
	free      int32  // head of the free-node list, 0 when empty
	runs      runHeap
	newest    [newestRuns]newestRun
	pending   int
	stats     QueueStats
	seq       uint64
	rng       *rand.Rand
	processed uint64
	tracer    *trace.Recorder
	metrics   *trace.Registry

	// Sharding state. A standalone engine (NewEngine) has group == nil and
	// behaves exactly as before; an engine created by NewShardedEngine is
	// one shard of a ShardGroup and advances only inside the group's
	// conservative time windows.
	group *ShardGroup
	shard int
	// ownerGID is the goroutine ID of the worker currently executing this
	// shard's window; maintained only when shard-affinity checks are on.
	ownerGID int64
	// crossMin is the earliest cross-shard arrival produced during the
	// current window (dynamic solo-window bound); reset each window.
	crossMin Time
}

// NewEngine creates an engine whose randomness is derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), metrics: trace.NewRegistry()}
}

// Now returns the current virtual time. In a sharded run Now is shard-affine:
// calling it from another shard's event handler is a determinism bug, and
// panics when shard checks are enabled (-race builds or
// DUMBNET_SHARD_CHECKS=1).
func (e *Engine) Now() Time {
	if e.group != nil {
		e.checkAffinity("Now")
	}
	return e.now
}

// Rand returns the engine's deterministic random source. Like Now, Rand is
// shard-affine: each shard owns an independent seeded stream, and drawing
// from another shard's stream would silently skew both schedules. Misuse
// panics when shard checks are enabled.
func (e *Engine) Rand() *rand.Rand {
	if e.group != nil {
		e.checkAffinity("Rand")
	}
	return e.rng
}

// Shard returns this engine's shard index within its group (0 for a
// standalone engine).
func (e *Engine) Shard() int { return e.shard }

// Group returns the owning shard group, nil for a standalone engine.
func (e *Engine) Group() *ShardGroup { return e.group }

// SetTracer attaches a flight recorder. Every component holds the engine,
// so this single hook wires tracing through the whole model; nil (the
// default) disables recording, and trace.Recorder methods are nil-safe so
// call sites need no guards.
func (e *Engine) SetTracer(t *trace.Recorder) { e.tracer = t }

// Tracer returns the attached flight recorder (nil when tracing is off).
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// Metrics returns the engine's unified metrics registry. It always exists:
// instruments are cheap, and components register their counters
// unconditionally.
func (e *Engine) Metrics() *trace.Registry { return e.metrics }

// Processed reports how many events have executed.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are scheduled.
func (e *Engine) Pending() int { return e.pending }

// QueueStats reports the queue's high-water marks since construction.
func (e *Engine) QueueStats() QueueStats { return e.stats }

// schedule enqueues one event (fn or h) at absolute time t, enforcing shard
// affinity in sharded runs.
func (e *Engine) schedule(t Time, fn func(), h Handler) {
	if e.group != nil {
		e.checkAffinity("schedule")
	}
	e.enqueue(t, fn, h)
}

// enqueue is schedule without the affinity guard — the barrier merge calls
// it from the driver goroutine while shard ownership is parked.
func (e *Engine) enqueue(t Time, fn func(), h Handler) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	n := e.free
	if n != 0 {
		e.free = e.arena[n].next
		e.arena[n] = node{fn: fn, h: h}
	} else {
		if len(e.arena) == 0 {
			e.arena = append(e.arena, node{}) // index 0: the nil link
		}
		n = int32(len(e.arena))
		e.arena = append(e.arena, node{fn: fn, h: h})
	}
	if e.pending++; e.pending > e.stats.PeakPending {
		e.stats.PeakPending = e.pending
	}
	s := &e.newest[slotOf(t)]
	if s.seq != 0 && s.at == t {
		e.arena[s.tail].next = n
		s.tail = n
		return
	}
	// No open run for t in its slot: open one and make it the slot's newest.
	// An older run it displaces (same deadline or not) is sealed; its events
	// all carry smaller seqs, so it still drains first.
	*s = newestRun{at: t, seq: e.seq, tail: n}
	e.runs = append(e.runs, run{at: t, seq: e.seq, head: n})
	e.runs.up(len(e.runs) - 1)
	if len(e.runs) > e.stats.PeakRuns {
		e.stats.PeakRuns = len(e.runs)
	}
}

// At schedules fn at absolute virtual time t (clamped to now).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn, nil) }

// After schedules fn d nanoseconds of virtual time from now.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, fn, nil) }

// AtEvent schedules a typed handler at absolute virtual time t (clamped to
// now). Unlike At, it allocates nothing: the handler is typically a pooled
// struct carrying its own arguments.
func (e *Engine) AtEvent(t Time, h Handler) { e.schedule(t, nil, h) }

// AfterEvent schedules a typed handler d nanoseconds of virtual time from
// now.
func (e *Engine) AfterEvent(d Time, h Handler) { e.schedule(e.now+d, nil, h) }

// nextEventTime returns the earliest scheduled deadline; ok is false when no
// events remain.
func (e *Engine) nextEventTime() (at Time, ok bool) {
	if len(e.runs) == 0 {
		return 0, false
	}
	return e.runs[0].at, true
}

// Step executes the next event; it reports false when none remain.
func (e *Engine) Step() bool {
	if len(e.runs) == 0 {
		return false
	}
	r := &e.runs[0]
	at, i := r.at, r.head
	nd := &e.arena[i]
	fn, h := nd.fn, nd.h
	if r.head = nd.next; r.head == 0 {
		// The run drained: unlist it, so the next event for at opens a
		// fresh run behind anything already pending.
		if s := &e.newest[slotOf(at)]; s.seq == r.seq {
			s.seq = 0
		}
		last := len(e.runs) - 1
		e.runs[0] = e.runs[last]
		e.runs = e.runs[:last]
		if last > 1 {
			e.runs.down(0)
		}
	}
	*nd = node{next: e.free} // release callback references
	e.free = i
	e.pending--
	e.now = at
	e.processed++
	if fn != nil {
		fn()
	} else {
		h.RunEvent()
	}
	return true
}

// Run executes events until the queue drains. For a sharded engine, Run
// drives the whole group: every shard advances through conservative windows
// until no shard holds an event.
func (e *Engine) Run() {
	if e.group != nil {
		e.group.Run()
		return
	}
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline, then advances the clock to
// the deadline. Events scheduled later stay queued. For a sharded engine it
// advances the whole group to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	if e.group != nil {
		e.group.RunUntil(deadline)
		return
	}
	for {
		at, ok := e.nextEventTime()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d nanoseconds of virtual time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// runWindow executes this shard's events with time strictly before end.
// The clock is left at the last executed event; the group advances it to
// the window boundary only when a deadline requires it.
func (e *Engine) runWindow(end Time) {
	for {
		at, ok := e.nextEventTime()
		if !ok || at >= end {
			return
		}
		e.Step()
	}
}

// runWindowSolo is runWindow for a window in which every other shard is
// idle: the bound tightens dynamically to crossMin+la — the earliest time
// another shard could react to something this shard sent — letting a lone
// active shard (bootstrap, discovery, a busy pod) run far past the static
// lookahead without waking the workers.
func (e *Engine) runWindowSolo(end, la Time) {
	for {
		limit := end
		if e.crossMin < maxTime && e.crossMin+la < limit {
			limit = e.crossMin + la
		}
		at, ok := e.nextEventTime()
		if !ok || at >= limit {
			return
		}
		e.Step()
	}
}
