package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dumbnet/internal/trace"
)

// maxTime is the largest representable virtual time, used as an "infinitely
// far" sentinel for lookahead and next-event computations.
const maxTime = Time(1<<63 - 1)

// Conservative parallel discrete-event simulation.
//
// A ShardGroup partitions the model across n Engines (shards), each with its
// own event queue, rng stream, tracer, and metrics registry. Shards advance
// concurrently inside bounded time windows [T, T+la) where T is the global
// minimum next-event time and la — the lookahead — is the minimum latency of
// any cross-shard link. A frame sent across shards at time t arrives no
// earlier than t+la >= T+la, i.e. strictly after the window, so every shard
// can execute its events with time < T+la without ever missing an input from
// a concurrent shard. Cross-shard deliveries produced during a window are
// buffered in per-(src,dst) outboxes and merged at the window barrier in
// deterministic (time, source shard, production order) order, which fixes
// each destination engine's sequence-number assignment and therefore the
// whole schedule: a sharded run is reproducible for a given (seed, nShards)
// regardless of how the OS schedules the workers.
//
// When only one shard holds runnable events (bootstrap, a single busy pod)
// the group uses a solo fast path: the shard runs alone, inline on the
// driver goroutine, bounded not by T+la but by the earliest time any other
// shard could possibly act — the minimum of (its first pending event, the
// earliest cross-shard arrival the solo shard has produced this window) plus
// lookahead. This lets lopsided phases run at essentially single-engine
// speed instead of crawling forward one lookahead per barrier.

// crossEvent is one buffered cross-shard event awaiting merge at a barrier.
// Exactly one of fn/h is set, mirroring node.
type crossEvent struct {
	at Time
	fn func()
	h  Handler
}

// ShardGroup owns n shard Engines and advances them in lockstep windows.
// Construction, wiring, and result inspection happen on one goroutine while
// the group is idle; Run/RunUntil/RunFor drive the parallel phase.
type ShardGroup struct {
	shards    []*Engine
	lookahead Time // min cross-shard link latency; maxTime when none registered

	running atomic.Bool

	// outbox[src][dst] buffers cross events produced by shard src for shard
	// dst during the current window. Each (src,dst) cell is written only by
	// src's worker, so no locking is needed; the driver drains all cells at
	// the barrier.
	outbox [][][]crossEvent

	// scratch is the reusable merge buffer.
	scratch []mergeItem

	// next[i] caches shard i's next-event time during window planning.
	next []Time

	work   []chan Time // per-worker window deadlines, shards 1..n-1
	wg     sync.WaitGroup
	closed bool

	// Window accounting: how many barrier windows (>= 2 active shards) and
	// solo fast-path windows the group has executed. The ratio of virtual
	// time advanced to barrier windows is the direct measure of how much a
	// given lookahead (e.g. a WAN interconnect's propagation delay) buys —
	// the federated sharding bench reports it.
	windowsParallel uint64
	windowsSolo     uint64
}

type mergeItem struct {
	ev  crossEvent
	src int
	idx int
}

// NewShardedEngine creates a group of n shards (n >= 1) whose shard 0 is
// seeded with seed exactly (so a single-shard group replays the same rng
// stream as NewEngine(seed)); the remaining shards get distinct
// deterministic seeds derived from it. Each shard has its own metrics
// registry; tracers are attached per shard with Engine.SetTracer.
func NewShardedEngine(seed int64, n int) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShardedEngine with %d shards", n))
	}
	g := &ShardGroup{
		lookahead: maxTime,
		shards:    make([]*Engine, n),
		outbox:    make([][][]crossEvent, n),
		next:      make([]Time, n),
		work:      make([]chan Time, n),
	}
	for i := range g.shards {
		e := NewEngine(shardSeed(seed, i))
		e.group = g
		e.shard = i
		e.owed = make([]int, n)
		g.shards[i] = e
		g.outbox[i] = make([][]crossEvent, n)
	}
	for i := 1; i < n; i++ {
		g.work[i] = make(chan Time)
		go g.worker(i)
	}
	return g
}

// shardSeed derives shard i's rng seed. Shard 0 keeps the user seed
// verbatim; the rest are mixed through a splitmix64 step so neighbouring
// seeds do not produce correlated streams.
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NumShards returns the number of shards in the group.
func (g *ShardGroup) NumShards() int { return len(g.shards) }

// Shard returns shard i's engine. Components placed on shard i must be
// built against — and only ever touch — this engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the window width: the minimum registered cross-shard
// link latency, or maxTime when no cross-shard link exists.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Windows reports how many execution windows the group has run since
// construction: parallel barrier windows (two or more shards dispatched)
// and solo fast-path windows. Fewer barrier windows per unit of virtual
// time means wider windows — the payoff of a larger lookahead.
func (g *ShardGroup) Windows() (parallel, solo uint64) {
	return g.windowsParallel, g.windowsSolo
}

// registerCrossLink narrows the lookahead to the new cross-shard link's
// latency. Called by NewLinkBetween for every link whose endpoints live on
// different shards; a zero or negative latency would collapse the window to
// nothing, so it is rejected as a wiring bug.
func (g *ShardGroup) registerCrossLink(d Time) {
	if d <= 0 {
		panic("sim: cross-shard link needs positive propagation delay (lookahead would be zero)")
	}
	if g.running.Load() {
		panic("sim: cross-shard link added while the group is running")
	}
	if d < g.lookahead {
		g.lookahead = d
	}
}

// Metrics returns every shard's metrics registry, index-aligned with the
// shards. Aggregate with trace.Registry snapshots after a run.
func (g *ShardGroup) Metrics() []*trace.Registry {
	out := make([]*trace.Registry, len(g.shards))
	for i, e := range g.shards {
		out[i] = e.metrics
	}
	return out
}

// Processed sums the event counts of all shards.
func (g *ShardGroup) Processed() uint64 {
	var n uint64
	for _, e := range g.shards {
		n += e.processed
	}
	return n
}

// Pending sums the scheduled-event counts of all shards.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, e := range g.shards {
		n += e.Pending()
	}
	return n
}

// Now returns the group clock: the maximum shard clock. After RunUntil all
// shards agree on the deadline; mid-construction or after a drain the shards
// may differ and the furthest-ahead one defines group time.
func (g *ShardGroup) Now() Time {
	var t Time
	for _, e := range g.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Run executes windows until every shard's queue drains.
func (g *ShardGroup) Run() { g.run(maxTime-1, false) }

// RunUntil executes events with time <= deadline on every shard, then
// advances all shard clocks to the deadline so the group is in a consistent
// instant.
func (g *ShardGroup) RunUntil(deadline Time) { g.run(deadline, true) }

// RunFor advances the whole group d nanoseconds of virtual time past the
// group clock.
func (g *ShardGroup) RunFor(d Time) { g.RunUntil(g.Now() + d) }

// Close shuts down the worker goroutines. The group must be idle. Shard
// engines stay readable (stats, metrics) but the group can no longer run.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for i := 1; i < len(g.shards); i++ {
		close(g.work[i])
	}
}

// worker is the persistent goroutine for shard i >= 1: it executes one
// window per deadline received, then signals the barrier.
func (g *ShardGroup) worker(i int) {
	e := g.shards[i]
	for end := range g.work[i] {
		if shardDebug {
			atomic.StoreInt64(&e.ownerGID, curGoid())
		}
		e.runWindow(end)
		g.wg.Done()
	}
}

// run is the window loop shared by Run and RunUntil. Events with time <=
// deadline execute; when clamp is set, all shard clocks are advanced to the
// deadline afterwards.
func (g *ShardGroup) run(deadline Time, clamp bool) {
	if g.closed {
		panic("sim: ShardGroup used after Close")
	}
	if g.running.Swap(true) {
		panic("sim: ShardGroup.Run reentered (running from inside an event handler?)")
	}
	defer g.running.Store(false)

	la := g.lookahead
	for {
		// Plan the window: global minimum next-event time and the set of
		// shards holding runnable (<= deadline) events.
		T := maxTime
		active, activeCount := -1, 0
		otherMin := maxTime // earliest pending event outside the active shard
		for i, e := range g.shards {
			at, ok := e.nextEventTime()
			if !ok {
				g.next[i] = maxTime
				continue
			}
			g.next[i] = at
			if at < T {
				T = at
			}
			if at <= deadline {
				if activeCount == 0 {
					active = i
				}
				activeCount++
			}
		}
		if activeCount == 0 || T > deadline {
			break
		}

		if activeCount == 1 {
			// Solo fast path: one busy shard runs inline, bounded by the
			// earliest instant any idle shard could act (its first pending
			// event — possibly past the deadline — or a reaction to a cross
			// delivery produced in this very window, each plus lookahead).
			for i := range g.shards {
				if i != active && g.next[i] < otherMin {
					otherMin = g.next[i]
				}
			}
			bound := boundedAdd(otherMin, la)
			if d := deadline + 1; d < bound {
				bound = d
			}
			e := g.shards[active]
			e.crossMin = maxTime
			if shardDebug {
				g.markOwners(active)
			}
			e.runWindowSolo(bound, la)
			g.windowsSolo++
			g.merge()
			continue
		}

		end := boundedAdd(T, la)
		if d := deadline + 1; d < end {
			end = d
		}
		if shardDebug {
			g.markOwners(-1)
		}
		// Dispatch every shard with an event inside the window to its
		// worker; shard 0 runs inline on the driver goroutine.
		runZero := g.next[0] < end
		for i := 1; i < len(g.shards); i++ {
			if g.next[i] < end {
				g.wg.Add(1)
				g.work[i] <- end
			}
		}
		if runZero {
			if shardDebug {
				atomic.StoreInt64(&g.shards[0].ownerGID, curGoid())
			}
			g.shards[0].runWindow(end)
		}
		g.wg.Wait()
		g.windowsParallel++
		g.merge()
	}

	if clamp {
		for _, e := range g.shards {
			e.now, e.cur = max(e.now, deadline), e.seq
		}
	}
}

// markOwners resets per-shard ownership for a new window: the solo shard (or
// nobody, -1) is marked driver-owned; every other shard is ownerless, so a
// stray access from a concurrent handler panics instead of racing.
func (g *ShardGroup) markOwners(solo int) {
	gid := curGoid()
	for i, e := range g.shards {
		if i == solo {
			atomic.StoreInt64(&e.ownerGID, gid)
		} else {
			atomic.StoreInt64(&e.ownerGID, 0)
		}
	}
}

// boundedAdd returns a+b saturating at maxTime.
func boundedAdd(a, b Time) Time {
	if a >= maxTime-b {
		return maxTime
	}
	return a + b
}

// merge drains all outboxes at a window barrier, scheduling buffered cross
// events into their destination shards in (time, source shard, production
// order) order. The ordering fixes destination sequence numbers and is
// independent of worker interleaving, which is what makes sharded runs
// deterministic.
func (g *ShardGroup) merge() {
	for dst := range g.shards {
		g.scratch = g.scratch[:0]
		for src := range g.shards {
			box := g.outbox[src][dst]
			for i := range box {
				g.scratch = append(g.scratch, mergeItem{ev: box[i], src: src, idx: i})
			}
			if src != dst {
				handBack(g.shards[dst], g.shards[src])
			}
			g.outbox[src][dst] = box[:0]
		}
		if len(g.scratch) == 0 {
			continue
		}
		// (at, src, idx) is a total order, so an unstable sort is exact.
		slices.SortFunc(g.scratch, func(x, y mergeItem) int {
			if c := cmp.Compare(x.ev.at, y.ev.at); c != 0 {
				return c
			}
			if c := cmp.Compare(x.src, y.src); c != 0 {
				return c
			}
			return cmp.Compare(x.idx, y.idx)
		})
		d := g.shards[dst]
		for i := range g.scratch {
			it := &g.scratch[i]
			d.enqueue(it.ev.at, it.ev.fn, it.ev.h)
			it.ev = crossEvent{} // release references
		}
	}
}

// crossSchedule schedules an event (fn or h) at absolute time at on engine
// dst, where the caller executes on engine e. Same-engine or idle-group
// calls schedule directly — in a standalone engine this is exactly
// Engine.schedule. Mid-window cross-shard calls buffer into the outbox for
// deterministic merge at the barrier; the lookahead contract (at >= now+la)
// is asserted when shard checks are on.
func (e *Engine) crossSchedule(dst *Engine, at Time, fn func(), h Handler) {
	if dst == e || e.group == nil || !e.group.running.Load() {
		dst.schedule(at, fn, h)
		return
	}
	g := e.group
	if g != dst.group {
		panic("sim: cross-shard schedule between unrelated groups")
	}
	if shardDebug && at < e.now+g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event at t=%d violates lookahead (now=%d la=%d)", at, e.now, g.lookahead))
	}
	if at < e.crossMin {
		e.crossMin = at
	}
	g.outbox[e.shard][dst.shard] = append(g.outbox[e.shard][dst.shard], crossEvent{at: at, fn: fn, h: h})
}

// handBack runs at the barrier, every shard parked. The deliverEvents that
// src took for frames to dst went back to dst's free list when they ran;
// dst hands back as many as it still has spare, so one-way traffic keeps
// each struct with the engine that takes it instead of piling the structs up
// on the receiver's list while the sender allocates fresh ones.
func handBack(dst, src *Engine) {
	n := max(len(dst.freeDelivers)-dst.owed[src.shard], 0)
	src.freeDelivers = append(src.freeDelivers, dst.freeDelivers[n:]...)
	dst.freeDelivers, dst.owed[src.shard] = dst.freeDelivers[:n], 0
}
