package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The engine's queue as it stood before same-deadline runs replaced it: a
// binary heap of events plus one same-deadline bucket, moved here verbatim
// as the reference the runs-and-arena queue must match event for event.

// event is one scheduled callback: either a closure (fn) or a typed Handler
// (h). Exactly one of the two is set.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for same-time events
	fn  func()
	h   Handler
}

// before orders events by (time, schedule order).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (e *event) run() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.h.RunEvent()
}

// eventHeap is a concrete-typed binary min-heap of events. It deliberately
// does not use container/heap: boxing events through `any` in Push/Pop
// allocates on every operation, which dominated the event loop's cost.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release callback references for the GC
	*h = s[:n]
	if n > 1 {
		h.down(0)
	}
	return top
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		least := l
		if r < n && h[r].before(&h[l]) {
			least = r
		}
		if !h[least].before(&h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// oracleQueue holds the old Engine's queue fields; its methods are the old
// Engine's enqueue, Pending, nextEventTime and Step bodies.
type oracleQueue struct {
	now       Time
	events    eventHeap
	bucket    []event // events sharing the bucketAt deadline, FIFO
	bucketAt  Time
	bucketPos int // next unconsumed bucket entry
	seq       uint64
}

func (e *oracleQueue) enqueue(t Time, fn func(), h Handler) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn, h: h}
	if e.bucketPos == len(e.bucket) {
		// Bucket drained: re-arm it on this deadline.
		e.bucket = append(e.bucket[:0], ev)
		e.bucketPos = 0
		e.bucketAt = t
		return
	}
	if t == e.bucketAt {
		e.bucket = append(e.bucket, ev)
		return
	}
	e.events.push(ev)
}

func (e *oracleQueue) Pending() int {
	return len(e.events) + (len(e.bucket) - e.bucketPos)
}

func (e *oracleQueue) nextEventTime() (at Time, ok bool) {
	inBucket := e.bucketPos < len(e.bucket)
	switch {
	case inBucket && len(e.events) > 0:
		if e.bucketAt <= e.events[0].at {
			return e.bucketAt, true
		}
		return e.events[0].at, true
	case inBucket:
		return e.bucketAt, true
	case len(e.events) > 0:
		return e.events[0].at, true
	}
	return 0, false
}

func (e *oracleQueue) Step() bool {
	var ev event
	inBucket := e.bucketPos < len(e.bucket)
	switch {
	case !inBucket && len(e.events) == 0:
		return false
	case inBucket && (len(e.events) == 0 || e.bucket[e.bucketPos].before(&e.events[0])):
		ev = e.bucket[e.bucketPos]
		e.bucket[e.bucketPos] = event{} // release callback references
		e.bucketPos++
		if e.bucketPos == len(e.bucket) {
			e.bucket = e.bucket[:0]
			e.bucketPos = 0
		}
	default:
		ev = e.events.pop()
	}
	e.now = ev.at
	ev.run()
	return true
}

// testQueue is what the oracle test drives: the engine, or the oracle under
// the engine's RunUntil / runWindow / runWindowSolo loops.
type testQueue interface {
	at(t Time, fn func())
	step() bool
	clock() Time
	pending() int
	next() (Time, bool)
	runUntil(deadline Time)
	runWindow(end Time)
	runWindowSolo(end, la, crossMin Time)
}

type engineQueue struct{ e *Engine }

func (q engineQueue) at(t Time, fn func())   { q.e.At(t, fn) }
func (q engineQueue) step() bool             { return q.e.Step() }
func (q engineQueue) clock() Time            { return q.e.now }
func (q engineQueue) pending() int           { return q.e.Pending() }
func (q engineQueue) next() (Time, bool)     { return q.e.nextEventTime() }
func (q engineQueue) runUntil(deadline Time) { q.e.RunUntil(deadline) }
func (q engineQueue) runWindow(end Time)     { q.e.runWindow(end) }
func (q engineQueue) runWindowSolo(end, la, crossMin Time) {
	q.e.crossMin = crossMin
	q.e.runWindowSolo(end, la)
}

type oracleAdapter struct{ o *oracleQueue }

func (q oracleAdapter) at(t Time, fn func()) { q.o.enqueue(t, fn, nil) }
func (q oracleAdapter) step() bool           { return q.o.Step() }
func (q oracleAdapter) clock() Time          { return q.o.now }
func (q oracleAdapter) pending() int         { return q.o.Pending() }
func (q oracleAdapter) next() (Time, bool)   { return q.o.nextEventTime() }

func (q oracleAdapter) runUntil(deadline Time) {
	for {
		at, ok := q.o.nextEventTime()
		if !ok || at > deadline {
			break
		}
		q.o.Step()
	}
	if q.o.now < deadline {
		q.o.now = deadline
	}
}

func (q oracleAdapter) runWindow(end Time) {
	for {
		at, ok := q.o.nextEventTime()
		if !ok || at >= end {
			return
		}
		q.o.Step()
	}
}

// runWindowSolo is Engine.runWindowSolo with crossMin fixed: on a
// standalone engine nothing lowers it mid-window.
func (q oracleAdapter) runWindowSolo(end, la, crossMin Time) {
	limit := end
	if crossMin < maxTime && crossMin+la < limit {
		limit = crossMin + la
	}
	q.runWindow(limit)
}

// execRec is one executed event: its id and the clock it ran at.
type execRec struct {
	id int
	at Time
}

// side is one queue under test and the program running on it. Every
// event's handler records itself and then, as a deterministic function of
// its id, may schedule a child — After(0) into the run being drained, a
// short hop, or a time in the past — so both sides run the same program for
// as long as they execute the same events in the same order.
type side struct {
	q    testQueue
	ids  int
	log  []execRec
	seed int64
}

func (s *side) schedule(t Time) {
	id := s.ids
	s.ids++
	s.q.at(t, func() { s.handle(id) })
}

func (s *side) handle(id int) {
	now := s.q.clock()
	s.log = append(s.log, execRec{id, now})
	h := splitmix(uint64(s.seed)<<32 ^ uint64(id))
	switch h % 8 {
	case 0, 1: // same instant: joins the run being drained, or reopens it
		s.schedule(now)
	case 2: // a short hop, often onto a run already pending
		s.schedule(now + Time(h>>8%4)*10)
	case 3: // in the past: clamped to now
		s.schedule(now - Time(h>>8%50) - 1)
	}
}

func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// collidingTimes returns the first n times that hash to the newest-run
// table slot of time 0, so deadlines drawn from them fight over one slot.
func collidingTimes(n int) []Time {
	slot := slotOf(0)
	var out []Time
	for t := Time(0); len(out) < n; t++ {
		if slotOf(t) == slot {
			out = append(out, t)
		}
	}
	return out
}

// TestQueueMatchesOracle drives seeded random schedules through the engine
// and the old heap-plus-bucket queue side by side and requires the same
// (id, time) execution sequence, Pending(), next deadline and clock after
// every operation: batches of driver-scheduled events, single steps, and
// RunUntil / runWindow / runWindowSolo boundaries placed just before, at
// and just past the next deadline, with handlers scheduling into the run
// being drained, onto other pending runs and into the past.
func TestQueueMatchesOracle(t *testing.T) {
	collide := collidingTimes(1 << 12)
	// nearCollide picks among the next k colliding times at or after now.
	nearCollide := func(r *rand.Rand, now Time, k int) Time {
		i := 0
		for i < len(collide)-k && collide[i] < now {
			i++
		}
		return collide[i+r.Intn(k)]
	}
	modes := []struct {
		name     string
		deadline func(r *rand.Rand, now Time) Time
	}{
		{"dense", func(r *rand.Rand, now Time) Time { return now + Time(r.Intn(8))*10 }},
		{"sparse", func(r *rand.Rand, now Time) Time { return now + Time(r.Int63n(int64(Second))) }},
		// Four deadlines sharing one slot: repeated draws of one deadline
		// join its run; interleaved draws displace each other and open
		// second runs for the same deadline.
		{"colliding", func(r *rand.Rand, now Time) Time { return nearCollide(r, now, 4) }},
		{"past", func(r *rand.Rand, now Time) Time { return now - Time(r.Intn(100)) + Time(r.Intn(3))*10 }},
		{"mixed", func(r *rand.Rand, now Time) Time {
			switch r.Intn(4) {
			case 0:
				return now + Time(r.Intn(4))*10
			case 1:
				return now + Time(r.Int63n(int64(Microsecond)))
			case 2:
				return nearCollide(r, now, 3)
			}
			return now - Time(r.Intn(20))
		}},
	}
	for _, m := range modes {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", m.name, seed), func(t *testing.T) {
				checkAgainstOracle(t, seed, m.name, m.deadline)
			})
		}
	}
}

// checkAgainstOracle runs one seeded schedule on both queues. Unless the
// mode is sparse (deadlines drawn from a second's worth of nanoseconds
// rarely repeat), events must have joined pending runs; in the colliding
// mode a deadline must also have had two runs pending at once.
func checkAgainstOracle(t *testing.T, seed int64, mode string, deadline func(*rand.Rand, Time) Time) {
	dense, colliding := mode != "sparse", mode == "colliding"
	e := NewEngine(seed)
	eng := &side{q: engineQueue{e}, seed: seed}
	ora := &side{q: oracleAdapter{&oracleQueue{}}, seed: seed}
	r := rand.New(rand.NewSource(seed))
	var sawJoin, sawSecondRun, sawSlotDrain bool
	runAt := map[uint64]Time{} // pending run seq -> deadline
	runsPer := map[Time]int{}  // deadline -> pending runs
	op, checked := 0, 0
	compare := func(what string) {
		t.Helper()
		if len(eng.log) != len(ora.log) {
			t.Fatalf("op %d (%s): engine ran %d events, oracle %d", op, what, len(eng.log), len(ora.log))
		}
		for i := checked; i < len(eng.log); i++ {
			if eng.log[i] != ora.log[i] {
				t.Fatalf("op %d (%s): event %d is %+v, oracle %+v", op, what, i, eng.log[i], ora.log[i])
			}
		}
		checked = len(eng.log)
		if a, b := eng.q.pending(), ora.q.pending(); a != b {
			t.Fatalf("op %d (%s): Pending() %d, oracle %d", op, what, a, b)
		}
		at1, ok1 := eng.q.next()
		at2, ok2 := ora.q.next()
		if at1 != at2 || ok1 != ok2 {
			t.Fatalf("op %d (%s): next deadline (%d,%v), oracle (%d,%v)", op, what, at1, ok1, at2, ok2)
		}
		if a, b := eng.q.clock(), ora.q.clock(); a != b {
			t.Fatalf("op %d (%s): clock %d, oracle %d", op, what, a, b)
		}
		// Invariants and coverage, read off the engine's internals.
		if e.pending > len(e.runs) {
			sawJoin = true
		}
		clear(runAt)
		clear(runsPer)
		for _, rn := range e.runs {
			runAt[rn.seq] = rn.at
			if runsPer[rn.at]++; runsPer[rn.at] > 1 {
				sawSecondRun = true
			}
		}
		for s, nr := range e.newest {
			if at, listed := runAt[nr.seq]; nr.seq != 0 && (!listed || at != nr.at) {
				t.Fatalf("op %d (%s): slot %d names a run that is no longer pending", op, what, s)
			}
		}
		if len(e.arena)-1 > e.stats.PeakPending {
			t.Fatalf("op %d (%s): arena holds %d nodes at peak pending %d: freed nodes not reused",
				op, what, len(e.arena)-1, e.stats.PeakPending)
		}
	}
	for op = 0; op < 3000; op++ {
		switch k := r.Intn(20); {
		case k < 6: // a batch at driver-chosen deadlines
			for n := 1 + r.Intn(6); n > 0; n-- {
				at := deadline(r, eng.q.clock())
				eng.schedule(at)
				ora.schedule(at)
			}
			compare("schedule")
		case k < 17:
			// About to drain a run whose table slot still names it?
			if len(e.runs) > 0 {
				top := e.runs[0]
				s := e.newest[slotOf(top.at)]
				sawSlotDrain = sawSlotDrain || (e.arena[top.head].next == 0 && s.seq == top.seq)
			}
			eng.q.step()
			ora.q.step()
			compare("step")
		default: // a boundary just before, at or just past the next deadline
			at, ok := eng.q.next()
			if !ok {
				continue
			}
			cut := at + Time(r.Intn(3)) - 1
			switch r.Intn(3) {
			case 0:
				eng.q.runUntil(cut)
				ora.q.runUntil(cut)
				compare("RunUntil")
			case 1:
				eng.q.runWindow(cut)
				ora.q.runWindow(cut)
				compare("runWindow")
			default:
				end, crossMin := cut+Time(r.Intn(100)), at+Time(r.Intn(40))
				eng.q.runWindowSolo(end, 5, crossMin)
				ora.q.runWindowSolo(end, 5, crossMin)
				compare("runWindowSolo")
			}
		}
	}
	for eng.q.step() {
		ora.q.step()
		compare("drain")
	}
	compare("drain")
	if dense && !sawJoin {
		t.Error("no event ever joined a pending run")
	}
	if colliding && !sawSecondRun {
		t.Error("never opened a second run for one deadline")
	}
	if !sawSlotDrain {
		t.Error("no run ever drained while the table named it")
	}
}
