package sim

import (
	"hash/fnv"
	"runtime"
	"testing"
)

// spawnHandler is a typed event used by the determinism workload, exercising
// the AfterEvent path alongside closures.
type spawnHandler struct {
	w     *detWorkload
	id    int
	depth int
}

func (h *spawnHandler) RunEvent() { h.w.visit(h.id, h.depth) }

// detWorkload drives a randomized mix of closure and typed events whose
// entire schedule derives from the engine's seeded rng.
type detWorkload struct {
	e      *Engine
	nextID int
	order  []int
	times  []Time
}

func (w *detWorkload) visit(id, depth int) {
	w.order = append(w.order, id)
	w.times = append(w.times, w.e.Now())
	if depth >= 6 {
		return
	}
	n := w.e.Rand().Intn(3) + 1
	for i := 0; i < n; i++ {
		d := Time(w.e.Rand().Intn(900))
		id := w.nextID
		w.nextID++
		if w.e.Rand().Intn(3) == 0 {
			w.e.AfterEvent(d, &spawnHandler{w: w, id: id, depth: depth + 1})
		} else {
			w.e.After(d, func() { w.visit(id, depth+1) })
		}
	}
}

// runSeeded executes the workload and returns the processed-event count plus
// an FNV-1a fingerprint of the exact (id, time) execution sequence.
func runSeeded(seed int64) (uint64, uint64, Time) {
	e := NewEngine(seed)
	w := &detWorkload{e: e}
	for i := 0; i < 8; i++ {
		id := w.nextID
		w.nextID++
		e.At(Time(i*10), func() { w.visit(id, 0) })
	}
	e.Run()
	h := fnv.New64a()
	var b [8]byte
	for i, id := range w.order {
		v := uint64(id)<<32 | uint64(uint32(w.times[i]))
		for j := 0; j < 8; j++ {
			b[j] = byte(v >> (8 * j))
		}
		h.Write(b[:])
	}
	return e.Processed(), h.Sum64(), e.Now()
}

// TestEngineDeterminismGolden pins the exact seeded behavior of the engine:
// two runs with the same seed must agree event-for-event, different seeds
// must diverge, and seed 42 must reproduce the recorded golden fingerprint —
// guarding the same-deadline-run scheduler against silent ordering drift.
// If a deliberate scheduler change shifts the golden values, re-record them
// from the failure message.
func TestEngineDeterminismGolden(t *testing.T) {
	p1, h1, end1 := runSeeded(42)
	p2, h2, end2 := runSeeded(42)
	if p1 != p2 || h1 != h2 || end1 != end2 {
		t.Fatalf("same seed diverged: (%d,%#x,%d) vs (%d,%#x,%d)", p1, h1, end1, p2, h2, end2)
	}
	if _, h3, _ := runSeeded(43); h3 == h1 {
		t.Fatalf("different seeds produced identical orderings (%#x)", h1)
	}
	const (
		goldenProcessed = uint64(1256)
		goldenHash      = uint64(0xd20e8b784cded982)
	)
	if p1 != goldenProcessed || h1 != goldenHash {
		t.Fatalf("seed 42 fingerprint drifted: processed=%d hash=%#x, want processed=%d hash=%#x",
			p1, h1, goldenProcessed, goldenHash)
	}
}

// TestEngineAfterStepAllocFree locks in the headline property of the
// runs-and-arena queue: a steady-state schedule/execute cycle performs zero
// heap allocations, on a shallow queue and at a packet wave's depth — where
// the arena and run heap must also stop growing once they cover the peak.
func TestEngineAfterStepAllocFree(t *testing.T) {
	t.Run("shallow", func(t *testing.T) {
		e := NewEngine(1)
		fn := func() {}
		// Warm up: grow the arena and run heap past steady state.
		for i := 0; i < 256; i++ {
			e.After(Time(i%7), fn)
		}
		e.Run()
		if allocs := testing.AllocsPerRun(1000, func() {
			e.After(10, fn)
			e.Step()
		}); allocs != 0 {
			t.Fatalf("After+Step allocated %.1f times per op, want 0", allocs)
		}
		// The typed-event path must also be allocation-free given a pooled
		// (here: reused) handler.
		h := &countingHandler{}
		if allocs := testing.AllocsPerRun(1000, func() {
			e.AfterEvent(10, h)
			e.Step()
		}); allocs != 0 {
			t.Fatalf("AfterEvent+Step allocated %.1f times per op, want 0", allocs)
		}
		if h.n != 1000+1 {
			t.Fatalf("handler ran %d times", h.n)
		}
	})
	t.Run("depth", func(t *testing.T) {
		// pkt-wave's shape: 6k events pending over 500 deadlines, 12 each,
		// scheduled four deadlines interleaved at a time.
		const pending, deadlines = 6000, 500
		e := NewEngine(1)
		h := &countingHandler{}
		wave := func() {
			for i := 0; i < pending; i++ {
				e.AfterEvent(Time(i/48*4+i%4)*100, h)
			}
			for e.Step() {
			}
		}
		wave() // unmeasured: grows the arena and run heap to the peak
		grown := cap(e.arena)
		if allocs := testing.AllocsPerRun(1000, wave); allocs != 0 {
			t.Fatalf("a %d-event wave allocated %.1f times, want 0", pending, allocs)
		}
		st := e.QueueStats()
		if st.PeakPending != pending || st.PeakRuns < deadlines {
			t.Fatalf("QueueStats %+v, want %d pending over at least %d runs", st, pending, deadlines)
		}
		// After 1,000 waves the queue holds what one wave needed and no
		// more: a node per peak pending event, at most one run per event.
		if len(e.arena)-1 > st.PeakPending || cap(e.arena) != grown {
			t.Fatalf("arena %d nodes (cap %d, %d after one wave) for peak pending %d",
				len(e.arena)-1, cap(e.arena), grown, st.PeakPending)
		}
		if cap(e.runs) > st.PeakPending {
			t.Fatalf("run heap capacity %d exceeds peak pending %d", cap(e.runs), st.PeakPending)
		}
	})
}

type countingHandler struct{ n int }

func (h *countingHandler) RunEvent() { h.n++ }

// TestLinkForwardAllocFree guards one link traversal: SendFrom plus the Run
// that drains its serialization and delivery events costs 0 allocs/op once
// the engine's free lists are warm.
func TestLinkForwardAllocFree(t *testing.T) {
	e := NewEngine(1)
	delivered := 0
	a, b := &funcNode{}, &funcNode{fn: func(int, []byte) { delivered++ }}
	l := NewLink(e, a, 1, b, 1, LinkConfig{PropDelay: Microsecond, BandwidthBps: 10e9})
	frame := make([]byte, 1500)
	send := func() {
		l.SendFrom(a, frame)
		e.Run()
	}
	send() // warm the free lists
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("SendFrom+Run allocated %.1f times per frame, want 0", allocs)
	}
	if delivered != 1000+2 {
		t.Fatalf("link delivered %d frames, want %d", delivered, 1000+2)
	}
}

// TestLinkEventsRecycleAcrossGC sends waves of frames through
// SendFromAfter → SendFrom → deliver on one engine and collects twice
// between waves: the send and deliver events live on the engine's free
// lists, which the collector leaves alone, so every wave after the first
// allocates nothing. (A sync.Pool is emptied by the second collection.)
func TestLinkEventsRecycleAcrossGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := NewEngine(1)
	delivered := 0
	a, b := &funcNode{}, &funcNode{fn: func(int, []byte) { delivered++ }}
	l := NewLink(e, a, 1, b, 1, LinkConfig{PropDelay: Microsecond, BandwidthBps: 10e9})
	frame := make([]byte, 1500)
	const frames, waves = 64, 10
	wave := func() {
		for i := 0; i < frames; i++ {
			l.SendFromAfter(a, frame, Time(i%4)*Nanosecond)
		}
		e.Run()
	}
	wave() // unmeasured: fills the free lists, arena and run heap
	var before, after runtime.MemStats
	for w := 1; w < waves; w++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		wave()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("wave %d after two collections allocated %d times, want 0", w, n)
		}
	}
	if delivered != frames*waves {
		t.Fatalf("delivered %d frames, want %d", delivered, frames*waves)
	}
}

// TestEngineInterleavedRunsOrdering interleaves same-deadline runs: events
// for one deadline scheduled between events for others must join their run
// and still execute in exact (time, FIFO) order.
func TestEngineInterleavedRunsOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	record := func(id int) func() { return func() { got = append(got, id) } }
	// Open a run at t=50, open others, return to t=50, then schedule earlier
	// and later events around it.
	e.At(50, record(0)) // opens run@50
	e.At(20, record(1)) // opens run@20
	e.At(50, record(2)) // joins run@50
	e.At(10, record(3)) // opens run@10
	e.At(50, record(4)) // joins run@50
	e.At(70, record(5)) // opens run@70
	e.At(20, record(6)) // joins run@20, FIFO after id 1
	e.Run()
	want := []int{3, 1, 6, 0, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 70 || e.Processed() != 7 {
		t.Fatalf("now=%d processed=%d", e.Now(), e.Processed())
	}
}

// TestEngineRunReopenedFromHandler covers a handler scheduling at its own
// instant after its run drained (After(0) reopens the deadline) and a hop
// later, while earlier runs still exist.
func TestEngineRunReopenedFromHandler(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.At(30, func() {
		got = append(got, e.Now())
		e.After(0, func() { got = append(got, e.Now()) }) // same-time re-arm
		e.After(5, func() { got = append(got, e.Now()) })
	})
	e.At(10, func() { got = append(got, e.Now()) })
	e.Run()
	want := []Time{10, 30, 30, 35}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("times %v, want %v", got, want)
		}
	}
}
