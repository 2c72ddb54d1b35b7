package flowsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestIncrementalMatchesOracle drives randomized event sequences (adds,
// reroutes, capacity flaps, time advances) and after every event compares
// the incremental component-restricted waterfill against the brute-force
// full progressive-filling pass. Rates must be BIT-identical: max-min
// allocation decomposes over connected components of the flow↔link
// sharing graph, and the incremental path replays the exact per-component
// fix sequence of the full pass.
func TestIncrementalMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork()
		nLinks := 12
		baseCap := make([]float64, nLinks)
		for i := 0; i < nLinks; i++ {
			baseCap[i] = float64(rng.Intn(9)+1) * 25
			n.AddLink(baseCap[i])
		}
		s := NewSimulator(n)
		var live []*Flow
		nextID := 0

		randPath := func() []LinkID {
			hops := rng.Intn(4) + 1
			p := make([]LinkID, hops)
			for i := range p {
				p[i] = LinkID(rng.Intn(nLinks))
			}
			if rng.Intn(5) == 0 { // duplicate a link on purpose
				p = append(p, p[0])
			}
			return p
		}

		for step := 0; step < 250; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // add a flow
				f := &Flow{
					ID:   nextID,
					Path: randPath(),
					Size: float64(rng.Intn(5000) + 500),
				}
				nextID++
				if rng.Intn(5) == 0 {
					f.RateCap = float64(rng.Intn(40) + 1)
				}
				if rng.Intn(12) == 0 {
					f.Path = nil // pathless
				}
				if rng.Intn(6) == 0 {
					f.Start = s.Now() + rng.Float64()*0.5
				}
				live = append(live, f)
				s.Add(f)
			case op < 6: // reroute a live flow
				if len(live) == 0 {
					continue
				}
				f := live[rng.Intn(len(live))]
				if f.Finished {
					continue
				}
				s.Reroute(f, randPath())
			case op < 8: // capacity flap
				l := LinkID(rng.Intn(nLinks))
				if rng.Intn(3) == 0 {
					n.SetCapacity(l, 0)
				} else {
					n.SetCapacity(l, baseCap[int(l)]*(0.5+rng.Float64()))
				}
			default: // advance time
				s.RunUntil(s.Now() + rng.Float64()*2)
			}
			checkOracle(t, s, live, seed, step)
		}

		// Two flows on link 0 leave the finish heap when it fails and come
		// back when it heals; a reroute onto an empty path then turns one
		// pathless, and it completes at once.
		n.SetCapacity(0, baseCap[0])
		a := &Flow{ID: nextID, Path: []LinkID{0}, Size: 1e9}
		b := &Flow{ID: nextID + 1, Path: []LinkID{0}, Size: 1e9}
		live = append(live, a, b)
		s.Add(a)
		s.Add(b)
		for i, c := range []float64{baseCap[0], 0, baseCap[0]} {
			n.SetCapacity(0, c)
			checkOracle(t, s, live, seed, 250+i)
			if held := a.finPos >= 0 && b.finPos >= 0; held != (c > 0) {
				t.Fatalf("seed %d: link 0 at capacity %v, its flows hold finish entries: %v", seed, c, held)
			}
		}
		s.Reroute(a, nil)
		checkOracle(t, s, live, seed, 253)
		s.RunUntil(s.Now())
		if !a.Finished || a.End != s.Now() {
			t.Fatalf("seed %d: pathless flow finished=%v end=%v at t=%v", seed, a.Finished, a.End, s.Now())
		}
		checkOracle(t, s, live, seed, 254)
		s.Run()
	}
}

// checkOracle settles s, checks that only flows whose rate changed were
// re-anchored, checks the finish heap, then recomputes every active flow's
// rate with the brute-force allocate() pass and fails unless both are
// bit-identical.
func checkOracle(t *testing.T, s *Simulator, live []*Flow, seed int64, step int) {
	t.Helper()
	before := anchorsOf(s)
	s.settle()
	before.check(t, s, seed, step)
	checkFinHeap(t, s, live, seed, step)
	type snap struct {
		f *Flow
		r uint64
	}
	snaps := make([]snap, 0, len(s.active))
	for _, f := range s.active {
		snaps = append(snaps, snap{f, math.Float64bits(f.rate)})
	}
	s.allocate() // oracle: full recompute from scratch
	for _, sn := range snaps {
		if got := math.Float64bits(sn.f.rate); got != sn.r {
			t.Fatalf("seed %d step %d flow %d: incremental rate %x (%v) != oracle %x (%v)",
				seed, step, sn.f.ID, sn.r, math.Float64frombits(sn.r), got, sn.f.rate)
		}
	}
}

// anchor is a flow's rate and what that rate drains from: its remainder,
// the time it was last drained, and the finish its entry holds.
type anchor struct {
	f                  *Flow
	rate               uint64
	upd, remaining, at float64
}

// anchors is a snapshot of every active flow's anchor.
type anchors []anchor

// finAt is the finish f's entry holds, or -1 when it holds none.
func finAt(s *Simulator, f *Flow) float64 {
	if f.finPos < 0 {
		return -1
	}
	return s.fins[f.finPos].at
}

// anchorsOf snapshots every active flow's rate and anchor.
func anchorsOf(s *Simulator) anchors {
	a := make(anchors, 0, len(s.active))
	for _, f := range s.active {
		a = append(a, anchor{f, math.Float64bits(f.rate), f.upd, f.remaining, finAt(s, f)})
	}
	return a
}

// check fails if a flow still active whose rate bits did not change since
// the snapshot was drained or had its finish re-projected: only a rate
// change re-anchors a flow.
func (a anchors) check(t *testing.T, s *Simulator, seed int64, step int) {
	t.Helper()
	for _, was := range a {
		f := was.f
		if !f.active || math.Float64bits(f.rate) != was.rate {
			continue
		}
		if f.upd != was.upd || f.remaining != was.remaining || finAt(s, f) != was.at {
			t.Fatalf("seed %d step %d flow %d: rate %v unchanged, but (upd, remaining, finish) moved (%v, %v, %v) -> (%v, %v, %v)",
				seed, step, f.ID, f.rate, was.upd, was.remaining, was.at, f.upd, f.remaining, finAt(s, f))
		}
	}
}

// checkFinHeap asserts the finish heap's invariant over every flow added to
// s: an active flow with a positive or infinite rate owns exactly one
// entry, at its finPos, keyed by its aseq and the finish its rate projects
// from its last drain; a stalled, finished or not-yet-started flow owns
// none; and the heap order holds.
func checkFinHeap(t *testing.T, s *Simulator, live []*Flow, seed int64, step int) {
	t.Helper()
	h := s.fins
	for i, e := range h {
		if int(e.f.finPos) != i {
			t.Fatalf("seed %d step %d: entry %d holds flow %d, whose finPos is %d", seed, step, i, e.f.ID, e.f.finPos)
		}
		if i > 0 && e.before(h[(i-1)/2]) {
			t.Fatalf("seed %d step %d: finish heap out of order at entry %d", seed, step, i)
		}
	}
	holders := 0
	for _, f := range live {
		if !f.active || f.rate <= 0 {
			if f.finPos != -1 {
				t.Fatalf("seed %d step %d: flow %d (active %v, finished %v, rate %v) holds entry %d, want none",
					seed, step, f.ID, f.active, f.Finished, f.rate, f.finPos)
			}
			continue
		}
		holders++
		if f.finPos < 0 {
			t.Fatalf("seed %d step %d: flow %d at rate %v holds no finish entry", seed, step, f.ID, f.rate)
		}
		at := f.upd
		if !math.IsInf(f.rate, 1) {
			if d := f.remaining / f.rate; d >= 1e-12 {
				at = f.upd + d
			}
		}
		if e := h[f.finPos]; e.aseq != f.aseq || e.at != at {
			t.Fatalf("seed %d step %d: flow %d entry (at %v, aseq %d), want (%v, %d)",
				seed, step, f.ID, e.at, e.aseq, at, f.aseq)
		}
	}
	if holders != len(h) {
		t.Fatalf("seed %d step %d: %d finish entries for %d flows with a rate", seed, step, len(h), holders)
	}
}

// leafSpine is an in-package fluid graph shaped like a two-tier Clos:
// every host has an uplink and a downlink, every leaf a directed link to
// and from every spine. All links share one capacity, so fair shares tie
// often and the waterfill's link-index tie-break decides the fix order.
type leafSpine struct {
	n                     *Network
	leaves, spines, hosts int // hosts per leaf
}

func newLeafSpine(leaves, spines, hosts int, capBps float64) *leafSpine {
	ls := &leafSpine{n: NewNetwork(), leaves: leaves, spines: spines, hosts: hosts}
	for i := 0; i < 2*leaves*hosts+2*leaves*spines; i++ {
		ls.n.AddLink(capBps)
	}
	return ls
}

func (ls *leafSpine) numHosts() int { return ls.leaves * ls.hosts }

// path routes host src to host dst through spine sp (ignored within a leaf).
func (ls *leafSpine) path(src, dst, sp int) []LinkID {
	up, down := LinkID(2*src), LinkID(2*dst+1)
	sl, dl := src/ls.hosts, dst/ls.hosts
	if sl == dl {
		return []LinkID{up, down}
	}
	fabric := 2 * ls.numHosts()
	toSpine := LinkID(fabric + 2*(sl*ls.spines+sp))
	fromSpine := LinkID(fabric + 2*(dl*ls.spines+sp) + 1)
	return []LinkID{up, toSpine, fromSpine, down}
}

// component walks the flow↔link sharing graph from the given links,
// marking each link it reaches in seen, and counts the links and flows
// it reaches.
func component(s *Simulator, from []LinkID, seen []bool) (links, flows int) {
	var q []LinkID
	reach := func(l LinkID) {
		if !seen[l] {
			seen[l] = true
			q = append(q, l)
		}
	}
	for _, l := range from {
		reach(l)
	}
	counted := map[*Flow]bool{}
	for qi := 0; qi < len(q); qi++ {
		for _, f := range s.linkFlows[q[qi]] {
			if !counted[f] {
				counted[f] = true
				for _, l := range f.uniq {
					reach(l)
				}
			}
		}
	}
	return len(q), len(counted)
}

// largestComponent returns the link count of the largest connected
// component of the flow↔link sharing graph.
func largestComponent(s *Simulator) int {
	seen := make([]bool, len(s.linkFlows))
	best := 0
	for start := range s.linkFlows {
		if !seen[start] && len(s.linkFlows[start]) > 0 {
			links, _ := component(s, []LinkID{LinkID(start)}, seen)
			best = max(best, links)
		}
	}
	return best
}

// TestIncrementalMatchesOracleLarge is the oracle test at the component
// sizes the HiBench shuffle produces: a few hundred multi-hop flows couple
// more than 600 equal-capacity links into one component, then adds,
// completions, reroutes and capacity flaps each re-waterfill it, and the
// rates must stay bit-identical to allocate() after every step. A
// completion-only phase then checks every settle that resumes at a
// finished flow's frontier, and that together they re-fill fewer flows
// than the components the finished flows left, and a last phase finishes
// flows of two separately settled components in one tick, which must fill
// from zero.
func TestIncrementalMatchesOracleLarge(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls := newLeafSpine(16, 16, 8, 100)
		s := NewSimulator(ls.n)
		var live []*Flow
		add := func() {
			src, dst := rng.Intn(ls.numHosts()), rng.Intn(ls.numHosts())
			f := &Flow{
				ID:   len(live),
				Path: ls.path(src, dst, rng.Intn(ls.spines)),
				Size: float64(rng.Intn(800) + 200),
			}
			if rng.Intn(8) == 0 {
				f.RateCap = float64(rng.Intn(4)+1) * 5
			}
			live = append(live, f)
			s.Add(f)
		}
		for i := 0; i < 480; i++ {
			add()
		}
		if c := largestComponent(s); c < 600 {
			t.Fatalf("seed %d: largest component has %d links, want >= 600", seed, c)
		}
		checkOracle(t, s, live, seed, -1)
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				add()
			case op < 5: // reroute a live flow through another spine
				f := live[rng.Intn(len(live))]
				if f.Finished {
					continue
				}
				src, dst := int(f.Path[0])/2, int(f.Path[len(f.Path)-1])/2
				s.Reroute(f, ls.path(src, dst, rng.Intn(ls.spines)))
			case op < 7: // flap a link to zero, half or full capacity
				l := LinkID(rng.Intn(ls.n.NumLinks()))
				ls.n.SetCapacity(l, float64(rng.Intn(3))*50)
			default: // advance time: flows complete
				s.RunUntil(s.Now() + rng.Float64()*0.5)
			}
			checkOracle(t, s, live, seed, step)
		}

		// Completions alone, one tick at a time, until every flow is done.
		// Healing every link first leaves no flow stalled.
		for l := 0; l < ls.n.NumLinks(); l++ {
			ls.n.SetCapacity(LinkID(l), 100)
		}
		for i := 0; i < 480; i++ {
			add()
		}
		checkOracle(t, s, live, seed, -1)
		before := s.SettleStats()
		compFlows := 0
		for step := 200; s.ActiveCount() > 0; step++ {
			next, ok := s.NextEventTime()
			if !ok {
				t.Fatalf("seed %d step %d: %d flows active and no event pending", seed, step, s.ActiveCount())
			}
			running := anchorsOf(s)
			s.RunUntil(next)
			running.check(t, s, seed, step)
			var freed []LinkID
			for _, a := range running {
				if a.f.Finished {
					freed = append(freed, a.f.uniq...)
				}
			}
			_, n := component(s, freed, make([]bool, len(s.linkFlows)))
			compFlows += n
			checkOracle(t, s, live, seed, step)
		}
		after := s.SettleStats()
		if after.Resumed == before.Resumed {
			t.Fatalf("seed %d: no completion-only settle resumed (%d settles)", seed, after.Settles-before.Settles)
		}
		if refilled := after.Flows - before.Flows; refilled >= uint64(compFlows) {
			t.Fatalf("seed %d: resumed settles refilled %d flows, the components they settled held %d", seed,
				refilled, compFlows)
		}

		// Two components, settled apart and so filled by different runs,
		// each finish a flow in the same tick.
		pair := func(h int) *Flow {
			short := &Flow{ID: len(live), Path: ls.path(h, h+1, 0), Size: 100}
			long := &Flow{ID: len(live) + 1, Path: ls.path(h, h+2, 0), Size: 200}
			live = append(live, short, long)
			s.Add(short)
			s.Add(long)
			s.RateOf(short)
			return short
		}
		a, b := pair(0), pair(ls.hosts)
		before = s.SettleStats()
		next, _ := s.NextEventTime()
		s.RunUntil(next)
		if !a.Finished || !b.Finished {
			t.Fatalf("seed %d: the two short flows did not finish in one tick", seed)
		}
		checkOracle(t, s, live, seed, -2)
		if after := s.SettleStats(); after.Settles == before.Settles || after.Resumed != before.Resumed {
			t.Fatalf("seed %d: completions from two runs: %d settles, %d resumed, want a full one",
				seed, after.Settles-before.Settles, after.Resumed-before.Resumed)
		}
		s.Run()
	}
}

// TestResumeSplitFrontier: flow x is fixed first and ties two groups of
// later flows into one component, but past x's step the groups share no
// link. A completion in each group in turn must resume and re-fill only
// its group's survivor; the other group keeps its rates, anchors and
// finish entries, and every rate stays bit-identical to allocate().
func TestResumeSplitFrontier(t *testing.T) {
	n := NewNetwork()
	a, b, c := n.AddLink(10), n.AddLink(100), n.AddLink(90)
	d, e := n.AddLink(1000), n.AddLink(1000)
	s := NewSimulator(n)
	// x takes link a's 10; then c's two flows fix at 40 and b's at 45.
	x := &Flow{ID: 0, Path: []LinkID{a, b, c}, Size: 1e9}
	a1 := &Flow{ID: 1, Path: []LinkID{b}, Size: 45} // done at t=1
	a2 := &Flow{ID: 2, Path: []LinkID{b, d}, Size: 1e9}
	b1 := &Flow{ID: 3, Path: []LinkID{c}, Size: 80} // done at t=2
	b2 := &Flow{ID: 4, Path: []LinkID{c, e}, Size: 1e9}
	live := []*Flow{x, a1, a2, b1, b2}
	for _, f := range live {
		s.Add(f)
	}
	checkOracle(t, s, live, 0, 0)
	for i, done := range []*Flow{a1, b1} {
		running := anchorsOf(s)
		before := s.SettleStats()
		next, _ := s.NextEventTime()
		s.RunUntil(next)
		if !done.Finished || done.End != float64(i+1) {
			t.Fatalf("flow %d: finished %v at %v, want t=%d", done.ID, done.Finished, done.End, i+1)
		}
		running.check(t, s, 0, i+1)
		after := s.SettleStats()
		if resumed, flows := after.Resumed-before.Resumed, after.Flows-before.Flows; resumed != 1 || flows != 1 {
			t.Fatalf("completion of flow %d: %d resumed settles re-filled %d flows, want 1 re-filling 1", done.ID, resumed, flows)
		}
		checkOracle(t, s, live, 0, i+1)
	}
	if a2.rate != 90 || b2.rate != 80 || x.rate != 10 {
		t.Fatalf("rates x %v, a2 %v, b2 %v; want 10, 90, 80", x.rate, a2.rate, b2.rate)
	}
	s.Run()
}

// TestSettleAllocFree pins the waterfill scratch (share heap, position
// array, touched list, component lists, fix logs) as reused: once a large
// component has settled, re-waterfilling it after a capacity flap, and
// resuming it after a completion, allocate nothing.
func TestSettleAllocFree(t *testing.T) {
	ls := newLeafSpine(16, 16, 8, 100)
	s := NewSimulator(ls.n)
	rng := rand.New(rand.NewSource(1))
	var probe *Flow
	for i := 0; i < 680; i++ {
		src, dst := rng.Intn(ls.numHosts()), rng.Intn(ls.numHosts())
		f := &Flow{ID: i, Path: ls.path(src, dst, rng.Intn(ls.spines)), Size: 1e12}
		if i >= 480 {
			f.Size = float64(1000 + 37*i) // short: one completes every few ticks
		}
		if i%8 == 0 {
			f.RateCap = 20
		}
		s.Add(f)
		probe = f
	}
	if c := largestComponent(s); c <= 512 {
		t.Fatalf("largest component has %d links, want > 512", c)
	}
	l := probe.Path[0]
	flip := 0
	flap := func() {
		flip ^= 1
		ls.n.SetCapacity(l, float64(50+50*flip))
		s.RateOf(probe)
	}
	// Warm the scratch and the finish heap (one entry per flow with a rate)
	// up to their steady sizes.
	for i := 0; i < 16; i++ {
		flap()
	}
	if allocs := testing.AllocsPerRun(100, flap); allocs != 0 {
		t.Fatalf("settle after a capacity flap allocates %v/op, want 0", allocs)
	}

	complete := func() {
		next, _ := s.NextEventTime()
		s.RunUntil(next)
	}
	for i := 0; i < 16; i++ {
		complete()
	}
	before := s.SettleStats()
	if allocs := testing.AllocsPerRun(100, complete); allocs != 0 {
		t.Fatalf("settle resumed after a completion allocates %v/op, want 0", allocs)
	}
	after := s.SettleStats()
	if n := after.Settles - before.Settles; n == 0 || after.Resumed-before.Resumed != n {
		t.Fatalf("%d settles after completions, %d resumed; want all resumed", n, after.Resumed-before.Resumed)
	}
}

// TestActionHeapAllocFree guards the de-boxed action heap: scheduling and
// draining actions through a pre-grown heap must not allocate (the old
// container/heap implementation boxed one allocation per Push/Pop).
func TestActionHeapAllocFree(t *testing.T) {
	s := NewSimulator(NewNetwork())
	for i := 0; i < 1024; i++ {
		s.At(float64(i)*1e-3, func() {})
	}
	s.RunUntil(10)
	fn := func() {}
	allocs := testing.AllocsPerRun(200, func() {
		s.At(s.Now(), fn)
		s.RunUntil(s.Now())
	})
	if allocs != 0 {
		t.Fatalf("action schedule+drain allocates %v/op, want 0", allocs)
	}
}

// TestRerouteOntoSaturatedPath moves a flow onto a link already running at
// capacity: both flows must drop to the fair share at the reroute instant.
func TestRerouteOntoSaturatedPath(t *testing.T) {
	n := NewNetwork()
	l1 := n.AddLink(100)
	l2 := n.AddLink(50)
	s := NewSimulator(n)
	incumbent := &Flow{ID: 1, Path: []LinkID{l1}, Size: 1e4}
	mover := &Flow{ID: 2, Path: []LinkID{l2}, Size: 1e4}
	s.Add(incumbent)
	s.Add(mover)
	if r := s.RateOf(incumbent); !approx(r, 100, 1e-9) {
		t.Fatalf("incumbent pre-reroute rate = %v", r)
	}
	s.At(1, func() { s.Reroute(mover, []LinkID{l1}) })
	s.RunUntil(1)
	if r := s.RateOf(incumbent); !approx(r, 50, 1e-9) {
		t.Fatalf("incumbent post-reroute rate = %v", r)
	}
	if r := s.RateOf(mover); !approx(r, 50, 1e-9) {
		t.Fatalf("mover post-reroute rate = %v", r)
	}
	s.Run()
	// incumbent: 100 bits/s·1s + 50 thereafter → (1e4-100)/50 + 1 = 199 s.
	if !approx(incumbent.End, 199, 1e-6) {
		t.Fatalf("incumbent end = %v", incumbent.End)
	}
}

// TestSetCapacityZeroStallsAndHeals fails a link mid-flight (capacity 0),
// verifies the flow stalls at rate 0 making no progress, then heals the
// link and checks the completion time accounts for the outage exactly.
func TestSetCapacityZeroStallsAndHeals(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	f := &Flow{ID: 1, Path: []LinkID{l}, Size: 1000}
	s.Add(f)
	s.At(3, func() { n.SetCapacity(l, 0) })
	s.RunUntil(5)
	if r := s.RateOf(f); r != 0 {
		t.Fatalf("rate during outage = %v, want 0", r)
	}
	if rem := f.Remaining(); !approx(rem, 700, 1e-6) {
		t.Fatalf("remaining during outage = %v, want 700", rem)
	}
	s.At(6, func() { n.SetCapacity(l, 100) })
	s.Run()
	// 300 bits in [0,3), stalled [3,6), 700 bits at 100 bps → t=13.
	if !f.Finished || !approx(f.End, 13, 1e-6) {
		t.Fatalf("end = %v finished=%v", f.End, f.Finished)
	}
}

// TestFinishAtRecomputeInstant schedules a capacity change at the exact
// instant a flow completes: the completion must win (End at that instant,
// reported once) and the recompute must apply to the survivors only.
func TestFinishAtRecomputeInstant(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	done := 0
	s.OnFinish = func(f *Flow, now float64) { done++ }
	short := &Flow{ID: 1, Path: []LinkID{l}, Size: 500}
	long := &Flow{ID: 2, Path: []LinkID{l}, Size: 5000}
	s.Add(short)
	s.Add(long)
	// Both at 50 bps; short finishes at exactly t=10. Halve the link
	// capacity at the same instant.
	s.At(10, func() { n.SetCapacity(l, 50) })
	s.Run()
	if !approx(short.End, 10, 1e-9) || done != 2 {
		t.Fatalf("short end = %v, done = %d", short.End, done)
	}
	// long: 500 bits by t=10, then alone on a 50 bps link → 4500/50 = 90 s
	// more → t=100.
	if !approx(long.End, 100, 1e-6) {
		t.Fatalf("long end = %v", long.End)
	}
}

// TestRerouteAtCompletionInstant reroutes a flow at the exact instant it
// completes: the completion must not be lost or doubled.
func TestRerouteAtCompletionInstant(t *testing.T) {
	n := NewNetwork()
	l1 := n.AddLink(100)
	l2 := n.AddLink(100)
	s := NewSimulator(n)
	f := &Flow{ID: 1, Path: []LinkID{l1}, Size: 1000}
	s.Add(f)
	done := 0
	s.OnFinish = func(ff *Flow, now float64) { done++ }
	s.At(10, func() {
		if !f.Finished {
			s.Reroute(f, []LinkID{l2})
		}
	})
	s.Run()
	if done != 1 || !f.Finished {
		t.Fatalf("done = %d finished = %v", done, f.Finished)
	}
	if !approx(f.End, 10, 1e-6) {
		t.Fatalf("end = %v", f.End)
	}
}

// TestCallerOwnsPathStorage pins the storage contract a caller that keeps
// a flow's path in its own memory relies on: flowsim never writes into a
// flow's Path, a Path without a repeated link serves as the flow's link set
// as it is (so adding the flow allocates nothing), Reroute copies the new
// path, and a finished flow's path is never read again. The caller
// scribbles over its path storage after every Reroute and every
// completion; each flow must stay on exactly the links of the path it was
// last given, and every rate must still match the allocate() oracle.
func TestCallerOwnsPathStorage(t *testing.T) {
	ls := newLeafSpine(4, 4, 4, 100)
	s := NewSimulator(ls.n)
	rng := rand.New(rand.NewSource(1))
	randPath := func(dst []LinkID) []LinkID {
		src := rng.Intn(ls.numHosts())
		return append(dst, ls.path(src, (src+1+rng.Intn(ls.numHosts()-1))%ls.numHosts(), rng.Intn(ls.spines))...)
	}
	scribble := func(p []LinkID) {
		for i := range p {
			p[i] = LinkID(rng.Intn(ls.n.NumLinks()))
		}
	}
	const perPhase = 96
	flows := make([]Flow, 2*perPhase)
	bufs := make([][4]LinkID, len(flows)) // the caller's path storage, one per flow
	want := map[*Flow][]LinkID{}
	var live []*Flow
	for i := range flows {
		f := &flows[i]
		*f = Flow{ID: i, Path: randPath(bufs[i][:0]), Size: float64(500 + rng.Intn(5000))}
		want[f] = slices.Clone(f.Path)
		live = append(live, f)
	}
	s.OnFinish = func(f *Flow, _ float64) { scribble(f.Path) }
	added := 0
	add := func() {
		s.Add(live[added])
		added++
	}
	// onLinks fails unless every active flow sits on exactly the links of
	// the path it was last given, and no link lists anything else.
	onLinks := func(step int) {
		t.Helper()
		listed, held := 0, 0
		for _, lst := range s.linkFlows {
			listed += len(lst)
		}
		for _, f := range s.active {
			for _, l := range want[f] {
				if !slices.Contains(s.linkFlows[l], f) {
					t.Fatalf("step %d: flow %d missing from link %d of its path %v", step, f.ID, l, want[f])
				}
			}
			held += len(want[f])
		}
		if listed != held {
			t.Fatalf("step %d: links list %d flow entries, the active paths hold %d", step, listed, held)
		}
	}
	// The first half grows every list the simulator keeps to its working
	// size; adding the second half must then allocate nothing.
	for range perPhase {
		add()
	}
	s.Run()
	if allocs := testing.AllocsPerRun(perPhase-1, add); allocs != 0 {
		t.Fatalf("adding a flow whose path has no repeated link allocates %v, want 0", allocs)
	}
	checkOracle(t, s, live[:added], 1, 0)
	onLinks(0)
	scratch := make([]LinkID, 0, 4)
	for step := 1; s.ActiveCount() > 0; step++ {
		if f := live[perPhase+rng.Intn(perPhase)]; step%3 == 0 && !f.Finished {
			old := f.Path
			scratch = randPath(scratch[:0])
			s.Reroute(f, scratch)
			want[f] = slices.Clone(scratch)
			scribble(scratch)
			scribble(old)
		} else {
			next, _ := s.NextEventTime()
			s.RunUntil(next)
		}
		checkOracle(t, s, live[:added], 1, step)
		onLinks(step)
	}
	for _, f := range live {
		if !f.Finished {
			t.Fatalf("flow %d never finished", f.ID)
		}
	}
}
