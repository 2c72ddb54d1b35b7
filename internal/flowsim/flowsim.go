// Package flowsim is a flow-level network simulator: flows traverse
// capacitated links and receive max-min fair bandwidth; the simulator
// advances between flow arrivals, completions and scheduled actions
// (reroutes, failures). The paper's long-running throughput experiments —
// leaf-to-leaf aggregates, failure-recovery timelines, and the HiBench
// macro-benchmarks — run here, where packet-level simulation would be
// needlessly expensive.
//
// Rate recomputation is incremental: every mutation (flow add/finish,
// reroute, capacity change) dirties the links it touches, and settle()
// re-waterfills only the connected component of the flow↔link sharing
// graph reachable from the dirty links. Max-min fair allocation
// decomposes exactly over these components, so flows outside the
// closure keep bit-identical rates; allocate() retains the classic
// full progressive-filling pass as the brute-force oracle the
// incremental path is tested against.
//
// Within a component, each bottleneck comes off one indexed min-heap that
// holds a single (share, linkID) entry per link, re-keyed in place as
// flows are fixed. (share, linkID) is a total order, so the heap picks the
// same bottleneck as the oracle's ascending scan, lowest index on ties.
//
// Projected completions live in a second indexed min-heap, one (at, aseq)
// entry per flow with a positive or infinite rate. An entry is re-keyed in
// place when its flow's rate changes, and leaves when its flow stalls or
// finishes; aseq is unique, so flows complete in (at, aseq) order.
//
// A settle dirtied only by completions resumes the filling rather than
// restarting it. Every fix step has a global number, every flow records
// the run and step that fixed it, and every link logs, after each step
// that touched it, its remaining capacity and the flow the step fixed.
// Say a finished flow f was fixed at step K. No pick before K involved f:
// a bottleneck carrying f would have fixed f. Without f, a link that
// carried it has share R/(n−1) instead of R/n, which IEEE division never
// makes smaller. So every earlier pick, and every capped-flow comparison,
// repeats bit-for-bit. The flows still unfixed at K fall into parts that
// share no link, and progressive filling decomposes over them, so only
// f's part can move. The resumed settle finds that part in the fix logs:
// from f's links it walks the marks at steps ≥ K, takes each still-active
// flow they fixed and that flow's links, truncates each walked log at K
// and restores the link's capacity from its last mark before K. It then
// fills only the flows it took; flows fixed before K, and later flows in
// other parts, are not visited. On a k=16 fat-tree HiBench pass at shuffle
// width 5 (829 resumed settles) the walks visit 46 k flows and 83 k links,
// where a BFS of the components visits 1.98 M and 1.36 M. It resumes only
// when no arrival, reroute or capacity change dirtied a link since the
// last settle and every finished flow carries the same run; otherwise it
// fills the component, found by a BFS over the sharing graph, from zero
// under a fresh run.
//
// Either way a fix drains a flow and re-projects its finish only when the
// flow's rate bits change: a flow whose rate stands keeps its remainder,
// its anchor time and its finish entry.
package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// LinkID indexes a directed capacitated link.
type LinkID int

// Network is the capacity graph.
type Network struct {
	capacity []float64 // bits/sec per link
	onSet    []func(LinkID)
}

// NewNetwork creates an empty network.
func NewNetwork() *Network { return &Network{} }

// AddLink registers a link with the given capacity (bits/sec) and returns
// its ID.
func (n *Network) AddLink(capacityBps float64) LinkID {
	n.capacity = append(n.capacity, capacityBps)
	return LinkID(len(n.capacity) - 1)
}

// NumLinks reports the number of links.
func (n *Network) NumLinks() int { return len(n.capacity) }

// Capacity returns a link's capacity.
func (n *Network) Capacity(l LinkID) float64 { return n.capacity[int(l)] }

// SetCapacity changes a link's capacity (e.g. to 0 on failure). Attached
// simulators are notified and re-waterfill the affected component at the
// next settle point.
func (n *Network) SetCapacity(l LinkID, capacityBps float64) {
	n.capacity[int(l)] = capacityBps
	for _, fn := range n.onSet {
		fn(l)
	}
}

// Flow is one transfer.
type Flow struct {
	ID      int
	Path    []LinkID // links traversed (order irrelevant to allocation)
	Size    float64  // bits to transfer
	Start   float64  // arrival time, seconds
	RateCap float64  // optional per-flow cap (e.g. NIC speed); 0 = none
	Owner   any      // the caller's back-reference; flowsim never reads it

	// Results, valid after the flow finishes.
	Finished bool
	End      float64

	// remaining is the unsent volume at time upd; it is drained lazily,
	// only when the flow's rate changes, so advancing the clock is O(1)
	// in the number of active flows.
	remaining float64
	upd       float64
	rate      float64
	active    bool

	sim       *Simulator
	uniq      []LinkID // deduplicated Path, first-occurrence order
	aseq      int64    // activation sequence: per-link lists sort by this
	finPos    int32    // index of the flow's finish-heap entry; -1 when it has none
	activeIdx int      // position in Simulator.active (swap-remove)
	run       int64    // waterfill run that fixed the rate (0: none yet)
	step      int64    // global fix step at which that run fixed it
	fixed     bool     // scratch: waterfill fixed-flow flag
	mark      int64    // scratch: closure-visited epoch
}

// Remaining returns unsent bits at the simulator's current time.
func (f *Flow) Remaining() float64 {
	if f.Finished {
		return 0
	}
	rem := f.remaining
	if f.sim != nil && f.active && f.rate > 0 && !math.IsInf(f.rate, 1) {
		if dt := f.sim.now - f.upd; dt > 0 {
			rem -= f.rate * dt
			if rem < 0 {
				rem = 0
			}
		}
	}
	return rem
}

// Duration is the flow completion time in seconds.
func (f *Flow) Duration() float64 { return f.End - f.Start }

type action struct {
	at  float64
	seq int64
	fn  func()
}

// actionHeap is a concrete-typed binary min-heap ordered by (at, seq).
// It deliberately avoids container/heap: the interface's Push/Pop go
// through `any`, which boxes one allocation per scheduled action.
type actionHeap []action

func (h actionHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *actionHeap) push(a action) {
	*h = append(*h, a)
	h.up(len(*h) - 1)
}

func (h *actionHeap) pop() action {
	old := *h
	a := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = action{} // release fn for GC
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return a
}

func (h actionHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h actionHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// finEntry is a flow's projected completion.
type finEntry struct {
	at   float64
	aseq int64
	f    *Flow
}

func (a finEntry) before(b finEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.aseq < b.aseq
}

// finHeap is an indexed binary min-heap over (at, aseq), each entry at its
// flow's finPos. up and down move a hole, as in shareHeap.
type finHeap []finEntry

func (h finHeap) set(i int, e finEntry) {
	h[i] = e
	e.f.finPos = int32(i)
}

// remove deletes entry i and returns it.
func (h *finHeap) remove(i int) finEntry {
	old := *h
	e := old[i]
	e.f.finPos = -1
	n := len(old) - 1
	last := old[n]
	old[n] = finEntry{} // release the flow for GC
	*h = old[:n]
	if i < n {
		h.down(h.up(i, last), last)
	}
	return e
}

func (h finHeap) up(i int, e finEntry) int {
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	return i
}

func (h finHeap) down(i int, e finEntry) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h.set(i, h[c])
		i = c
	}
	h.set(i, e)
}

// Simulator advances flows through time.
type Simulator struct {
	net             *Network
	now             float64
	added, finished int     // flows registered and flows completed
	active          []*Flow // unordered (swap-remove); sort by aseq when order matters
	actions         actionHeap
	fins            finHeap
	seq             int64
	aseqCtr         int64

	// linkFlows[l] holds the active flows traversing link l, ordered by
	// activation sequence — the same order the oracle's progressive
	// filling builds its per-link lists in, which is what makes the
	// incremental waterfill bit-identical.
	linkFlows [][]*Flow

	dirty     []LinkID
	linkDirty []bool

	// fixLog[l] holds, in step order, a mark for each fix step that touched
	// link l since the full run that last covered it: the link's remaining
	// capacity after the step and the flow it fixed. A full run clears it;
	// a resumed run truncates it at its frontier and appends.
	fixLog  [][]fixMark
	runCtr  int64
	stepCtr int64
	// resumeRun is the run every flow finished since the last settle
	// shares, and frontier the earliest step one of them was fixed at. 0
	// means none finished; -1 means the next settle fills from zero: an
	// arrival, reroute or capacity change dirtied a link, or the finished
	// flows came from different runs.
	resumeRun int64
	frontier  int64

	// Scratch reused across settle calls.
	epoch       int64
	linkMark    []int64
	remCap      []float64
	nUnfixed    []int32
	shares      shareHeap
	linkTouched []bool   // link changed during the current fix step
	touched     []LinkID // the links linkTouched marks
	compLinks   []LinkID
	compFlows   []*Flow
	capped      []*Flow
	done        []*Flow

	// OnFinish is invoked as each flow completes.
	OnFinish func(f *Flow, now float64)

	stats SettleStats
}

// SettleStats counts the non-trivial settle passes and what they
// re-waterfilled (profiling aid; no functional effect).
type SettleStats struct {
	Settles    uint64 // settle passes
	Resumed    uint64 // settle passes that resumed at a completion's frontier
	Flows      uint64 // flows re-filled: the component's, or on a resume the walk's
	Links      uint64 // links re-filled: the component's, or on a resume the walk's
	Reanchored uint64 // flows whose rate changed, so they were drained and re-projected
	PeakFlows  int    // most flows one pass re-filled
	PeakLinks  int    // most links one pass re-filled
}

// fixMark is a link's remaining capacity after the fix step that fixed f.
type fixMark struct {
	step int64
	rem  float64
	f    *Flow
}

// NewSimulator creates a simulator over the network.
func NewSimulator(net *Network) *Simulator {
	s := &Simulator{net: net}
	net.onSet = append(net.onSet, func(l LinkID) {
		s.ensureLink(int(l))
		s.markDirty(l)
		s.resumeRun = -1
	})
	return s
}

// Now returns current simulation time (seconds).
func (s *Simulator) Now() float64 { return s.now }

func (s *Simulator) ensureLink(l int) {
	for len(s.linkFlows) <= l {
		s.linkFlows = append(s.linkFlows, nil)
		s.linkDirty = append(s.linkDirty, false)
		s.linkMark = append(s.linkMark, 0)
		s.remCap = append(s.remCap, 0)
		s.nUnfixed = append(s.nUnfixed, 0)
		s.shares.pos = append(s.shares.pos, -1)
		s.linkTouched = append(s.linkTouched, false)
		s.fixLog = append(s.fixLog, nil)
	}
}

func (s *Simulator) markDirty(l LinkID) {
	if !s.linkDirty[int(l)] {
		s.linkDirty[int(l)] = true
		s.dirty = append(s.dirty, l)
	}
}

// Add registers a flow; its Start may be now or in the future. A flow is
// added once: adding it again, here or to another simulator, panics.
func (s *Simulator) Add(f *Flow) {
	if f.sim != nil {
		panic(fmt.Sprintf("flowsim: flow %d added twice", f.ID))
	}
	f.sim = s
	f.remaining = f.Size
	f.finPos = -1
	s.added++
	if f.Start > s.now {
		start := f.Start
		s.At(start, func() { s.activate(f) })
	} else {
		f.Start = s.now
		s.activate(f)
	}
}

func (s *Simulator) activate(f *Flow) {
	if f.active || f.Finished {
		return
	}
	f.active = true
	s.aseqCtr++
	f.aseq = s.aseqCtr
	f.upd = s.now
	f.activeIdx = len(s.active)
	s.active = append(s.active, f)
	s.place(f)
}

// place puts an active flow on the links of its Path. Pathless, uncapped
// flows complete at an effectively infinite rate; capped ones at exactly
// their cap. These form singleton components, so no waterfill is needed
// (the oracle's progressive filling assigns the identical values).
//
// uniq is Path itself unless a link repeats, when it is a deduplicated
// copy: flowsim never writes into a flow's Path or uniq.
func (s *Simulator) place(f *Flow) {
	f.uniq = f.Path
	for i, l := range f.Path {
		if shared := len(f.uniq) == len(f.Path); shared && slices.Contains(f.Path[:i], l) {
			f.uniq = slices.Clone(f.Path[:i]) // l repeats: from here on uniq is a copy
		} else if !shared && !slices.Contains(f.uniq, l) {
			f.uniq = append(f.uniq, l)
		}
	}
	if len(f.uniq) == 0 {
		s.drain(f)
		f.rate = math.Inf(1)
		if f.RateCap > 0 {
			f.rate = f.RateCap
		}
		s.pushFin(f)
		return
	}
	for _, l := range f.uniq {
		s.ensureLink(int(l))
		s.insertIntoLink(l, f)
		s.markDirty(l)
	}
	s.resumeRun = -1
}

// removeFromLink deletes f from link l's list, preserving order. The list
// is aseq-sorted, so binary search finds the position.
func (s *Simulator) removeFromLink(l LinkID, f *Flow) {
	lst := s.linkFlows[int(l)]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].aseq >= f.aseq })
	if i < len(lst) && lst[i] == f {
		copy(lst[i:], lst[i+1:])
		lst[len(lst)-1] = nil
		s.linkFlows[int(l)] = lst[:len(lst)-1]
	}
}

// insertIntoLink adds f to link l's list at its aseq position: the end for
// an activation, which holds the largest aseq yet.
func (s *Simulator) insertIntoLink(l LinkID, f *Flow) {
	lst := s.linkFlows[int(l)]
	i := len(lst)
	if i > 0 && lst[i-1].aseq > f.aseq {
		i = sort.Search(i, func(i int) bool { return lst[i].aseq >= f.aseq })
	}
	lst = append(lst, nil)
	copy(lst[i+1:], lst[i:])
	lst[i] = f
	s.linkFlows[int(l)] = lst
}

// At schedules fn at absolute time t (clamped to now).
func (s *Simulator) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.actions.push(action{at: t, seq: s.seq, fn: fn})
}

// Reroute atomically changes a flow's path (the flowlet/failover move).
func (s *Simulator) Reroute(f *Flow, path []LinkID) {
	f.Path = append([]LinkID(nil), path...)
	if !f.active {
		return // not yet started (or finished): activation reads Path
	}
	s.resumeRun = -1
	for _, l := range f.uniq {
		s.removeFromLink(l, f)
		s.markDirty(l)
	}
	s.place(f)
}

// drain charges a flow's lazily-accounted progress up to the current time.
// It must run before the flow's rate changes.
func (s *Simulator) drain(f *Flow) {
	if dt := s.now - f.upd; dt > 0 && f.rate > 0 {
		if math.IsInf(f.rate, 1) {
			f.remaining = 0
		} else {
			f.remaining -= f.rate * dt
			if f.remaining < 1e-6 {
				f.remaining = 0
			}
		}
	}
	f.upd = s.now
}

// pushFin projects the flow's completion under its current rate into its
// finish-heap entry, which a stalled flow gives up. Residuals draining in
// under a picosecond complete now: their finish time is below float64 time
// resolution and waiting on them would stall the clock.
func (s *Simulator) pushFin(f *Flow) {
	i := int(f.finPos)
	if f.rate <= 0 {
		if i >= 0 {
			s.fins.remove(i)
		}
		return
	}
	at := s.now
	if !math.IsInf(f.rate, 1) {
		if d := f.remaining / f.rate; d >= 1e-12 {
			at = s.now + d
		}
	}
	if i < 0 {
		i = len(s.fins)
		s.fins = append(s.fins, finEntry{})
	}
	e := finEntry{at: at, aseq: f.aseq, f: f}
	s.fins.down(s.fins.up(i, e), e)
}

// settle re-waterfills the connected component(s) of the flow↔link graph
// reachable from the dirty links. Per-component progressive filling yields
// the same fix sequence — and therefore bit-identical floating-point
// rates — as the full pass in allocate(); see the oracle test. When only
// completions from one run dirtied links, it resumes at the earliest step
// a finished flow was fixed at and re-fills only what the fix logs show
// followed it (the package comment gives the argument).
func (s *Simulator) settle() {
	if len(s.dirty) == 0 {
		return
	}
	run, frontier := s.resumeRun, s.frontier
	s.resumeRun = 0
	resume := run > 0
	if !resume {
		s.runCtr++
		run, frontier = s.runCtr, 0
	}
	s.epoch++
	links := s.compLinks[:0]
	flows := s.compFlows[:0]
	for _, l := range s.dirty {
		s.linkDirty[int(l)] = false
		if s.linkMark[int(l)] != s.epoch {
			s.linkMark[int(l)] = s.epoch
			links = append(links, l)
		}
	}
	s.dirty = s.dirty[:0]
	visit := func(f *Flow) {
		if f.mark == s.epoch || !f.active {
			return
		}
		f.mark = s.epoch
		flows = append(flows, f)
		for _, l := range f.uniq {
			if s.linkMark[int(l)] != s.epoch {
				s.linkMark[int(l)] = s.epoch
				links = append(links, l)
			}
		}
	}
	// A fresh fill takes every flow on each reached link: a BFS over the
	// sharing graph. A resume takes the flows the link's marks at or after
	// the frontier fixed. Either way the link's log keeps only the marks
	// before the frontier, and its remaining capacity is the last of them.
	for qi := 0; qi < len(links); qi++ {
		l := int(links[qi])
		marks := s.fixLog[l]
		keep := len(marks)
		for keep > 0 && marks[keep-1].step >= frontier {
			keep--
		}
		if resume {
			for _, m := range marks[keep:] {
				visit(m.f)
			}
		} else {
			for _, f := range s.linkFlows[l] {
				visit(f)
			}
		}
		clear(marks[keep:])
		s.fixLog[l] = marks[:keep]
		s.remCap[l] = s.net.capacity[l]
		if keep > 0 {
			s.remCap[l] = marks[keep-1].rem
		}
		s.nUnfixed[l] = 0
	}

	capped := s.capped[:0]
	for _, f := range flows {
		// The rate and finish entry stand until the fix compares them.
		f.fixed = false
		for _, l := range f.uniq {
			s.nUnfixed[int(l)]++
		}
		if f.RateCap > 0 {
			capped = append(capped, f)
		}
	}
	sortCapped(capped)
	st := &s.stats
	st.Settles++
	if resume {
		st.Resumed++
	}
	st.Flows += uint64(len(flows))
	st.Links += uint64(len(links))
	st.PeakFlows = max(st.PeakFlows, len(flows))
	st.PeakLinks = max(st.PeakLinks, len(links))
	if s.waterfill(links, capped, len(flows), run) > 0 {
		// Uncapped flows on infinite-capacity links only are never fixed:
		// they stall at rate 0, as in allocate().
		for _, f := range flows {
			if !f.fixed {
				s.rerate(f, 0)
			}
		}
	}
	// Clear the scratch so it holds no flow past its completion.
	clear(flows)
	clear(capped)
	s.compLinks = links[:0]
	s.compFlows = flows[:0]
	s.capped = capped[:0]
}

// rerate gives f a new rate. Only a change of rate bits drains f at its
// old rate and re-projects its finish: an unchanged rate leaves both, and
// the finish entry, as they stand.
func (s *Simulator) rerate(f *Flow, rate float64) {
	if math.Float64bits(rate) == math.Float64bits(f.rate) {
		return
	}
	s.drain(f)
	f.rate = rate
	s.pushFin(f)
	s.stats.Reanchored++
}

// sortCapped orders capped flows by (RateCap, ID, aseq) — a total order,
// so the (unstable) sort is deterministic. The oracle uses the same
// comparator.
func sortCapped(capped []*Flow) {
	slices.SortFunc(capped, func(a, b *Flow) int {
		if c := cmp.Compare(a.RateCap, b.RateCap); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.aseq, b.aseq)
	})
}

// waterfill runs progressive filling restricted to the given links. remCap
// and nUnfixed must already be initialized for every link in links.
//
// Every link with unfixed flows holds one entry in an indexed min-heap
// keyed by (share, linkID), share = remCap/nUnfixed. After each fix step
// (one bottleneck's flows, or one capped flow) the links it changed are
// re-keyed in place, and a link left with no unfixed flows leaves the
// heap. (share, linkID) is a total order, so the head is always the link
// the oracle's ascending strictly-less-than scan picks — the lowest index
// among equal shares — whatever the heap's layout, and its share is the
// same quotient the scan computes: the fix sequence, and with it every
// floating-point rate, is bit-identical to allocate().
//
// Each fix step takes the next global step number; a fixed flow records
// it with run, and every link the step changes logs its remaining
// capacity and the flow, which is what a later settle resumes from. It
// returns the number of flows it left unfixed.
func (s *Simulator) waterfill(links []LinkID, capped []*Flow, unfixed int, run int64) int {
	h := &s.shares
	for _, l := range links {
		if s.nUnfixed[int(l)] > 0 {
			h.pos[int(l)] = int32(len(h.ent))
			h.ent = append(h.ent, shareEntry{share: s.share(l), link: int32(l)})
		}
	}
	for i := len(h.ent)/2 - 1; i >= 0; i-- {
		h.down(i, h.ent[i])
	}
	touched := s.touched[:0]
	capIdx := 0
	fix := func(f *Flow, rate float64) {
		if f.fixed {
			return
		}
		f.fixed = true
		f.run, f.step = run, s.stepCtr
		unfixed--
		for _, l := range f.uniq {
			s.remCap[int(l)] -= rate
			if s.remCap[int(l)] < 0 {
				s.remCap[int(l)] = 0
			}
			s.fixLog[int(l)] = append(s.fixLog[int(l)], fixMark{step: s.stepCtr, rem: s.remCap[int(l)], f: f})
			s.nUnfixed[int(l)]--
			if !s.linkTouched[int(l)] {
				s.linkTouched[int(l)] = true
				touched = append(touched, l)
			}
		}
		s.rerate(f, rate)
	}
	for unfixed > 0 {
		s.stepCtr++
		minShare := math.Inf(1)
		minLink := -1
		// As in allocate()'s scan, an infinite share is no bottleneck.
		if len(h.ent) > 0 && h.ent[0].share < minShare {
			minShare, minLink = h.ent[0].share, int(h.ent[0].link)
		}
		for capIdx < len(capped) && capped[capIdx].fixed {
			capIdx++
		}
		if capIdx < len(capped) && capped[capIdx].RateCap < minShare {
			fix(capped[capIdx], capped[capIdx].RateCap)
		} else if minLink < 0 {
			// Remaining flows are unconstrained by links: give them caps.
			for _, f := range capped {
				if !f.fixed {
					fix(f, f.RateCap)
				}
			}
			break
		} else {
			for _, f := range s.linkFlows[minLink] {
				fix(f, minShare)
			}
		}
		for _, l := range touched {
			s.linkTouched[int(l)] = false
			i := int(h.pos[int(l)])
			if s.nUnfixed[int(l)] == 0 {
				h.remove(i)
			} else {
				h.rekey(i, s.share(l))
			}
		}
		touched = touched[:0]
	}
	// The capped-flow exit leaves marks and entries behind; the next
	// settle needs both cleared.
	for _, l := range touched {
		s.linkTouched[int(l)] = false
	}
	for _, e := range h.ent {
		h.pos[e.link] = -1
	}
	h.ent = h.ent[:0]
	s.touched = touched[:0]
	return unfixed
}

// share is link l's fair share of its remaining capacity.
func (s *Simulator) share(l LinkID) float64 {
	return s.remCap[int(l)] / float64(s.nUnfixed[int(l)])
}

type shareEntry struct {
	share float64
	link  int32
}

func (a shareEntry) before(b shareEntry) bool {
	if a.share != b.share {
		return a.share < b.share
	}
	return a.link < b.link
}

// shareHeap is an indexed binary min-heap over (share, link), the order
// the ascending scan's strictly-less-than minimum search induces. pos
// locates each link's one entry, so re-keying or removing it is a sift in
// place rather than a fresh push. Sifts move a hole and store the sifted
// entry once, so each step writes one entry and one position.
type shareHeap struct {
	ent []shareEntry
	pos []int32 // link → index in ent; -1 when the link has no entry
}

func (h *shareHeap) set(i int, e shareEntry) {
	h.ent[i] = e
	h.pos[e.link] = int32(i)
}

// rekey sets entry i's share and restores the heap order around it.
func (h *shareHeap) rekey(i int, share float64) {
	e := h.ent[i]
	e.share = share
	h.down(h.up(i, e), e)
}

// remove deletes entry i.
func (h *shareHeap) remove(i int) {
	h.pos[h.ent[i].link] = -1
	n := len(h.ent) - 1
	last := h.ent[n]
	h.ent = h.ent[:n]
	if i < n {
		h.down(h.up(i, last), last)
	}
}

// up moves the hole at i toward the root past every parent e precedes and
// returns where the hole stops; e itself is not stored.
func (h *shareHeap) up(i int, e shareEntry) int {
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h.ent[p]) {
			break
		}
		h.set(i, h.ent[p])
		i = p
	}
	return i
}

// down moves the hole at i toward the leaves past every child that
// precedes e, then stores e in it.
func (h *shareHeap) down(i int, e shareEntry) {
	n := len(h.ent)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.ent[c+1].before(h.ent[c]) {
			c++
		}
		if !h.ent[c].before(e) {
			break
		}
		h.set(i, h.ent[c])
		i = c
	}
	h.set(i, e)
}

// allocate recomputes every active flow's rate from scratch with the
// classic O(flows×links) progressive-filling pass. It is retained as the
// brute-force oracle for the incremental settle() path — the two must
// produce bit-identical rates — and is used only by tests and RateOf
// verification; the hot path never calls it.
func (s *Simulator) allocate() {
	act := make([]*Flow, len(s.active))
	copy(act, s.active)
	slices.SortFunc(act, func(a, b *Flow) int { return cmp.Compare(a.aseq, b.aseq) })
	for _, f := range act {
		f.rate = 0
	}
	if len(act) == 0 {
		return
	}
	nLinks := len(s.net.capacity)
	remCap := make([]float64, nLinks)
	copy(remCap, s.net.capacity)
	nUnfixed := make([]int, nLinks)
	flowsOn := make([][]*Flow, nLinks)
	fixed := make(map[*Flow]bool, len(act))

	var capped []*Flow
	unfixedTotal := 0
	for _, f := range act {
		links := f.uniq
		if len(links) == 0 && f.RateCap <= 0 {
			f.rate = math.Inf(1)
			continue
		}
		for _, l := range links {
			flowsOn[int(l)] = append(flowsOn[int(l)], f)
			nUnfixed[int(l)]++
		}
		if f.RateCap > 0 {
			capped = append(capped, f)
		}
		unfixedTotal++
	}
	sortCapped(capped)
	capIdx := 0

	fix := func(f *Flow, rate float64) {
		if fixed[f] {
			return
		}
		fixed[f] = true
		f.rate = rate
		unfixedTotal--
		for _, l := range f.uniq {
			remCap[int(l)] -= rate
			if remCap[int(l)] < 0 {
				remCap[int(l)] = 0
			}
			nUnfixed[int(l)]--
		}
	}

	for unfixedTotal > 0 {
		minShare := math.Inf(1)
		minLink := -1
		for l := 0; l < nLinks; l++ {
			if nUnfixed[l] == 0 {
				continue
			}
			share := remCap[l] / float64(nUnfixed[l])
			if share < minShare {
				minShare, minLink = share, l
			}
		}
		for capIdx < len(capped) && fixed[capped[capIdx]] {
			capIdx++
		}
		if capIdx < len(capped) && capped[capIdx].RateCap < minShare {
			fix(capped[capIdx], capped[capIdx].RateCap)
			continue
		}
		if minLink < 0 {
			for _, f := range capped {
				if !fixed[f] {
					fix(f, f.RateCap)
				}
			}
			break
		}
		for _, f := range flowsOn[minLink] {
			fix(f, minShare)
		}
	}
}

// peekNext returns the earliest pending event (completion or action).
func (s *Simulator) peekNext() (float64, bool) {
	t := math.Inf(1)
	ok := false
	if len(s.fins) > 0 {
		t, ok = s.fins[0].at, true
	}
	if len(s.actions) > 0 && s.actions[0].at < t {
		t, ok = s.actions[0].at, true
	}
	return t, ok
}

// finishDue completes every flow whose projected finish is at or before
// now, then reports them in (time, activation) order.
func (s *Simulator) finishDue() {
	nDone := len(s.done)
	for len(s.fins) > 0 && s.fins[0].at <= s.now {
		f := s.fins.remove(0).f
		f.remaining = 0
		f.upd = s.now
		f.Finished = true
		f.active = false
		f.End = s.now
		s.finished++
		// Swap-remove from the active set.
		last := len(s.active) - 1
		s.active[f.activeIdx] = s.active[last]
		s.active[f.activeIdx].activeIdx = f.activeIdx
		s.active[last] = nil
		s.active = s.active[:last]
		if len(f.uniq) > 0 {
			switch {
			case s.resumeRun == 0:
				s.resumeRun, s.frontier = f.run, f.step
			case s.resumeRun != f.run:
				s.resumeRun = -1
			default:
				s.frontier = min(s.frontier, f.step)
			}
		}
		for _, l := range f.uniq {
			s.removeFromLink(l, f)
			s.markDirty(l)
		}
		s.done = append(s.done, f)
	}
	if s.OnFinish != nil {
		// Callbacks run after the lists are consistent: they may Add flows.
		for _, f := range s.done[nDone:] {
			s.OnFinish(f, s.now)
		}
	}
	clear(s.done[nDone:])
	s.done = s.done[:nDone]
}

// runActionsDue executes scheduled actions due at the current instant.
func (s *Simulator) runActionsDue() {
	for len(s.actions) > 0 && s.actions[0].at <= s.now+1e-12 {
		a := s.actions.pop()
		a.fn()
	}
}

// step advances to the next event at or before deadline; returns false
// when nothing remains within it.
func (s *Simulator) step(deadline float64) bool {
	s.settle()
	nt, ok := s.peekNext()
	if !ok || nt > deadline {
		return false
	}
	if nt > s.now {
		s.now = nt
	}
	s.finishDue()
	s.runActionsDue()
	s.settle()
	return true
}

// Run executes until all flows finish and no actions remain.
func (s *Simulator) Run() {
	// The spin guard catches any future zero-progress loop (e.g. a float
	// pathology) instead of hanging the caller.
	spins := 0
	last := s.now
	for s.step(math.Inf(1)) {
		if s.now == last {
			spins++
			if spins > 1_000_000 {
				var diag string
				for _, f := range s.active {
					diag += fmt.Sprintf(" flow%d rate=%v rem=%v", f.ID, f.rate, f.remaining)
					if len(diag) > 200 {
						break
					}
				}
				panic(fmt.Sprintf("flowsim: stuck at t=%v actions=%d:%s", s.now, len(s.actions), diag))
			}
		} else {
			spins, last = 0, s.now
		}
	}
}

// RunUntil executes events up to time t, then advances the clock to t.
func (s *Simulator) RunUntil(t float64) {
	for s.step(t) {
	}
	s.settle()
	if s.now < t {
		s.now = t
	}
}

// NextEventTime reports the next pending completion or action, if any.
// Hybrid mode uses it to schedule the engine event that re-enters the
// fluid layer.
func (s *Simulator) NextEventTime() (float64, bool) {
	s.settle()
	return s.peekNext()
}

// ActiveCount reports the number of started, unfinished flows.
func (s *Simulator) ActiveCount() int { return len(s.active) }

// AllDone reports whether every flow has finished.
func (s *Simulator) AllDone() bool { return s.finished == s.added }

// SettleStats returns the settle-pass counters.
func (s *Simulator) SettleStats() SettleStats { return s.stats }

// RateOf returns a flow's instantaneous rate after the latest allocation.
func (s *Simulator) RateOf(f *Flow) float64 {
	s.settle()
	return f.rate
}

// String summarizes simulator state.
func (s *Simulator) String() string {
	return fmt.Sprintf("flowsim t=%.3fs %d/%d flows done", s.now, s.finished, s.added)
}
