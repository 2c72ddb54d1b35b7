package flowsim

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSingleFlowSingleLink(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100) // 100 bps
	s := NewSimulator(n)
	f := &Flow{ID: 1, Path: []LinkID{l}, Size: 1000}
	s.Add(f)
	s.Run()
	if !f.Finished || !approx(f.End, 10, 1e-9) {
		t.Fatalf("end = %v finished=%v", f.End, f.Finished)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	f1 := &Flow{ID: 1, Path: []LinkID{l}, Size: 500}
	f2 := &Flow{ID: 2, Path: []LinkID{l}, Size: 500}
	s.Add(f1)
	s.Add(f2)
	s.Run()
	// Both run at 50 bps until both finish at t=10.
	if !approx(f1.End, 10, 1e-9) || !approx(f2.End, 10, 1e-9) {
		t.Fatalf("ends = %v %v", f1.End, f2.End)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	long := &Flow{ID: 1, Path: []LinkID{l}, Size: 1000}
	short := &Flow{ID: 2, Path: []LinkID{l}, Size: 100}
	s.Add(long)
	s.Add(short)
	s.Run()
	// Share 50/50 until short finishes at t=2 (100 bits at 50 bps), then
	// long runs at 100: 1000-2*50=900 remaining → 9 s more → t=11.
	if !approx(short.End, 2, 1e-9) {
		t.Fatalf("short end = %v", short.End)
	}
	if !approx(long.End, 11, 1e-9) {
		t.Fatalf("long end = %v", long.End)
	}
}

func TestMaxMinClassic(t *testing.T) {
	// l1 cap 1, l2 cap 2; flows: A=[l1], B=[l1,l2], C=[l2].
	// Progressive filling: l1 share 0.5 fixes A,B; l2 remaining 1.5 → C.
	n := NewNetwork()
	l1 := n.AddLink(1)
	l2 := n.AddLink(2)
	s := NewSimulator(n)
	a := &Flow{ID: 1, Path: []LinkID{l1}, Size: 1e9}
	b := &Flow{ID: 2, Path: []LinkID{l1, l2}, Size: 1e9}
	c := &Flow{ID: 3, Path: []LinkID{l2}, Size: 1e9}
	s.Add(a)
	s.Add(b)
	s.Add(c)
	if r := s.RateOf(a); !approx(r, 0.5, 1e-9) {
		t.Fatalf("rate A = %v", r)
	}
	if r := s.RateOf(b); !approx(r, 0.5, 1e-9) {
		t.Fatalf("rate B = %v", r)
	}
	if r := s.RateOf(c); !approx(r, 1.5, 1e-9) {
		t.Fatalf("rate C = %v", r)
	}
}

func TestRateCap(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	capped := &Flow{ID: 1, Path: []LinkID{l}, Size: 1e6, RateCap: 10}
	free := &Flow{ID: 2, Path: []LinkID{l}, Size: 1e6}
	s.Add(capped)
	s.Add(free)
	if r := s.RateOf(capped); !approx(r, 10, 1e-9) {
		t.Fatalf("capped rate = %v", r)
	}
	if r := s.RateOf(free); !approx(r, 90, 1e-9) {
		t.Fatalf("free rate = %v", r)
	}
}

func TestLateArrival(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	early := &Flow{ID: 1, Path: []LinkID{l}, Size: 1000}
	late := &Flow{ID: 2, Path: []LinkID{l}, Size: 100, Start: 5}
	s.Add(early)
	s.Add(late)
	s.Run()
	// Early runs alone 0-5 (500 bits), then shares 50/50. Late finishes
	// 100 bits at 50 bps → t=7. Early: 500 left, 100 done during share
	// (2s*50) → 400 left at t=7 at 100 bps → t=11.
	if !approx(late.End, 7, 1e-9) {
		t.Fatalf("late end = %v", late.End)
	}
	if !approx(early.End, 11, 1e-9) {
		t.Fatalf("early end = %v", early.End)
	}
}

func TestRerouteAction(t *testing.T) {
	n := NewNetwork()
	slow := n.AddLink(10)
	fast := n.AddLink(1000)
	s := NewSimulator(n)
	f := &Flow{ID: 1, Path: []LinkID{slow}, Size: 1000}
	s.Add(f)
	// After 10 s (100 bits done), reroute to the fast link: 900 bits at
	// 1000 bps → finishes at 10.9 s.
	s.At(10, func() { s.Reroute(f, []LinkID{fast}) })
	s.Run()
	if !approx(f.End, 10.9, 1e-6) {
		t.Fatalf("end = %v", f.End)
	}
}

func TestLinkFailureViaCapacity(t *testing.T) {
	n := NewNetwork()
	l1 := n.AddLink(100)
	l2 := n.AddLink(100)
	s := NewSimulator(n)
	f := &Flow{ID: 1, Path: []LinkID{l1}, Size: 1000}
	s.Add(f)
	// At t=2 the link fails; at t=3 the flow fails over to l2.
	s.At(2, func() { n.SetCapacity(l1, 0) })
	s.At(3, func() { s.Reroute(f, []LinkID{l2}) })
	s.Run()
	// 200 bits before failure, stalled 1 s, 800 bits at 100 bps → t=11.
	if !approx(f.End, 11, 1e-6) {
		t.Fatalf("end = %v", f.End)
	}
}

func TestRunUntilPartial(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	f := &Flow{ID: 1, Path: []LinkID{l}, Size: 1000}
	s.Add(f)
	s.RunUntil(5)
	if f.Finished {
		t.Fatal("finished too early")
	}
	if !approx(f.Remaining(), 500, 1e-6) {
		t.Fatalf("remaining = %v", f.Remaining())
	}
	if !approx(s.Now(), 5, 1e-9) {
		t.Fatalf("now = %v", s.Now())
	}
	s.Run()
	if !f.Finished || s.AllDone() != true {
		t.Fatal("did not finish")
	}
}

func TestOnFinishCallback(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	var finished []int
	s.OnFinish = func(f *Flow, now float64) { finished = append(finished, f.ID) }
	s.Add(&Flow{ID: 1, Path: []LinkID{l}, Size: 100})
	s.Add(&Flow{ID: 2, Path: []LinkID{l}, Size: 200})
	s.Run()
	if len(finished) != 2 || finished[0] != 1 || finished[1] != 2 {
		t.Fatalf("finished = %v", finished)
	}
}

// TestFinishedFlowReleased checks the simulator keeps no reference to a
// finished flow its caller has dropped: a long run must not hold every
// flow it has ever carried.
func TestFinishedFlowReleased(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	released := make(chan struct{})
	func() {
		f := &Flow{ID: 1, Path: []LinkID{l}, Size: 100, RateCap: 50}
		runtime.SetFinalizer(f, func(*Flow) { close(released) })
		s.Add(f)
		s.Add(&Flow{ID: 2, Path: []LinkID{l}, Size: 50})
	}()
	s.Run()
	if !s.AllDone() {
		t.Fatalf("%v", s)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(s)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a finished flow is still reachable from its simulator")
}

func TestPathlessFlowInstant(t *testing.T) {
	s := NewSimulator(NewNetwork())
	f := &Flow{ID: 1, Size: 1000}
	s.Add(f)
	s.Run()
	if !f.Finished || f.End != 0 {
		t.Fatalf("pathless flow end = %v", f.End)
	}
}

func TestDuplicateLinkInPathCountedOnce(t *testing.T) {
	n := NewNetwork()
	l := n.AddLink(100)
	s := NewSimulator(n)
	f := &Flow{ID: 1, Path: []LinkID{l, l}, Size: 1000}
	s.Add(f)
	if r := s.RateOf(f); !approx(r, 100, 1e-9) {
		t.Fatalf("rate = %v (duplicate link double-counted)", r)
	}
}

// Property: allocation never exceeds any link capacity and is work-
// conserving on the bottleneck.
func TestAllocationFeasibilityProperty(t *testing.T) {
	prop := func(sizes []uint16, paths []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 12 || len(paths) == 0 {
			return true
		}
		n := NewNetwork()
		links := []LinkID{n.AddLink(100), n.AddLink(50), n.AddLink(200)}
		s := NewSimulator(n)
		var flows []*Flow
		for i, sz := range sizes {
			p := []LinkID{links[int(paths[i%len(paths)]%3)]}
			if i%3 == 0 {
				p = append(p, links[(i+1)%3])
			}
			f := &Flow{ID: i, Path: p, Size: float64(sz%1000) + 1}
			flows = append(flows, f)
			s.Add(f)
		}
		s.allocate()
		load := make([]float64, 3)
		for _, f := range flows {
			seen := map[LinkID]bool{}
			for _, l := range f.Path {
				if !seen[l] {
					seen[l] = true
					load[int(l)] += f.rate
				}
			}
		}
		for i, l := range load {
			if l > n.Capacity(LinkID(i))+1e-6 {
				return false
			}
		}
		// Every flow gets a positive rate.
		for _, f := range flows {
			if f.rate <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
