package controller

import (
	"bytes"
	"math/rand"
	"testing"

	"dumbnet/internal/host"
	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// newRouteTestController builds a standalone controller over a k=4 fat-tree
// master view (no fabric attached — route-service state only).
func newRouteTestController(t testing.TB) (*Controller, *topo.Topology, []packet.MAC) {
	t.Helper()
	tp, err := topo.FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	var macs []packet.MAC
	for _, at := range tp.Hosts() {
		macs = append(macs, at.Host)
	}
	c := New(eng, host.New(eng, macs[0], host.DefaultConfig()), DefaultConfig())
	c.SetMaster(tp)
	return c, tp, macs
}

// count reads one of c's registry counters by its published name.
func count(c *Controller, name string) uint64 { return c.eng.Metrics().Counter(name).Value() }

func TestRouteServiceCacheHitAndInvalidate(t *testing.T) {
	c, tp, macs := newRouteTestController(t)
	src, dst := macs[1], macs[len(macs)-1]

	w1, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.route.miss") != 1 || count(c, "ctrl.route.hit") != 0 {
		t.Fatalf("after first lookup: hits=%d misses=%d", count(c, "ctrl.route.hit"), count(c, "ctrl.route.miss"))
	}
	w2, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.route.hit") != 1 {
		t.Fatalf("second lookup was not a hit (hits=%d)", count(c, "ctrl.route.hit"))
	}
	if &w1[0] != &w2[0] {
		t.Fatal("warm hit did not return the cached wire bytes")
	}

	// A topology mutation must lazily invalidate.
	at, err := tp.HostAt(dst)
	if err != nil {
		t.Fatal(err)
	}
	nb := tp.Neighbors(at.Switch)[0]
	if err := tp.Disconnect(at.Switch, nb.Port); err != nil {
		t.Fatal(err)
	}
	w3, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.route.invalidated") != 1 {
		t.Fatalf("mutation did not invalidate (invalidated=%d)", count(c, "ctrl.route.invalidated"))
	}
	pg, err := topo.UnmarshalPathGraph(w3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(pg.Primary); i++ {
		if _, err := tp.PortToward(pg.Primary[i], pg.Primary[i+1]); err != nil {
			t.Fatalf("post-patch answer uses dead hop %d->%d", pg.Primary[i], pg.Primary[i+1])
		}
	}

	// Replacing the master object entirely must also invalidate.
	svcInval := count(c, "ctrl.route.invalidated")
	c.SetMaster(tp.Clone())
	if _, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal})); err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.route.invalidated") != svcInval+1 {
		t.Fatal("SetMaster did not invalidate cached entry")
	}
}

// TestWarmPathRequestAllocFree is the CI alloc guard for the tentpole claim:
// a warm path-request lookup performs zero allocations.
func TestWarmPathRequestAllocFree(t *testing.T) {
	c, _, macs := newRouteTestController(t)
	src, dst := macs[1], macs[len(macs)-1]
	if _, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal})); err != nil {
		t.Fatal(err)
	}
	var sink []byte
	allocs := testing.AllocsPerRun(1000, func() {
		w, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
		if err != nil {
			panic(err)
		}
		sink = w
	})
	if allocs != 0 {
		t.Fatalf("warm Resolve: %v allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestColdComputeReusesRng pins what a cache miss costs: reseeding the route
// service's rng gives the same answers as a fresh per-pair rng, and the
// compute allocates twice, for the RouteAnswer and its wire bytes: no graph
// map, no switch path, no fresh rng source and no per-call scratch.
func TestColdComputeReusesRng(t *testing.T) {
	const coldComputeAllocs = 2
	c, _, macs := newRouteTestController(t)
	s, ep := c.routes, c.Epoch()
	fresh := func(key pairKey) []byte {
		rng := rand.New(rand.NewSource(pairSeed(key.src, key.dst, ep.version, ep.gen)))
		wire, _, err := topo.WritePathGraph(ep.top, key.src, key.dst, PathGraphOptions(), rng, c.sc)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	reused := func(key pairKey) RouteAnswer {
		s.global.Clear()
		a, err := s.lookup(key.src, key.dst)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, src := range macs {
		for _, dst := range macs {
			if key := (pairKey{src, dst}); src != dst && !bytes.Equal(fresh(key), reused(key).Wire) {
				t.Fatalf("%v->%v: reseeded answer differs from a fresh rng's", src, dst)
			}
		}
	}
	key := pairKey{macs[1], macs[len(macs)-1]}
	if got := testing.AllocsPerRun(200, func() { reused(key) }); got != coldComputeAllocs {
		t.Fatalf("cold compute: %v allocs, want %d", got, coldComputeAllocs)
	}
}

// TestLookupCloneSafety is the aliasing regression test: mutating a Graph()
// result must not corrupt the cached entry or the wire bytes later callers
// receive.
func TestLookupCloneSafety(t *testing.T) {
	c, _, macs := newRouteTestController(t)
	src, dst := macs[1], macs[len(macs)-1]
	baseline, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), baseline...)

	pg, err := graphOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
	if err != nil {
		t.Fatal(err)
	}
	pg.Primary[0] = 0xDEAD
	if len(pg.Backup) > 0 {
		pg.Backup[len(pg.Backup)-1] = 0xBEEF
	}
	for _, sw := range pg.Graph.SwitchIDs() {
		for nbs := pg.Graph.Neighbors(sw); len(nbs) > 0; nbs = pg.Graph.Neighbors(sw) {
			pg.Graph.RemoveEdgeByPort(sw, nbs[0].Port)
		}
	}

	after, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, after) {
		t.Fatal("mutating a Graph() clone corrupted the cached wire form")
	}
	pg2, err := graphOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Scope: ScopeGlobal}))
	if err != nil {
		t.Fatal(err)
	}
	if pg2.Primary[0] == 0xDEAD || pg2.Graph.NumSwitches() == 0 {
		t.Fatal("mutating a Graph() clone corrupted the cached path graph")
	}
}

// TestLazyAnswersIgnoreQueryOrder pins pairSeed's property: a cached answer
// depends only on its pair and the epoch, never on which pairs were asked
// before it. Two controllers share one master; one resolves every pair
// forward, the other in reverse, and the wire bytes must agree.
func TestLazyAnswersIgnoreQueryOrder(t *testing.T) {
	c, tp, macs := newRouteTestController(t)
	eng := sim.NewEngine(1)
	r := New(eng, host.New(eng, macs[0], host.DefaultConfig()), DefaultConfig())
	r.SetMaster(tp)
	var pairs []pairKey
	for _, a := range macs {
		for _, b := range macs {
			if a != b {
				pairs = append(pairs, pairKey{a, b})
			}
		}
	}
	forward := make(map[pairKey][]byte, len(pairs))
	for _, p := range pairs {
		w, err := wireOf(c.Resolve(RouteQuery{Src: p.src, Dst: p.dst, Scope: ScopeGlobal}))
		if err != nil {
			t.Fatal(err)
		}
		forward[p] = w
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		p := pairs[i]
		w, err := wireOf(r.Resolve(RouteQuery{Src: p.src, Dst: p.dst, Scope: ScopeGlobal}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, forward[p]) {
			t.Fatalf("pair %v->%v differs between forward and reverse query order", p.src, p.dst)
		}
	}
}

// TestPathRequestCoalescing asserts concurrent same-pair requests share one
// compute but each get a response.
func TestPathRequestCoalescing(t *testing.T) {
	c, _, macs := newRouteTestController(t)
	src, dst := macs[0], macs[len(macs)-1]
	c.handlePathRequest(&packet.PathRequest{Src: src, Dst: dst, Seq: 11})
	c.handlePathRequest(&packet.PathRequest{Src: src, Dst: dst, Seq: 12})
	c.handlePathRequest(&packet.PathRequest{Src: src, Dst: macs[1], Seq: 13})
	c.eng.Run()
	if got := c.Stats().PathRequests; got != 3 {
		t.Fatalf("PathRequests = %d, want 3", got)
	}
	if got := c.Stats().PathResponses; got != 3 {
		t.Fatalf("PathResponses = %d, want 3 (one per seq)", got)
	}
	if got := count(c, "ctrl.route.coalesced"); got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
	if got := count(c, "ctrl.route.miss"); got != 2 {
		t.Fatalf("misses = %d, want 2 (one per distinct pair)", got)
	}
}

// wireOf, graphOf and treeOf project one field out of a Resolve result, so a
// test can write `w, err := wireOf(c.Resolve(q))`.
func wireOf(a RouteAnswer, err error) ([]byte, error) { return a.Wire, err }

func graphOf(a RouteAnswer, err error) (*topo.PathGraph, error) { return a.Graph(), err }

func treeOf(a RouteAnswer, err error) (*mcast.Tree, error) { return a.Tree(), err }
