package topo

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dumbnet/internal/packet"
)

func TestDistances(t *testing.T) {
	tp, _ := Line(4, 4)
	d := OracleDistances(tp, 1)
	for i := 1; i <= 4; i++ {
		if d[SwitchID(i)] != i-1 {
			t.Fatalf("dist[%d] = %d", i, d[SwitchID(i)])
		}
	}
}

func TestShortestPathLine(t *testing.T) {
	tp, _ := Line(4, 4)
	p, err := ShortestPath(tp, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := SwitchPath{1, 2, 3, 4}
	if !p.Switches().Equal(want) {
		t.Fatalf("path = %v", p)
	}
	p, err = ShortestPath(tp, 2, 2, nil)
	if err != nil || len(p) != 1 || p[0] != (PortRef{Switch: 2}) {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	tp := New()
	_ = tp.AddSwitch(1, 2)
	_ = tp.AddSwitch(2, 2)
	if _, err := ShortestPath(tp, 1, 2, nil); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestShortestPathRandomizedTieBreak(t *testing.T) {
	// Leaf-spine with 2 spines gives two equal-cost leaf-to-leaf paths.
	tp, _ := LeafSpine(2, 2, 1, 8)
	rng := rand.New(rand.NewSource(1))
	via := map[SwitchID]bool{}
	for i := 0; i < 64; i++ {
		p, err := ShortestPath(tp, 3, 4, rng) // leaves are 3 and 4
		if err != nil || len(p) != 3 {
			t.Fatalf("path = %v, %v", p, err)
		}
		via[p[1].Switch] = true
	}
	if len(via) != 2 {
		t.Fatalf("randomized routing used %d spines, want 2", len(via))
	}
	// Deterministic mode must always pick the same spine.
	first, _ := ShortestPath(tp, 3, 4, nil)
	for i := 0; i < 8; i++ {
		p, _ := ShortestPath(tp, 3, 4, nil)
		if !slices.Equal(p, first) {
			t.Fatal("nil-rng path not deterministic")
		}
	}
}

func TestBackupAvoidsPrimaryLinks(t *testing.T) {
	// Square: 1-2-4 and 1-3-4; the primary takes the lower port, via 2.
	tp := New()
	for i := 1; i <= 4; i++ {
		_ = tp.AddSwitch(SwitchID(i), 4)
	}
	_ = tp.Connect(1, 1, 2, 1)
	_ = tp.Connect(2, 2, 4, 1)
	_ = tp.Connect(1, 2, 3, 1)
	_ = tp.Connect(3, 2, 4, 2)
	primary, backup, err := PrimaryBackup(tp, 1, 4, PathGraphOptions{BackupPenalty: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(primary, Route{{1, 1}, {2, 2}, {4, 0}}) || !slices.Equal(backup, Route{{1, 2}, {3, 2}, {4, 0}}) {
		t.Fatalf("primary %v backup %v, want via 2 and via 3", primary, backup)
	}
}

func TestKShortestPathsLeafSpine(t *testing.T) {
	tp, _ := LeafSpine(4, 2, 1, 8)
	// Leaves are 5 and 6; 4 disjoint 3-hop paths exist.
	paths, err := KShortestPaths(tp, 5, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(paths))
	}
	seen := map[SwitchID]bool{}
	for _, p := range paths {
		if len(p) != 3 || p[0].Switch != 5 || p[2].Switch != 6 {
			t.Fatalf("bad path %v", p)
		}
		if seen[p[1].Switch] {
			t.Fatalf("duplicate middle switch %d", p[1].Switch)
		}
		seen[p[1].Switch] = true
	}
}

func TestKShortestPathsOrdering(t *testing.T) {
	tp, _ := Line(3, 4)
	// Only one path exists on a line.
	paths, err := KShortestPaths(tp, 1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("got %d paths on a line", len(paths))
	}
	// Lengths must be non-decreasing in general; check on fat-tree.
	ft, _ := FatTree(4, 0, 0)
	ids := ft.SwitchIDs()
	src, dst := ids[len(ids)-1], ids[len(ids)-5]
	ps, err := KShortestPaths(ft, src, dst, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ps); i++ {
		if len(ps[i]) < len(ps[i-1]) {
			t.Fatalf("paths not sorted by length: %v", ps)
		}
		if slices.Equal(ps[i], ps[i-1]) {
			t.Fatal("duplicate path")
		}
	}
}

func TestTagsForSwitchPathAndHostPath(t *testing.T) {
	tp, _ := Line(3, 4)
	hosts := tp.Hosts()
	h1, h2 := hosts[0].Host, hosts[1].Host
	tags, err := tp.HostPath(h1, h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Path: sw1 ->(port2) sw2 ->(port2) sw3 ->(port3) h2.
	want := packet.Path{2, 2, 3}
	if len(tags) != 3 || tags[0] != want[0] || tags[1] != want[1] || tags[2] != want[2] {
		t.Fatalf("tags = %v, want %v", tags, want)
	}
	if err := tp.VerifyTags(h1, h2, tags); err != nil {
		t.Fatal(err)
	}
}

func TestRouteOfErrors(t *testing.T) {
	tp, _ := Line(3, 4)
	hosts := tp.Hosts()
	pg, err := BuildPathGraph(tp, hosts[0].Host, hosts[1].Host, PathGraphOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.RouteOf(nil); !errors.Is(err, ErrNoPath) {
		t.Fatalf("empty: %v", err)
	}
	// Path ending at wrong switch.
	if _, err := pg.RouteOf(SwitchPath{1, 2}); !errors.Is(err, ErrPathInvalid) {
		t.Fatalf("wrong end: %v", err)
	}
	// Non-adjacent hop.
	if _, err := pg.RouteOf(SwitchPath{1, 3}); !errors.Is(err, ErrNoLink) {
		t.Fatalf("non-adjacent: %v", err)
	}
}

func TestWalkTagsAndVerify(t *testing.T) {
	tp, _ := Line(3, 4)
	hosts := tp.Hosts()
	h1, h2 := hosts[0].Host, hosts[1].Host

	// Dead port.
	if err := tp.VerifyTags(h1, h2, packet.Path{4}); !errors.Is(err, ErrPathInvalid) {
		t.Fatalf("dead port: %v", err)
	}
	// Ends on a switch link.
	if err := tp.VerifyTags(h1, h2, packet.Path{2}); !errors.Is(err, ErrPathInvalid) {
		t.Fatalf("ends mid-fabric: %v", err)
	}
	// Reaches a host mid-path.
	if err := tp.VerifyTags(h1, h2, packet.Path{2, 2, 3, 1}); !errors.Is(err, ErrPathInvalid) {
		t.Fatalf("host mid-path: %v", err)
	}
	// Wrong destination host (back to self would need valid tags; use h1's port).
	tags, _ := tp.HostPath(h1, h2, nil)
	if err := tp.VerifyTags(h1, h1, tags); !errors.Is(err, ErrPathInvalid) {
		t.Fatalf("wrong dst: %v", err)
	}
	// Empty path.
	if err := tp.VerifyTags(h1, h2, nil); !errors.Is(err, ErrPathInvalid) {
		t.Fatalf("empty: %v", err)
	}
}

// mirrorOf returns a Subgraph holding every link and host attachment of tp.
func mirrorOf(tp *Topology) *Subgraph {
	sg := NewSubgraph()
	for _, id := range tp.SwitchIDs() {
		for _, nb := range tp.Neighbors(id) {
			ep, err := tp.EndpointAt(id, nb.Port)
			if err != nil {
				panic(err)
			}
			sg.AddEdge(id, nb.Port, ep.Switch, ep.Port)
		}
	}
	for _, at := range tp.Hosts() {
		sg.AddHost(at)
	}
	return sg
}

// TestFollowTagsSameOnMirror: the walker reaches the same verdict, failing
// hop and switch sequence on a Topology and on a Subgraph mirror of it, for
// valid routes and for one-tag mutations, truncations and extensions.
func TestFollowTagsSameOnMirror(t *testing.T) {
	type walk struct {
		hop   int
		at    SwitchID
		ok    bool
		trail []SwitchID
	}
	follow := func(v attachedView, src, dst MAC, tags packet.Path) walk {
		var w walk
		var err error
		w.hop, w.at, err = FollowTags(v, src, dst, tags, func(sw SwitchID) error {
			w.trail = append(w.trail, sw)
			return nil
		})
		w.ok = err == nil
		return w
	}
	for name, tp := range oracleTopos(t) {
		sg := mirrorOf(tp)
		hosts := tp.Hosts()
		rng := rand.New(rand.NewSource(1))
		rejected := 0
		for trial := 0; trial < 30; trial++ {
			src, dst := hosts[rng.Intn(len(hosts))].Host, hosts[rng.Intn(len(hosts))].Host
			tags, err := tp.HostPath(src, dst, rng)
			if err != nil {
				t.Fatalf("%s: HostPath: %v", name, err)
			}
			cases := []packet.Path{tags, tags[:len(tags)-1], append(tags.Clone(), tags[len(tags)-1])}
			for i := range tags {
				m := tags.Clone()
				m[i] = Port(rng.Intn(10))
				cases = append(cases, m)
			}
			for i, c := range cases {
				onTopo, onMirror := follow(tp, src, dst, c), follow(sg, src, dst, c)
				if i == 0 && !onTopo.ok {
					t.Fatalf("%s: valid route %v rejected at hop %d", name, c, onTopo.hop)
				}
				if !onTopo.ok {
					rejected++
				}
				if onTopo.ok != onMirror.ok || onTopo.hop != onMirror.hop || onTopo.at != onMirror.at ||
					!slices.Equal(onTopo.trail, onMirror.trail) {
					t.Errorf("%s: %v -> %v tags %v: topology %+v, mirror %+v", name, src, dst, c, onTopo, onMirror)
				}
			}
		}
		if rejected == 0 {
			t.Errorf("%s: no case was rejected", name)
		}
	}
}

// TestFollowTagsAllocFree: a successful walk allocates nothing on either
// view.
func TestFollowTagsAllocFree(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	src, dst := hosts[0].Host, hosts[len(hosts)-1].Host
	tags, err := tp.HostPath(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]attachedView{"topology": tp, "subgraph": mirrorOf(tp)} {
		walk := func() {
			if _, _, err := FollowTags(v, src, dst, tags, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if n := testing.AllocsPerRun(200, walk); n != 0 {
			t.Errorf("%s: FollowTags allocates %v/op on success, want 0", name, n)
		}
	}
}

// Property: on random connected graphs, HostPath always verifies, and its
// length equals the switch distance + 1.
func TestHostPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp, err := RandomRegular(12, 3, 1, 0, rng)
		if err != nil {
			return false
		}
		hosts := tp.Hosts()
		h1 := hosts[rng.Intn(len(hosts))].Host
		h2 := hosts[rng.Intn(len(hosts))].Host
		if h1 == h2 {
			return true
		}
		tags, err := tp.HostPath(h1, h2, rng)
		if err != nil {
			return false
		}
		if tp.VerifyTags(h1, h2, tags) != nil {
			return false
		}
		a1, _ := tp.HostAt(h1)
		a2, _ := tp.HostAt(h2)
		d := OracleDistances(tp, a1.Switch)[a2.Switch]
		return len(tags) == d+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every k-shortest path is loop-free and valid.
func TestKShortestLoopFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp, err := RandomRegular(10, 3, 0, 0, rng)
		if err != nil {
			return false
		}
		ids := tp.SwitchIDs()
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		if src == dst {
			return true
		}
		paths, err := KShortestPaths(tp, src, dst, 5)
		if err != nil {
			return false
		}
		for _, p := range paths {
			seen := map[SwitchID]bool{}
			for _, h := range p {
				if seen[h.Switch] {
					return false // loop
				}
				seen[h.Switch] = true
			}
			if p[0].Switch != src || p[len(p)-1].Switch != dst {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				if ep, err := tp.EndpointAt(p[i].Switch, p[i].Port); err != nil || ep.Switch != p[i+1].Switch {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
