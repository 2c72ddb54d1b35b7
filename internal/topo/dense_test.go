package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracleTopos builds structurally different fabrics the kernels are checked
// against the map oracle on.
func oracleTopos(t *testing.T) map[string]*Topology {
	t.Helper()
	out := make(map[string]*Topology)
	add := func(name string, tp *Topology, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tp
	}
	ft, err := FatTree(4, 1, 0)
	add("fat-tree", ft, err)
	cb, err := Cube(3, 1, 0)
	add("cube", cb, err)
	ls, err := LeafSpine(3, 6, 2, 0)
	add("leaf-spine", ls, err)
	for _, seed := range []int64{7, 11} {
		rr, err := RandomRegular(24, 4, 2, 0, rand.New(rand.NewSource(seed)))
		add(fmt.Sprintf("random-regular/%d", seed), rr, err)
	}
	return out
}

// oracleViews returns every topology of oracleTopos plus, for each, the
// Subgraph views routing really runs on: two path-graph bodies, and one of
// them again after a host-style RemoveEdgeByPort patch. Subgraphs list
// neighbours in ID order where a Topology lists them in port order, so they
// exercise the other tie-break.
func oracleViews(t *testing.T) map[string]View {
	t.Helper()
	out := make(map[string]View)
	for name, tp := range oracleTopos(t) {
		out[name] = tp
		hosts := tp.Hosts()
		for i, pair := range [][2]int{{0, len(hosts) - 1}, {1, len(hosts) / 2}} {
			pg, err := BuildPathGraph(tp, hosts[pair[0]].Host, hosts[pair[1]].Host,
				PathGraphOptions{Epsilon: 2}, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				t.Fatalf("%s: path graph %d: %v", name, i, err)
			}
			out[fmt.Sprintf("%s/pathgraph%d", name, i)] = pg.Graph
			if i == 0 {
				cut := pg.Graph.Clone()
				port, err := cut.PortToward(pg.Primary[0], pg.Primary[1])
				if err != nil || !cut.RemoveEdgeByPort(pg.Primary[0], port) {
					t.Fatalf("%s: cut primary's first link: %v", name, err)
				}
				out[name+"/pathgraph0-cut"] = cut
			}
		}
	}
	return out
}

func samePaths(a, b []SwitchPath) bool {
	return slices.EqualFunc(a, b, SwitchPath.Equal)
}

// TestKernelsMatchOracle holds the shipped routing entry points to the map
// oracle on every view: the same distances, the same shortest path for a nil
// rng, the same path *and* the same rng state after a randomized choice, the
// same backup under a penalty, the same Yen path list.
func TestKernelsMatchOracle(t *testing.T) {
	for name, v := range oracleViews(t) {
		g := NewDenseGraph(v)
		sc := NewDenseScratch()
		ids := v.SwitchIDs()
		for _, src := range ids {
			si, ok := g.IndexOf(src)
			if !ok {
				t.Fatalf("%s: switch %d missing from dense index", name, src)
			}
			want := OracleDistances(v, src)
			for i, d := range g.BFSInto(sc, si) {
				wd, ok := want[g.IDOf(int32(i))]
				if !ok {
					wd = -1
				}
				if int(d) != wd {
					t.Fatalf("%s: dist %d->%d: dense %d, oracle %d", name, src, g.IDOf(int32(i)), d, wd)
				}
			}
			for _, dst := range ids {
				wantP, wantErr := oracleShortestPath(v, src, dst, nil)
				gotP, gotErr := ShortestPath(v, src, dst, nil)
				if !errors.Is(gotErr, wantErr) || !wantP.Equal(gotP) {
					t.Fatalf("%s: %d->%d: oracle %v (%v), dense %v (%v)", name, src, dst, wantP, wantErr, gotP, gotErr)
				}
				r1 := rand.New(rand.NewSource(int64(src)*1000 + int64(dst)))
				r2 := rand.New(rand.NewSource(int64(src)*1000 + int64(dst)))
				wantP, wantErr = oracleShortestPath(v, src, dst, r1)
				gotP, gotErr = ShortestPath(v, src, dst, r2)
				if !errors.Is(gotErr, wantErr) || !wantP.Equal(gotP) {
					t.Fatalf("%s: %d->%d rng: oracle %v (%v), dense %v (%v)", name, src, dst, wantP, wantErr, gotP, gotErr)
				}
				if r1.Int63() != r2.Int63() {
					t.Fatalf("%s: %d->%d: rng state diverged after the randomized walk", name, src, dst)
				}
			}
		}
		// Backup paths: the primary's links penalized, as §4.3 does.
		for trial := 0; trial < 40; trial++ {
			r := rand.New(rand.NewSource(int64(trial)))
			src, dst := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			penalty := []float64{8, 1.5, 100}[trial%3]
			wantP, err := oracleShortestPath(v, src, dst, rand.New(rand.NewSource(int64(trial))))
			gotP, gotB, gotErr := PrimaryBackup(v, src, dst, PathGraphOptions{BackupPenalty: penalty}, rand.New(rand.NewSource(int64(trial))))
			if !errors.Is(gotErr, err) || !wantP.Equal(gotP) {
				t.Fatalf("%s: primary %d->%d: oracle %v (%v), dense %v (%v)", name, src, dst, wantP, err, gotP, gotErr)
			}
			if err != nil {
				continue
			}
			onPrimary := map[[2]SwitchID]bool{}
			for i := 0; i+1 < len(wantP); i++ {
				onPrimary[[2]SwitchID{wantP[i], wantP[i+1]}] = true
				onPrimary[[2]SwitchID{wantP[i+1], wantP[i]}] = true
			}
			wantB, err := oracleWeightedShortestPath(v, src, dst, func(a, b SwitchID) float64 {
				if onPrimary[[2]SwitchID{a, b}] {
					return penalty
				}
				return 1
			})
			if err != nil {
				wantB = nil
			}
			if !wantB.Equal(gotB) {
				t.Fatalf("%s: backup %d->%d penalty %v: oracle %v, dense %v", name, src, dst, penalty, wantB, gotB)
			}
		}
		// Dijkstra under mixed per-link weights from a small set: many
		// equal distances (the index tie-break) and nodes improved more
		// than once (the frontier's lazy deletion).
		for trial := 0; trial < 40; trial++ {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			src, dst := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			weight := func(a, b SwitchID) float64 {
				if a > b {
					a, b = b, a
				}
				return []float64{1, 1.5, 2, 3, 0}[(int(a)*31+int(b)*17+trial)%5]
			}
			want, wantErr := oracleWeightedShortestPath(v, src, dst, weight)
			si, _ := g.IndexOf(src)
			di, _ := g.IndexOf(dst)
			got, gotErr := g.WeightedShortestPathInto(sc, si, di, func(a, b int32) float64 {
				return weight(g.IDOf(a), g.IDOf(b))
			}, nil)
			if !errors.Is(gotErr, wantErr) || !want.Equal(g.idsOf(got)) {
				t.Fatalf("%s: weighted %d->%d trial %d: oracle %v (%v), dense %v (%v)", name, src, dst, trial, want, wantErr, g.idsOf(got), gotErr)
			}
		}
		// Yen. All pairs on the small views, a stride of them on the rest.
		stride := 1
		if len(ids) > 12 {
			stride = 5
		}
		n := 0
		for _, src := range ids {
			for _, dst := range ids {
				if n++; n%stride != 0 {
					continue
				}
				for _, k := range []int{1, 4, 8} {
					want, wantErr := oracleKShortestPaths(v, src, dst, k)
					got, gotErr := KShortestPaths(v, src, dst, k)
					if !errors.Is(gotErr, wantErr) || !samePaths(want, got) {
						t.Fatalf("%s: yen k=%d %d->%d: oracle %v (%v), dense %v (%v)", name, k, src, dst, want, wantErr, got, gotErr)
					}
				}
			}
		}
	}
}

// TestDenseKernelsAllocFree pins the tentpole property: with a warm scratch,
// the BFS, shortest-path and Dijkstra kernels allocate nothing.
func TestDenseKernelsAllocFree(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := tp.Dense()
	sc := NewDenseScratch()
	hosts := tp.Hosts()
	si, _ := g.IndexOf(hosts[0].Switch)
	di, _ := g.IndexOf(hosts[len(hosts)-1].Switch)
	unit := func(a, b int32) float64 { return 1 }
	warm := func() {
		g.BFSInto(sc, si)
		var err error
		sc.path, err = g.ShortestPathInto(sc, si, di, nil, sc.path)
		if err != nil {
			t.Fatal(err)
		}
		sc.pathB, err = g.WeightedShortestPathInto(sc, si, di, unit, sc.pathB)
		if err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(200, warm); n != 0 {
		t.Fatalf("dense kernels allocate %v allocs/op with warm scratch, want 0", n)
	}
}

func TestBitset(t *testing.T) {
	var b Bitset
	b.Reset(130)
	for _, i := range []int32{0, 63, 64, 129} {
		if b.Has(i) {
			t.Fatalf("bit %d set after reset", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Has(1) || b.Has(65) {
		t.Fatal("unset bits reported set")
	}
	b.Reset(130)
	if b.Has(0) || b.Has(129) {
		t.Fatal("reset did not clear bits")
	}
}

// TestTopologyGeneration pins the invalidation contract the route service
// relies on: every mutation bumps the generation and drops the cached dense
// snapshot; reads do not.
func TestTopologyGeneration(t *testing.T) {
	tp := New()
	g0 := tp.Generation()
	if err := tp.AddSwitch(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSwitch(2, 4); err != nil {
		t.Fatal(err)
	}
	if tp.Generation() == g0 {
		t.Fatal("AddSwitch did not bump generation")
	}
	if err := tp.Connect(1, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	gc := tp.Generation()
	d1 := tp.Dense()
	if tp.Dense() != d1 {
		t.Fatal("Dense not cached across reads")
	}
	if tp.Generation() != gc {
		t.Fatal("reads bumped generation")
	}
	if err := tp.Disconnect(1, 1); err != nil {
		t.Fatal(err)
	}
	if tp.Generation() == gc {
		t.Fatal("Disconnect did not bump generation")
	}
	if tp.Dense() == d1 {
		t.Fatal("Dense snapshot not invalidated by mutation")
	}
	if err := tp.AttachHost(MAC{1}, 1, 1); err != nil {
		t.Fatal(err)
	}
	g1 := tp.Generation()
	if err := tp.DetachHost(MAC{1}); err != nil {
		t.Fatal(err)
	}
	if tp.Generation() == g1 {
		t.Fatal("DetachHost did not bump generation")
	}
}

// TestBuildPathGraphScratchMatchesBuild asserts that scratch reuse does not
// change Algorithm 1's output.
func TestBuildPathGraphScratchMatchesBuild(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	sc := NewDenseScratch()
	for i := 0; i < len(hosts); i++ {
		for j := 0; j < len(hosts); j++ {
			if i == j {
				continue
			}
			seed := int64(i*100 + j)
			a, aErr := BuildPathGraph(tp, hosts[i].Host, hosts[j].Host, PathGraphOptions{}, rand.New(rand.NewSource(seed)))
			b, bErr := BuildPathGraphScratch(tp, hosts[i].Host, hosts[j].Host, PathGraphOptions{}, rand.New(rand.NewSource(seed)), sc)
			if aErr != nil || bErr != nil {
				t.Fatalf("build errors: %v, %v", aErr, bErr)
			}
			am := a.Marshal()
			bm := b.Marshal()
			if string(am) != string(bm) {
				t.Fatalf("pair %d->%d: scratch build differs from fresh build", i, j)
			}
		}
	}
}

// TestKShortestPathsAllocsOnlyResult pins what Yen costs on a k=8 fat-tree
// once the scratch is warm: the returned paths and the slice holding them.
func TestKShortestPathsAllocsOnlyResult(t *testing.T) {
	tp, err := FatTree(8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := tp.Dense()
	sc := NewDenseScratch()
	hosts := tp.Hosts()
	si, _ := g.IndexOf(hosts[0].Switch)
	di, _ := g.IndexOf(hosts[len(hosts)-1].Switch)
	const k = 8
	run := func() {
		ps, err := g.KShortestPaths(sc, si, di, k)
		if err != nil || len(ps) != k {
			t.Fatalf("yen: %d paths, %v", len(ps), err)
		}
	}
	run()
	if n := testing.AllocsPerRun(50, run); n != k+1 {
		t.Fatalf("warm KShortestPaths(k=%d) allocates %v/op, want %d (the paths and their slice)", k, n, k+1)
	}
}

// TestTopologyConcurrentReaders routes over one topology from several
// goroutines at once, starting right after a mutation so the readers also
// race to rebuild the derived adjacency and dense snapshot. Run under -race.
func TestTopologyConcurrentReaders(t *testing.T) {
	tp, err := FatTree(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	nb := tp.Neighbors(hosts[0].Switch)[0]
	if err := tp.Disconnect(hosts[0].Switch, nb.Port); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(hosts))
	ref := tp.Clone()
	for i, h := range hosts {
		tags, err := ref.HostPath(hosts[0].Host, h.Host, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tags.String()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i, h := range hosts {
				tags, err := tp.HostPath(hosts[0].Host, h.Host, nil)
				if err != nil || tags.String() != want[i] {
					t.Errorf("worker %d: path to host %d = %v (%v), want %s", w, i, tags, err, want[i])
				}
				if _, err := tp.HostPath(h.Host, hosts[0].Host, rng); err != nil {
					t.Errorf("worker %d: randomized path from host %d: %v", w, i, err)
				}
				if _, err := KShortestPaths(tp, hosts[0].Switch, h.Switch, 4); err != nil {
					t.Errorf("worker %d: yen to host %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkKShortestPathsK8 exercises the Yen's duplicate filter at k=8,
// where the former O(k²·n) containsPath scans dominated.
func BenchmarkKShortestPathsK8(b *testing.B) {
	tp, err := FatTree(6, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	hosts := tp.Hosts()
	src, dst := hosts[0].Switch, hosts[len(hosts)-1].Switch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KShortestPaths(tp, src, dst, 8); err != nil {
			b.Fatal(err)
		}
	}
}
