package topo

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dumbnet/internal/packet"
)

func mustCube(t *testing.T, n int) *Topology {
	t.Helper()
	tp, err := Cube(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestBuildPathGraphBasics(t *testing.T) {
	tp := mustCube(t, 4)
	hosts := tp.Hosts()
	src, dst := hosts[0].Host, hosts[len(hosts)-1].Host
	pg, err := BuildPathGraph(tp, src, dst, PathGraphOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Primary path between opposite corners of a 4-cube is 9 switches.
	if len(pg.Primary) != 10 {
		t.Fatalf("primary length = %d switches, want 10", len(pg.Primary))
	}
	primary, err := pg.RouteOf(pg.Primary)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.VerifyTags(src, dst, primary.Tags()); err != nil {
		t.Fatalf("primary tags invalid on real topology: %v", err)
	}
	backup, err := pg.RouteOf(pg.Backup)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.VerifyTags(src, dst, backup.Tags()); err != nil {
		t.Fatalf("backup tags invalid: %v", err)
	}
}

func TestPathGraphBackupDisjointWhenPossible(t *testing.T) {
	// Leaf-spine: two fully disjoint paths exist between hosts on
	// different leaves.
	tp, _ := LeafSpine(2, 2, 1, 8)
	hosts := tp.Hosts()
	pg, err := BuildPathGraph(tp, hosts[0].Host, hosts[1].Host, PathGraphOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Backup) == 0 {
		t.Fatal("expected a backup path")
	}
	// Primary and backup must differ in the spine they traverse.
	if pg.Primary[1] == pg.Backup[1] {
		t.Fatalf("backup reuses primary spine %d", pg.Primary[1])
	}
}

func TestPathGraphGrowsWithEpsilon(t *testing.T) {
	tp := mustCube(t, 6)
	hosts := tp.Hosts()
	src, dst := hosts[0].Host, hosts[len(hosts)-1].Host
	prev := 0
	for eps := 0; eps <= 4; eps += 2 {
		pg, err := BuildPathGraph(tp, src, dst, PathGraphOptions{S: 2, Epsilon: eps}, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := pg.Graph.NumSwitches()
		if n < prev {
			t.Fatalf("path graph shrank with larger ε: %d -> %d", prev, n)
		}
		prev = n
	}
	// ε>0 must include more than the bare paths on a cube.
	pg0, _ := BuildPathGraph(tp, src, dst, PathGraphOptions{S: 2, Epsilon: 0}, nil)
	pg4, _ := BuildPathGraph(tp, src, dst, PathGraphOptions{S: 2, Epsilon: 4}, nil)
	if pg4.Graph.NumSwitches() <= pg0.Graph.NumSwitches() {
		t.Fatalf("ε=4 (%d sw) should exceed ε=0 (%d sw)",
			pg4.Graph.NumSwitches(), pg0.Graph.NumSwitches())
	}
}

func TestPathGraphMuchSmallerThanTopology(t *testing.T) {
	tp := mustCube(t, 8) // 512 switches
	hosts := tp.Hosts()
	// A short primary path: adjacent-corner hosts.
	src, dst := hosts[0].Host, hosts[1].Host
	pg, err := BuildPathGraph(tp, src, dst, PathGraphOptions{S: 2, Epsilon: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Graph.NumSwitches() >= tp.NumSwitches()/4 {
		t.Fatalf("path graph too large: %d of %d switches",
			pg.Graph.NumSwitches(), tp.NumSwitches())
	}
}

func TestPathGraphDetourSurvivesSingleFailure(t *testing.T) {
	// On a cube, killing one primary link should leave a route inside the
	// cached subgraph (that is the whole point of local detours).
	tp := mustCube(t, 5)
	hosts := tp.Hosts()
	src, dst := hosts[0].Host, hosts[len(hosts)-1].Host
	pg, err := BuildPathGraph(tp, src, dst, PathGraphOptions{S: 2, Epsilon: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the middle primary link from the cached subgraph.
	mid := len(pg.Primary) / 2
	primary, err := pg.RouteOf(pg.Primary)
	if err != nil {
		t.Fatal(err)
	}
	pg.Graph.RemoveEdgeByPort(primary[mid].Switch, primary[mid].Port)
	tags, err := pg.Graph.HostPath(src, dst, nil)
	if err != nil {
		t.Fatalf("no route in cache after single link failure: %v", err)
	}
	// The rerouted path must still be valid on the damaged topology.
	real := tp.Clone()
	if err := real.Disconnect(primary[mid].Switch, primary[mid].Port); err != nil {
		t.Fatal(err)
	}
	if err := real.VerifyTags(src, dst, tags); err != nil {
		t.Fatalf("detour invalid on damaged topology: %v", err)
	}
}

func TestPathGraphSerializationRoundTrip(t *testing.T) {
	tp := mustCube(t, 4)
	hosts := tp.Hosts()
	pg, err := BuildPathGraph(tp, hosts[0].Host, hosts[5].Host, PathGraphOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := pg.Marshal()
	got, err := UnmarshalPathGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != pg.Src || got.Dst != pg.Dst {
		t.Fatal("endpoints mismatch")
	}
	if !got.Primary.Equal(pg.Primary) || !got.Backup.Equal(pg.Backup) {
		t.Fatal("paths mismatch")
	}
	if got.Graph.NumSwitches() != pg.Graph.NumSwitches() ||
		got.Graph.NumLinks() != pg.Graph.NumLinks() ||
		got.Graph.NumHosts() != pg.Graph.NumHosts() {
		t.Fatal("subgraph mismatch")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalPathGraphErrors(t *testing.T) {
	if _, err := UnmarshalPathGraph(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := UnmarshalPathGraph([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage should fail")
	}
	tp := mustCube(t, 3)
	hosts := tp.Hosts()
	pg, _ := BuildPathGraph(tp, hosts[0].Host, hosts[1].Host, PathGraphOptions{}, nil)
	b := pg.Marshal()
	if _, err := UnmarshalPathGraph(b[:len(b)-2]); err == nil {
		t.Fatal("truncated should fail")
	}
	if _, err := UnmarshalPathGraph(append(b, 0)); err == nil {
		t.Fatal("trailing bytes should fail")
	}
}

// TestDecodePathGraphTruncatedLeavesCache cuts a path response in the middle
// of its first switch's neighbour list: the reader must refuse it without
// writing that switch's first neighbours, or anything else, into the cache.
func TestDecodePathGraphTruncatedLeavesCache(t *testing.T) {
	tp := mustCube(t, 3)
	hosts := tp.Hosts()
	pg, err := BuildPathGraph(tp, hosts[0].Host, hosts[len(hosts)-1].Host, PathGraphOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := pg.Marshal()
	// Header, both paths, the graph's header and count, the first switch's
	// ID and neighbour count, then one and a half neighbours.
	cut := 3 + 6 + 6 + 2 + 4*len(pg.Primary) + 2 + 4*len(pg.Backup) + 3 + 4 + 4 + 2 + 5 + 2
	if first := pg.Graph.SwitchIDs()[0]; len(pg.Graph.Neighbors(first)) < 2 {
		t.Fatalf("switch %d has fewer than two neighbours to cut between", first)
	}
	cache := NewSubgraph()
	cache.AddEdge(100, 1, 101, 1)
	before := cache.Marshal()
	if _, err := DecodePathGraph(b[:cut], cache); err == nil {
		t.Fatal("a body cut inside a neighbour list was accepted")
	}
	if !bytes.Equal(cache.Marshal(), before) {
		t.Fatal("a refused body changed the cache")
	}
	if _, err := DecodePathGraph(b, cache); err != nil || cache.NumSwitches() != pg.Graph.NumSwitches()+2 {
		t.Fatalf("whole body: %v, %d switches cached", err, cache.NumSwitches())
	}
}

// Property: for random host pairs on a cube, the path graph validates, its
// primary is a shortest path, and the subgraph is connected between the two
// attachment switches.
func TestPathGraphProperty(t *testing.T) {
	tp := mustCube(t, 5)
	hosts := tp.Hosts()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := hosts[rng.Intn(len(hosts))].Host
		dst := hosts[rng.Intn(len(hosts))].Host
		if src == dst {
			return true
		}
		pg, err := BuildPathGraph(tp, src, dst, PathGraphOptions{S: 2, Epsilon: 1}, rng)
		if err != nil {
			return false
		}
		if pg.Validate() != nil {
			return false
		}
		a1, _ := tp.HostAt(src)
		a2, _ := tp.HostAt(dst)
		want := OracleDistances(tp, a1.Switch)[a2.Switch]
		if len(pg.Primary)-1 != want {
			return false
		}
		// The cached subgraph must route between the hosts.
		if _, err := pg.Graph.HostPath(src, dst, nil); err != nil {
			return false
		}
		_ = a2
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDetourNodesMatchOracle holds Algorithm 1's node set, built from the
// topology's cached distance rows, to the same set computed from the map
// oracle's BFS: the primary path; every x with dist(a,x)+dist(x,b) <= S+ε
// for each window (a = p_i, b = p_min(i+S, last)), i stepping by max(S/2, 1);
// and the backup path. Each fabric also gets an island of two linked
// switches, which no window may mark.
func TestDetourNodesMatchOracle(t *testing.T) {
	for name, tp := range oracleTopos(t) {
		for _, err := range []error{tp.AddSwitch(1<<20, 4), tp.AddSwitch(1<<20+1, 4), tp.Connect(1<<20, 1, 1<<20+1, 1)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		hosts := tp.Hosts()
		for _, s := range []int{2, 3} {
			for _, eps := range []int{0, 1, 2} {
				for pair := 0; pair < 12; pair++ {
					src, dst := hosts[pair%len(hosts)], hosts[(pair*7+3)%len(hosts)]
					opts := PathGraphOptions{S: s, Epsilon: eps}
					pg, err := BuildPathGraph(tp, src.Host, dst.Host, opts, rand.New(rand.NewSource(int64(pair))))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := map[SwitchID]bool{}
					for _, sw := range slices.Concat(pg.Primary, pg.Backup) {
						want[sw] = true
					}
					last := len(pg.Primary) - 1
					for i := 0; i < last; i += max(s/2, 1) {
						da := OracleDistances(tp, pg.Primary[i])
						db := OracleDistances(tp, pg.Primary[min(i+s, last)])
						for x, d := range da {
							if d+db[x] <= s+eps {
								want[x] = true
							}
						}
					}
					var wantIDs []SwitchID
					for x := range want {
						wantIDs = append(wantIDs, x)
					}
					slices.Sort(wantIDs)
					if got := pg.Graph.SwitchIDs(); !slices.Equal(got, wantIDs) {
						t.Fatalf("%s S=%d ε=%d %v->%v: nodes %v, oracle %v", name, s, eps, src.Switch, dst.Switch, got, wantIDs)
					}
				}
			}
		}
	}
}

// parallelLinkFabric is a four-switch ring whose 1–2 and 3–4 hops are two
// cables each, wired so a lower-ID end's lowest port meets the higher-ID
// end's highest: a cable's two ends list their twins in opposite port
// order, so only pairing by the lower-ID end's port names each cable's
// ends alike. Switch 1 has two hosts, so one pair shares its switch.
func parallelLinkFabric(t *testing.T) *Topology {
	t.Helper()
	tp := New()
	for id := SwitchID(1); id <= 4; id++ {
		if err := tp.AddSwitch(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][4]int{{1, 1, 2, 3}, {1, 2, 2, 1}, {2, 2, 3, 1}, {3, 2, 4, 3}, {3, 3, 4, 1}, {4, 2, 1, 3}} {
		if err := tp.Connect(SwitchID(l[0]), Port(l[1]), SwitchID(l[2]), Port(l[3])); err != nil {
			t.Fatal(err)
		}
	}
	for i, sw := range []SwitchID{1, 1, 2, 3, 4} {
		if err := tp.AttachHost(packet.MACFromUint64(uint64(i+1)), sw, Port(8-i%2)); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

// TestPathGraphWireMatchesOracle holds WritePathGraph to the bytes the
// induce-then-Marshal reference in oracle_test.go writes, for every ordered
// host pair of every oracleTopos fabric, a k=8 fat-tree and a fabric with
// parallel links; the switch count it reports is the decoded graph's.
func TestPathGraphWireMatchesOracle(t *testing.T) {
	fabrics := oracleTopos(t)
	ft8, err := FatTree(8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fabrics["fat-tree/k8"] = ft8
	fabrics["parallel-links"] = parallelLinkFabric(t)
	sc := NewDenseScratch()
	for name, tp := range fabrics {
		hosts := tp.Hosts()
		opts := PathGraphOptions{Epsilon: 1 + len(hosts)%2}
		for i, src := range hosts {
			for j, dst := range hosts {
				seed := int64(i*len(hosts) + j)
				want, wantErr := oraclePathGraph(tp, src.Host, dst.Host, opts, rand.New(rand.NewSource(seed)))
				got, switches, err := WritePathGraph(tp, src.Host, dst.Host, opts, rand.New(rand.NewSource(seed)), sc)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s %d->%d: error %v, oracle %v", name, i, j, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %d->%d: wire differs from the oracle's\n got % x\nwant % x", name, i, j, got, want)
				}
				pg, err := UnmarshalPathGraph(got)
				if err != nil || pg.Graph.NumSwitches() != switches {
					t.Fatalf("%s %d->%d: %d switches reported, decoded %v (%v)", name, i, j, switches, pg, err)
				}
			}
		}
	}
}

// TestDistanceRowsPerGeneration pins the life of the cached distance rows: a
// row belongs to one generation's snapshot, so after a cut no route crosses
// the dead link and no row filled before the cut is read; a warm row costs a
// shortest-path walk no allocation.
func TestDistanceRowsPerGeneration(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	sc := NewDenseScratch()
	before := tp.Dense()
	for i := range before.NumNodes() {
		before.DistTo(sc, int32(i))
	}
	// Cut one uplink of hosts[0]'s edge switch.
	at := hosts[0]
	cut := tp.Neighbors(at.Switch)[0]
	if err := tp.Disconnect(at.Switch, cut.Port); err != nil {
		t.Fatal(err)
	}
	after := tp.Dense()
	if after == before {
		t.Fatal("Disconnect kept the snapshot")
	}
	for i := range after.rows {
		if after.rows[i].Load() != nil {
			t.Fatalf("row %d of the new generation filled before any reader", i)
		}
	}
	crosses := func(r Route) bool {
		p := r.Switches()
		for i := 0; i+1 < len(p); i++ {
			if (p[i] == at.Switch && p[i+1] == cut.Sw) || (p[i] == cut.Sw && p[i+1] == at.Switch) {
				return true
			}
		}
		return false
	}
	for _, h := range hosts {
		for _, rng := range []*rand.Rand{nil, rand.New(rand.NewSource(1))} {
			p, err := ShortestPath(tp, at.Switch, h.Switch, rng)
			if err != nil || crosses(p) {
				t.Fatalf("path to %d after the cut: %v (%v)", h.Switch, p, err)
			}
			tags, err := tp.HostPath(at.Host, h.Host, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := tp.VerifyTags(at.Host, h.Host, tags); err != nil {
				t.Fatalf("host path to %v after the cut: %v", h.Host, err)
			}
		}
	}
	ci, _ := after.IndexOf(cut.Sw)
	ai, _ := after.IndexOf(at.Switch)
	if before.DistTo(sc, ci)[ai] != 1 || after.DistTo(sc, ci)[ai] != 3 {
		t.Fatalf("hops %d->%d: %d before the cut, %d after; want 1 and 3",
			at.Switch, cut.Sw, before.DistTo(sc, ci)[ai], after.DistTo(sc, ci)[ai])
	}
	di, _ := after.IndexOf(hosts[len(hosts)-1].Switch)
	walk := func() {
		if sc.path, err = after.ShortestPathInto(sc, ai, di, nil, sc.path); err != nil {
			t.Fatal(err)
		}
	}
	walk()
	if n := testing.AllocsPerRun(200, walk); n != 0 {
		t.Fatalf("warm-row ShortestPathInto: %v allocs/op, want 0", n)
	}
}
