package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	tags, err := pg.PrimaryTags()
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.VerifyTags(src, dst, tags); err != nil {
		t.Fatalf("primary tags invalid on real topology: %v", err)
	}
	if len(pg.Backup) > 0 {
		bt, err := pg.BackupTags()
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.VerifyTags(src, dst, bt); err != nil {
			t.Fatalf("backup tags invalid: %v", err)
		}
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
	pg.Graph.RemoveEdge(pg.Primary[mid], pg.Primary[mid+1])
	tags, err := pg.Graph.HostPath(src, dst, nil)
	if err != nil {
		t.Fatalf("no route in cache after single link failure: %v", err)
	}
	// The rerouted path must still be valid on the damaged topology.
	real := tp.Clone()
	p, err := real.PortToward(pg.Primary[mid], pg.Primary[mid+1])
	if err != nil {
		t.Fatal(err)
	}
	if err := real.Disconnect(pg.Primary[mid], p); err != nil {
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
