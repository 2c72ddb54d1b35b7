package topo

import (
	"math/rand"
	"testing"
)

func TestFatTreeShape(t *testing.T) {
	k := 4
	tp, err := FatTree(k, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (k/2)^2 cores + k pods * (k/2 agg + k/2 edge) = 4 + 16 = 20 switches.
	if got := tp.NumSwitches(); got != 20 {
		t.Fatalf("switches = %d, want 20", got)
	}
	// Links: core-agg k^2/2 * k/2? Canonical k=4 fat-tree has 32 switch links.
	if got := tp.NumLinks(); got != 32 {
		t.Fatalf("links = %d, want 32", got)
	}
	// Hosts: k^3/4 = 16.
	if got := tp.NumHosts(); got != 16 {
		t.Fatalf("hosts = %d, want 16", got)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tp.Connected(nil, nil) {
		t.Fatal("fat-tree should be connected")
	}
}

func TestFatTreeErrors(t *testing.T) {
	if _, err := FatTree(3, 0, 0); err == nil {
		t.Fatal("odd arity should fail")
	}
	if _, err := FatTree(4, 0, 3); err == nil {
		t.Fatal("too few ports should fail")
	}
	if _, err := FatTree(4, 5, 4); err == nil {
		t.Fatal("too many hosts should fail")
	}
}

func TestFatTreeDiameter(t *testing.T) {
	tp, _ := FatTree(4, 0, 0)
	// Max distance between edge switches in a fat tree is 4 hops.
	hosts := tp.Hosts()
	src, _ := tp.HostAt(hosts[0].Host)
	dist := OracleDistances(tp, src.Switch)
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	if max != 4 {
		t.Fatalf("edge eccentricity = %d, want 4", max)
	}
}

func TestCubeShape(t *testing.T) {
	tp, err := Cube(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.NumSwitches(); got != 27 {
		t.Fatalf("switches = %d, want 27", got)
	}
	// 3D grid links: 3 * n^2 * (n-1) = 3*9*2 = 54.
	if got := tp.NumLinks(); got != 54 {
		t.Fatalf("links = %d, want 54", got)
	}
	if got := tp.NumHosts(); got != 27 {
		t.Fatalf("hosts = %d, want 27", got)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tp.Connected(nil, nil) {
		t.Fatal("cube should be connected")
	}
}

func TestCubeDims(t *testing.T) {
	tp, err := CubeDims([]int{2, 3}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 6 {
		t.Fatalf("switches = %d", tp.NumSwitches())
	}
	// 2x3 grid: horizontal 2*2 + vertical 1*3 = 7 links.
	if tp.NumLinks() != 7 {
		t.Fatalf("links = %d, want 7", tp.NumLinks())
	}
	if _, err := CubeDims(nil, 0, 0); err == nil {
		t.Fatal("empty dims should fail")
	}
	if _, err := CubeDims([]int{0}, 0, 0); err == nil {
		t.Fatal("zero dim should fail")
	}
}

func TestLeafSpineShape(t *testing.T) {
	tp, err := LeafSpine(2, 5, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 7 {
		t.Fatalf("switches = %d, want 7", tp.NumSwitches())
	}
	if tp.NumLinks() != 10 {
		t.Fatalf("links = %d, want 10", tp.NumLinks())
	}
	if tp.NumHosts() != 25 {
		t.Fatalf("hosts = %d, want 25", tp.NumHosts())
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTestbedShape(t *testing.T) {
	tp, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 7 switches, 10 links, 27 servers.
	if tp.NumSwitches() != 7 || tp.NumLinks() != 10 || tp.NumHosts() != 27 {
		t.Fatalf("testbed = %d sw, %d links, %d hosts",
			tp.NumSwitches(), tp.NumLinks(), tp.NumHosts())
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tp.Connected(nil, nil) {
		t.Fatal("testbed should be connected")
	}
}

func TestLineShape(t *testing.T) {
	tp, err := Line(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 5 || tp.NumLinks() != 4 || tp.NumHosts() != 2 {
		t.Fatalf("line = %d/%d/%d", tp.NumSwitches(), tp.NumLinks(), tp.NumHosts())
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tp, err := RandomRegular(20, 4, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 20 || tp.NumHosts() != 20 {
		t.Fatalf("random = %d sw %d hosts", tp.NumSwitches(), tp.NumHosts())
	}
	if !tp.Connected(nil, nil) {
		t.Fatal("random graph must be connected (spanning tree base)")
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Average degree should be near d.
	if tp.NumLinks() < 20 { // at least the spanning tree + extras
		t.Fatalf("too few links: %d", tp.NumLinks())
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a, _ := RandomRegular(15, 3, 1, 0, rand.New(rand.NewSource(3)))
	b, _ := RandomRegular(15, 3, 1, 0, rand.New(rand.NewSource(3)))
	if !a.Equal(b) {
		t.Fatal("same seed should give identical topologies")
	}
}

func TestGeneratorsValidateAcrossSizes(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		tp, err := FatTree(k, 0, 0)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantSw := 5 * k * k / 4
		if tp.NumSwitches() != wantSw {
			t.Fatalf("k=%d: switches = %d, want %d", k, tp.NumSwitches(), wantSw)
		}
	}
	for _, n := range []int{2, 4, 5} {
		tp, err := Cube(n, 1, 64)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tp.NumSwitches() != n*n*n {
			t.Fatalf("n=%d: switches = %d", n, tp.NumSwitches())
		}
	}
}
