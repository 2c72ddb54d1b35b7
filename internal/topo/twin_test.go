package topo

import (
	"math/rand"
	"slices"
	"testing"
)

// Two cables between the same two switches are two routes: the tests here
// run on a leaf-spine whose spine 1 and leaf 3 are joined twice, 1:1–3:3
// (the generator's cable) and the twin 1:5–3:5.

// twinLeafSpine returns LeafSpine(2, 2, 2, 8) with the twin 1:5–3:5 added.
func twinLeafSpine(t *testing.T) *Topology {
	t.Helper()
	tp, err := LeafSpine(2, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 5, 3, 5); err != nil {
		t.Fatal(err)
	}
	return tp
}

// cablesBetween lists a's cables toward b as (local port, far port) pairs,
// in a's row order.
func cablesBetween(s *Subgraph, a, b SwitchID) [][2]Port {
	var out [][2]Port
	for _, nb := range s.Neighbors(a) {
		if nb.Sw == b {
			far, _ := s.CableAt(a, nb.Port)
			out = append(out, [2]Port{nb.Port, far.Port})
		}
	}
	return out
}

// TestPathResponseHoldsBothTwins decodes the path response between hosts on
// leaves 3 and 4, then decodes its re-encoding: both times each end of
// spine 1–leaf 3 holds both cables, each entry paired with its own far end.
func TestPathResponseHoldsBothTwins(t *testing.T) {
	tp := twinLeafSpine(t)
	hosts := tp.Hosts() // two on leaf 3, then two on leaf 4
	wire, _, err := WritePathGraph(tp, hosts[0].Host, hosts[2].Host, PathGraphOptions{}, rand.New(rand.NewSource(1)), NewDenseScratch())
	if err != nil {
		t.Fatal(err)
	}
	pg, err := UnmarshalPathGraph(wire)
	if err != nil {
		t.Fatal(err)
	}
	again, err := UnmarshalPathGraph(pg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Subgraph{pg.Graph, again.Graph} {
		if got, want := cablesBetween(s, 1, 3), [][2]Port{{1, 3}, {5, 5}}; !slices.Equal(got, want) {
			t.Fatalf("spine 1's cables toward leaf 3: %v, want %v", got, want)
		}
		if got, want := cablesBetween(s, 3, 1), [][2]Port{{3, 1}, {5, 5}}; !slices.Equal(got, want) {
			t.Fatalf("leaf 3's cables toward spine 1: %v, want %v", got, want)
		}
	}
}

// TestRemoveEdgeByPortRemovesOneTwin removes each twin by either of its
// ends: both halves of that cable go, and the other cable stays whole.
func TestRemoveEdgeByPortRemovesOneTwin(t *testing.T) {
	for _, end := range []PortRef{{1, 1}, {3, 3}, {1, 5}, {3, 5}} {
		s := NewSubgraph()
		s.AddEdge(1, 1, 3, 3)
		s.AddEdge(1, 5, 3, 5)
		s.AddEdge(2, 1, 3, 4)
		if !s.RemoveEdgeByPort(end.Switch, end.Port) {
			t.Fatalf("RemoveEdgeByPort(%v) removed nothing", end)
		}
		kept := [][2]Port{{5, 5}}
		if end.Port == 5 {
			kept = [][2]Port{{1, 3}}
		}
		if got := cablesBetween(s, 1, 3); !slices.Equal(got, kept) {
			t.Fatalf("after RemoveEdgeByPort(%v): spine 1 toward leaf 3 %v, want %v", end, got, kept)
		}
		if got := len(cablesBetween(s, 3, 1)); got != 1 || s.NumLinks() != 2 {
			t.Fatalf("after RemoveEdgeByPort(%v): leaf 3 holds %d cables toward spine 1, %d cables in all; want 1 and 2", end, got, s.NumLinks())
		}
	}
}

// TestKShortestPathsTwinRoutes asks Yen for more routes than leaf 3 has to
// leaf 4: the twins are two routes through spine 1 with distinct tags, the
// higher-port twin found by the spur search that hides both cables the
// first two routes leave leaf 3 by.
func TestKShortestPathsTwinRoutes(t *testing.T) {
	tp := twinLeafSpine(t)
	routes, err := KShortestPaths(tp, 3, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []Route{
		{{3, 3}, {1, 2}, {4, 0}},
		{{3, 4}, {2, 2}, {4, 0}},
		{{3, 5}, {1, 2}, {4, 0}},
	}
	if !slices.EqualFunc(routes, want, func(a, b Route) bool { return slices.Equal(a, b) }) {
		t.Fatalf("routes %v, want %v", routes, want)
	}
}
