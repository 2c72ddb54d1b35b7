package topo

import (
	"errors"
	"testing"

	"dumbnet/internal/packet"
)

func buildSquareSub() *Subgraph {
	// 1 -(p1/p1)- 2 ; 2 -(p2/p1)- 4 ; 1 -(p2/p1)- 3 ; 3 -(p2/p2)- 4
	s := NewSubgraph()
	s.AddEdge(1, 1, 2, 1)
	s.AddEdge(2, 2, 4, 1)
	s.AddEdge(1, 2, 3, 1)
	s.AddEdge(3, 2, 4, 2)
	return s
}

func TestSubgraphEdges(t *testing.T) {
	s := buildSquareSub()
	if s.NumSwitches() != 4 || s.NumLinks() != 4 {
		t.Fatalf("size = %d sw %d links", s.NumSwitches(), s.NumLinks())
	}
	p, err := s.PortToward(1, 2)
	if err != nil || p != 1 {
		t.Fatalf("PortToward(1,2) = %d, %v", p, err)
	}
	p, err = s.PortToward(2, 1)
	if err != nil || p != 1 {
		t.Fatalf("PortToward(2,1) = %d, %v", p, err)
	}
	if _, err := s.PortToward(1, 4); !errors.Is(err, ErrNoLink) {
		t.Fatalf("non-adjacent: %v", err)
	}
	nbs := s.Neighbors(1)
	if len(nbs) != 2 || nbs[0].Sw != 2 || nbs[1].Sw != 3 {
		t.Fatalf("neighbors = %+v", nbs)
	}
}

func TestSubgraphRemove(t *testing.T) {
	s := buildSquareSub()
	s.RemoveEdge(1, 2)
	if _, err := s.PortToward(1, 2); err == nil {
		t.Fatal("edge still present")
	}
	if _, err := s.PortToward(2, 1); err == nil {
		t.Fatal("reverse edge still present")
	}
	s.RemoveSwitch(4)
	if s.HasSwitch(4) {
		t.Fatal("switch still present")
	}
	if _, err := s.PortToward(3, 4); err == nil {
		t.Fatal("dangling edge to removed switch")
	}
}

func TestSubgraphHosts(t *testing.T) {
	s := buildSquareSub()
	h := packet.MACFromUint64(9)
	s.AddHost(HostAttach{Host: h, Switch: 4, Port: 7})
	at, err := s.HostAt(h)
	if err != nil || at.Switch != 4 || at.Port != 7 {
		t.Fatalf("HostAt = %+v, %v", at, err)
	}
	if s.NumHosts() != 1 {
		t.Fatalf("NumHosts = %d", s.NumHosts())
	}
	if _, err := s.HostAt(packet.MACFromUint64(10)); !errors.Is(err, ErrNoHost) {
		t.Fatalf("missing host: %v", err)
	}
}

func TestSubgraphHostPathAndK(t *testing.T) {
	s := buildSquareSub()
	h1 := packet.MACFromUint64(1)
	h2 := packet.MACFromUint64(2)
	s.AddHost(HostAttach{Host: h1, Switch: 1, Port: 9})
	s.AddHost(HostAttach{Host: h2, Switch: 4, Port: 9})
	tags, err := s.HostPath(h1, h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 3 {
		t.Fatalf("tags = %v", tags)
	}
	paths, err := KShortestPaths(s, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("k-paths = %d, want 2 (two sides of the square)", len(paths))
	}
	if paths[0].Equal(paths[1]) {
		t.Fatal("duplicate k-paths")
	}
}

func TestSubgraphMergeAndClone(t *testing.T) {
	a := NewSubgraph()
	a.AddEdge(1, 1, 2, 1)
	b := NewSubgraph()
	b.AddEdge(2, 2, 3, 1)
	h := packet.MACFromUint64(3)
	b.AddHost(HostAttach{Host: h, Switch: 3, Port: 4})
	a.Merge(b)
	if a.NumSwitches() != 3 || a.NumLinks() != 2 || a.NumHosts() != 1 {
		t.Fatalf("merged = %d/%d/%d", a.NumSwitches(), a.NumLinks(), a.NumHosts())
	}
	c := a.Clone()
	c.RemoveEdge(1, 2)
	if _, err := a.PortToward(1, 2); err != nil {
		t.Fatal("clone aliases original")
	}
}

func TestSubgraphSerializationRoundTrip(t *testing.T) {
	s := buildSquareSub()
	s.AddHost(HostAttach{Host: packet.MACFromUint64(1), Switch: 1, Port: 8})
	b := s.Marshal()
	got, err := UnmarshalSubgraph(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSwitches() != s.NumSwitches() || got.NumLinks() != s.NumLinks() || got.NumHosts() != s.NumHosts() {
		t.Fatal("size mismatch after round trip")
	}
	for _, pair := range [][2]SwitchID{{1, 2}, {2, 4}, {1, 3}, {3, 4}} {
		wp, _ := s.PortToward(pair[0], pair[1])
		gp, err := got.PortToward(pair[0], pair[1])
		if err != nil || gp != wp {
			t.Fatalf("edge %v: %d vs %d (%v)", pair, gp, wp, err)
		}
	}
}

func TestUnmarshalSubgraphErrors(t *testing.T) {
	if _, err := UnmarshalSubgraph(nil); err == nil {
		t.Fatal("nil should fail")
	}
	s := buildSquareSub()
	b := s.Marshal()
	if _, err := UnmarshalSubgraph(b[:len(b)-1]); err == nil {
		t.Fatal("truncated should fail")
	}
	if _, err := UnmarshalSubgraph(append(b, 1)); err == nil {
		t.Fatal("trailing should fail")
	}
}

func TestTopologySerializationRoundTrip(t *testing.T) {
	tp, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	b := tp.Marshal()
	got, err := UnmarshalTopology(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tp) {
		t.Fatal("round trip lost information")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologySerializationAcrossShapes(t *testing.T) {
	build := []func() (*Topology, error){
		func() (*Topology, error) { return FatTree(4, 0, 0) },
		func() (*Topology, error) { return Cube(3, 1, 0) },
		func() (*Topology, error) { return Line(5, 4) },
	}
	for i, f := range build {
		tp, err := f()
		if err != nil {
			t.Fatalf("%d: %v", i, err)
		}
		got, err := UnmarshalTopology(tp.Marshal())
		if err != nil {
			t.Fatalf("%d: %v", i, err)
		}
		if !got.Equal(tp) {
			t.Fatalf("%d: mismatch", i)
		}
	}
}

func TestUnmarshalTopologyErrors(t *testing.T) {
	if _, err := UnmarshalTopology(nil); err == nil {
		t.Fatal("nil should fail")
	}
	tp, _ := Line(3, 4)
	b := tp.Marshal()
	if _, err := UnmarshalTopology(b[:len(b)-3]); err == nil {
		t.Fatal("truncated should fail")
	}
	if _, err := UnmarshalTopology(append(b, 9)); err == nil {
		t.Fatal("trailing should fail")
	}
	b[0] = 0xAA // corrupt magic
	if _, err := UnmarshalTopology(b); err == nil {
		t.Fatal("bad magic should fail")
	}
}
