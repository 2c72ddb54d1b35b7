package topo

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	if far, ok := s.CableAt(1, 1); !ok || far != (PortRef{Switch: 2, Port: 1}) {
		t.Fatalf("CableAt(1, 1) = %v, %v", far, ok)
	}
	if far, ok := s.CableAt(2, 1); !ok || far != (PortRef{Switch: 1, Port: 1}) {
		t.Fatalf("CableAt(2, 1) = %v, %v", far, ok)
	}
	if _, ok := s.CableAt(1, 4); ok {
		t.Fatal("a cable on an unwired port")
	}
	nbs := s.Neighbors(1)
	if len(nbs) != 2 || nbs[0].Sw != 2 || nbs[1].Sw != 3 {
		t.Fatalf("neighbors = %+v", nbs)
	}
}

func TestSubgraphRemove(t *testing.T) {
	s := buildSquareSub()
	s.RemoveEdgeByPort(2, 1)
	if _, ok := s.CableAt(1, 1); ok {
		t.Fatal("far end of a port-removed cable still present")
	}
	if _, ok := s.CableAt(2, 1); ok {
		t.Fatal("cable still present")
	}
	if s.RemoveEdgeByPort(3, 3) {
		t.Fatal("removed an edge through an unwired port")
	}
	if !s.RemoveEdgeByPort(3, 2) {
		t.Fatal("edge 3:2-4 not removed by port")
	}
	if _, ok := s.CableAt(4, 2); ok {
		t.Fatal("reverse of a port-removed edge still present")
	}
	if !s.HasSwitch(4) || s.NumLinks() != 2 {
		t.Fatalf("after two removals: switch 4 known %v, %d links, want true and 2", s.HasSwitch(4), s.NumLinks())
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
	if slices.Equal(paths[0], paths[1]) {
		t.Fatal("duplicate k-paths")
	}
}

// TestSubgraphMergeAndClone merges one subgraph into another the way a host
// takes a path response, through DecodePathGraph, and clones the result.
func TestSubgraphMergeAndClone(t *testing.T) {
	a := NewSubgraph()
	a.AddEdge(1, 1, 2, 1)
	b := NewSubgraph()
	b.AddEdge(2, 2, 3, 1)
	h := packet.MACFromUint64(3)
	b.AddHost(HostAttach{Host: h, Switch: 3, Port: 4})
	if _, err := DecodePathGraph(pathGraphBody(b.Marshal()), a); err != nil {
		t.Fatal(err)
	}
	if a.NumSwitches() != 3 || a.NumLinks() != 2 || a.NumHosts() != 1 {
		t.Fatalf("merged = %d/%d/%d", a.NumSwitches(), a.NumLinks(), a.NumHosts())
	}
	c := a.Clone()
	c.RemoveEdgeByPort(1, 1)
	c.AddEdge(2, 5, 4, 1)
	if _, ok := a.CableAt(1, 1); !ok || a.HasSwitch(4) {
		t.Fatal("clone aliases original")
	}
}

// pathGraphBody wraps a serialized subgraph in an empty path-graph header.
func pathGraphBody(sub []byte) []byte {
	var w packet.Writer
	w.U16(pathgrafMagic)
	w.U8(wireVersion)
	w.Raw(make([]byte, 6+6+2+2)) // zero MACs, no primary, no backup
	w.Raw(sub)
	return w.Bytes()
}

// unmarshalSubgraph reads a serialized subgraph through the one reader,
// DecodePathGraph, behind an empty path-graph header.
func unmarshalSubgraph(b []byte) (*Subgraph, error) {
	pg, err := UnmarshalPathGraph(pathGraphBody(b))
	if err != nil {
		return nil, err
	}
	return pg.Graph, nil
}

func TestSubgraphSerializationRoundTrip(t *testing.T) {
	s := buildSquareSub()
	s.AddHost(HostAttach{Host: packet.MACFromUint64(1), Switch: 1, Port: 8})
	b := s.Marshal()
	got, err := unmarshalSubgraph(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSwitches() != s.NumSwitches() || got.NumLinks() != s.NumLinks() || got.NumHosts() != s.NumHosts() {
		t.Fatal("size mismatch after round trip")
	}
	for _, id := range s.SwitchIDs() {
		if !slices.Equal(got.Neighbors(id), s.Neighbors(id)) {
			t.Fatalf("switch %d: cables %v, want %v", id, got.Neighbors(id), s.Neighbors(id))
		}
	}
}

func TestUnmarshalSubgraphErrors(t *testing.T) {
	if _, err := unmarshalSubgraph(nil); err == nil {
		t.Fatal("nil should fail")
	}
	s := buildSquareSub()
	b := s.Marshal()
	if _, err := unmarshalSubgraph(b[:len(b)-1]); err == nil {
		t.Fatal("truncated should fail")
	}
	if _, err := unmarshalSubgraph(append(b, 1)); err == nil {
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

// TestSubgraphMatchesOracle drives Subgraph and its map form
// (oracleSubgraph) through the same seeded writes — path responses merged
// by DecodePathGraph for every ordered host pair of a k=8 fat-tree and of
// a fabric with parallel links, and hand-made bodies with repeated
// neighbours, now and then an unpaired entry and one in four out of order,
// with edge, switch and host edits between them — and compares every read
// after each write.
func TestSubgraphMatchesOracle(t *testing.T) {
	ft8, err := FatTree(8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewDenseScratch()
	for name, tp := range map[string]*Topology{"fat-tree/k8": ft8, "parallel-links": parallelLinkFabric(t)} {
		var bodies [][]byte
		hosts := tp.Hosts()
		for i, src := range hosts {
			for j, dst := range hosts {
				if i == j {
					continue
				}
				wire, _, err := WritePathGraph(tp, src.Host, dst.Host, PathGraphOptions{}, rand.New(rand.NewSource(int64(i*len(hosts)+j))), sc)
				if err != nil {
					t.Fatalf("%s %d->%d: %v", name, i, j, err)
				}
				bodies = append(bodies, wire)
			}
		}
		ids := tp.SwitchIDs()
		matchOracle(t, name, rand.New(rand.NewSource(1)), bodies, ids[len(ids)-1]+2, 8)
	}
	r := rand.New(rand.NewSource(2))
	bodies := make([][]byte, 300)
	for i := range bodies {
		bodies[i] = handMadeBody(r, 10, 6)
	}
	matchOracle(t, "hand-made", r, bodies, 12, 6)
}

// handMadeBody writes a path-graph body of random cables among switches
// 1..maxID, ports 0..maxPort (a port may carry two of them): the switches
// ascending, each switch's ends in neighbour order and toward one neighbour
// in any order. One body in four gains an entry with no far end, one in
// eight a switch naming itself, one in three a switch with no cables, and
// one in four is put out of order: a switch's ends shuffled, a switch split
// over two records, or two records swapped.
func handMadeBody(r *rand.Rand, maxID SwitchID, maxPort Port) []byte {
	id := func() SwitchID { return SwitchID(1 + r.Intn(int(maxID))) }
	port := func() Port { return Port(r.Intn(int(maxPort) + 1)) }
	ends := map[SwitchID][]Neighbor{}
	for n := r.Intn(6); n > 0; n-- {
		if a, b := id(), id(); a != b {
			ends[a] = append(ends[a], Neighbor{Sw: b, Port: port()})
			ends[b] = append(ends[b], Neighbor{Sw: a, Port: port()})
		}
	}
	if r.Intn(4) == 0 {
		a := id()
		ends[a] = append(ends[a], Neighbor{Sw: a%maxID + 1, Port: port()})
	}
	if r.Intn(8) == 0 {
		a := id()
		ends[a] = append(ends[a], Neighbor{Sw: a, Port: port()})
	}
	if r.Intn(3) == 0 {
		a := id()
		ends[a] = append(ends[a], []Neighbor{}...)
	}
	type record struct {
		id  SwitchID
		nbs []Neighbor
	}
	var recs []record
	for sw := SwitchID(1); sw <= maxID; sw++ {
		if nbs, ok := ends[sw]; ok {
			r.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
			slices.SortStableFunc(nbs, func(a, b Neighbor) int { return cmp.Compare(a.Sw, b.Sw) })
			recs = append(recs, record{sw, nbs})
		}
	}
	if len(recs) > 1 && r.Intn(4) == 0 {
		switch i := r.Intn(len(recs) - 1); r.Intn(3) {
		case 0:
			nbs := recs[i].nbs
			r.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
		case 1:
			cut := r.Intn(len(recs[i].nbs) + 1)
			recs = slices.Insert(recs, i+1, record{recs[i].id, recs[i].nbs[cut:]})
			recs[i].nbs = recs[i].nbs[:cut]
		default:
			recs[i], recs[i+1] = recs[i+1], recs[i]
		}
	}
	var w packet.Writer
	writeHeader(&w, pathgrafMagic)
	w.Raw(make([]byte, 6+6+2+2))
	writeHeader(&w, subgraphMagic)
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		w.U32(uint32(rec.id))
		w.U16(uint16(len(rec.nbs)))
		for _, nb := range rec.nbs {
			w.U32(uint32(nb.Sw))
			w.U8(nb.Port)
		}
	}
	hn := r.Intn(3)
	w.U32(uint32(hn))
	for ; hn > 0; hn-- {
		writeAttach(&w, HostAttach{Host: packet.MACFromUint64(uint64(r.Intn(4))), Switch: SwitchID(1 + r.Intn(int(maxID))), Port: Port(r.Intn(int(maxPort) + 1))})
	}
	return w.Bytes()
}

// matchOracle merges each body into a Subgraph and an oracleSubgraph, with
// a random edit of switches 1..maxID and ports 0..maxPort between merges,
// and compares the two after every step.
func matchOracle(t *testing.T, name string, r *rand.Rand, bodies [][]byte, maxID SwitchID, maxPort Port) {
	t.Helper()
	s, o := NewSubgraph(), newOracleSubgraph()
	id := func() SwitchID { return SwitchID(1 + r.Intn(int(maxID))) }
	port := func() Port { return Port(r.Intn(int(maxPort) + 1)) }
	host := func() MAC { return packet.MACFromUint64(uint64(r.Intn(4))) }
	for step, body := range bodies {
		what := "merge"
		_, sErr := DecodePathGraph(body, s)
		_, ref, oErr := oracleUnmarshalPathGraph(body)
		if (sErr != nil) != (oErr != nil) {
			t.Fatalf("%s step %d: verdict %v, oracle %v", name, step, sErr, oErr)
		}
		if oErr == nil {
			o.Merge(ref)
		}
		compareWithOracle(t, fmt.Sprintf("%s step %d (%s)", name, step, what), s, o, maxID, maxPort)
		switch r.Intn(7) {
		case 0:
			a, pa, b, pb := id(), port(), id(), port()
			s.AddEdge(a, pa, b, pb)
			o.AddEdge(a, pa, b, pb)
			what = fmt.Sprintf("AddEdge(%d, %d, %d, %d)", a, pa, b, pb)
		case 1:
			// Remove a cable the cache holds, from a random end.
			sw := id()
			nbs := o.Neighbors(sw)
			if len(nbs) == 0 {
				continue
			}
			p := nbs[r.Intn(len(nbs))].Port
			if !s.RemoveEdgeByPort(sw, p) || !o.RemoveEdgeByPort(sw, p) {
				t.Fatalf("%s step %d: RemoveEdgeByPort(%d, %d) of a held cable removed nothing", name, step, sw, p)
			}
			what = fmt.Sprintf("RemoveEdgeByPort(%d, %d) of a held cable", sw, p)
		case 2:
			sw, p := id(), port()
			if s.RemoveEdgeByPort(sw, p) != o.RemoveEdgeByPort(sw, p) {
				t.Fatalf("%s step %d: RemoveEdgeByPort(%d, %d) verdicts differ", name, step, sw, p)
			}
			what = fmt.Sprintf("RemoveEdgeByPort(%d, %d)", sw, p)
		case 3:
			at := HostAttach{Host: host(), Switch: id(), Port: port()}
			s.AddHost(at)
			o.AddHost(at)
			what = fmt.Sprintf("AddHost(%v)", at)
		case 4:
			h := host()
			s.RemoveHost(h)
			o.RemoveHost(h)
			what = fmt.Sprintf("RemoveHost(%v)", h)
		default:
			continue
		}
		compareWithOracle(t, fmt.Sprintf("%s step %d (%s)", name, step, what), s, o, maxID, maxPort)
	}
}

// compareWithOracle fails unless s answers every read as o does.
func compareWithOracle(t *testing.T, at string, s *Subgraph, o *oracleSubgraph, maxID SwitchID, maxPort Port) {
	t.Helper()
	if !slices.Equal(s.SwitchIDs(), o.SwitchIDs()) {
		t.Fatalf("%s: switches %v, oracle %v", at, s.SwitchIDs(), o.SwitchIDs())
	}
	if s.NumSwitches() != len(o.adj) || s.NumLinks() != o.NumLinks() || s.NumHosts() != len(o.hosts) {
		t.Fatalf("%s: %d/%d/%d switches/links/hosts, oracle %d/%d/%d", at,
			s.NumSwitches(), s.NumLinks(), s.NumHosts(), len(o.adj), o.NumLinks(), len(o.hosts))
	}
	if !slices.Equal(s.Hosts(), o.Hosts()) {
		t.Fatalf("%s: hosts %v, oracle %v", at, s.Hosts(), o.Hosts())
	}
	for sw := SwitchID(0); sw <= maxID; sw++ {
		if s.HasSwitch(sw) != (o.adj[sw] != nil) {
			t.Fatalf("%s: HasSwitch(%d) differs", at, sw)
		}
		if got, want := s.Neighbors(sw), o.Neighbors(sw); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, oracle %v", at, sw, got, want)
		}
		for p := Port(0); p <= maxPort; p++ {
			gn, gok := s.CableAt(sw, p)
			wn, wok := o.CableAt(sw, p)
			if gn != wn || gok != wok {
				t.Fatalf("%s: CableAt(%d, %d) = %v %v, oracle %v %v", at, sw, p, gn, gok, wn, wok)
			}
		}
		for _, to := range append([]SwitchID{0, sw + 1, maxID}, nbIDs(o.Neighbors(sw))...) {
			gp, gok := s.firstCable(sw, to)
			wp, wok := o.firstCable(sw, to)
			if gp != wp || gok != wok {
				t.Fatalf("%s: firstCable(%d, %d) = %d %v, oracle %d %v", at, sw, to, gp, gok, wp, wok)
			}
		}
	}
	if !bytes.Equal(s.Marshal(), o.Marshal()) {
		t.Fatalf("%s: Marshal differs from the oracle's", at)
	}
}

func nbIDs(nbs []Neighbor) []SwitchID {
	out := make([]SwitchID, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.Sw
	}
	return out
}

// TestPathResponseMergeAllocs pins what merging a k=8 path response costs.
// Into a warm cache that already holds it: the decoded header and its two
// paths, nothing for the graph. Two responses into an empty cache: the
// rows and their links, at most 40 allocations (37 without -race; the map
// form took 46 either way).
func TestPathResponseMergeAllocs(t *testing.T) {
	tp, err := FatTree(8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	sc := NewDenseScratch()
	body := func(i, j int) []byte {
		wire, _, err := WritePathGraph(tp, hosts[i].Host, hosts[j].Host, PathGraphOptions{}, rand.New(rand.NewSource(1)), sc)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	a, b := body(3, 9), body(0, len(hosts)-1)
	merge := func(cache *Subgraph, wire []byte) {
		if _, err := DecodePathGraph(wire, cache); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewSubgraph()
	merge(cache, a)
	merge(cache, b)
	if n := testing.AllocsPerRun(100, func() { merge(cache, b) }); n != 3 {
		t.Fatalf("merging a response the cache holds: %v allocs, want 3 (header and paths)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c := NewSubgraph()
		merge(c, a)
		merge(c, b)
	}); n > 40 {
		t.Fatalf("two responses into an empty cache: %v allocs, want at most 40", n)
	}
}
