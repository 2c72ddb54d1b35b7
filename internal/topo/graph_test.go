package topo

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dumbnet/internal/packet"
)

func TestAddSwitchValidation(t *testing.T) {
	tp := New()
	if err := tp.AddSwitch(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSwitch(1, 4); !errors.Is(err, ErrDupSwitch) {
		t.Fatalf("dup: %v", err)
	}
	if err := tp.AddSwitch(2, 0); !errors.Is(err, ErrPortCount) {
		t.Fatalf("zero ports: %v", err)
	}
	if err := tp.AddSwitch(2, 300); !errors.Is(err, ErrPortCount) {
		t.Fatalf("too many ports: %v", err)
	}
	if tp.NumSwitches() != 1 {
		t.Fatalf("NumSwitches = %d", tp.NumSwitches())
	}
}

func TestConnectAndNeighbors(t *testing.T) {
	tp := New()
	for i := 1; i <= 3; i++ {
		if err := tp.AddSwitch(SwitchID(i), 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Connect(1, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 1, 3, 2); !errors.Is(err, ErrPortWired) {
		t.Fatalf("rewire: %v", err)
	}
	if err := tp.Connect(9, 1, 1, 3); !errors.Is(err, ErrNoSwitch) {
		t.Fatalf("missing switch: %v", err)
	}
	if err := tp.Connect(1, 9, 2, 3); !errors.Is(err, ErrBadPort) {
		t.Fatalf("bad port: %v", err)
	}
	if err := tp.Connect(1, 3, 1, 3); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}

	nbs := tp.Neighbors(1)
	if len(nbs) != 2 || nbs[0] != (Neighbor{Sw: 2, Port: 1, FarPort: 2}) || nbs[1] != (Neighbor{Sw: 3, Port: 2, FarPort: 1}) {
		t.Fatalf("neighbors = %+v", nbs)
	}
	if tp.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d", tp.NumLinks())
	}
	p, err := tp.PortToward(2, 1)
	if err != nil || p != 2 {
		t.Fatalf("PortToward = %d, %v", p, err)
	}
	if _, err := tp.PortToward(2, 3); !errors.Is(err, ErrNoLink) {
		t.Fatalf("non-adjacent: %v", err)
	}
}

func TestAttachDetachHost(t *testing.T) {
	tp := New()
	if err := tp.AddSwitch(1, 4); err != nil {
		t.Fatal(err)
	}
	h := packet.MACFromUint64(42)
	if err := tp.AttachHost(h, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := tp.AttachHost(h, 1, 4); !errors.Is(err, ErrDupHost) {
		t.Fatalf("dup host: %v", err)
	}
	at, err := tp.HostAt(h)
	if err != nil || at.Switch != 1 || at.Port != 3 {
		t.Fatalf("HostAt = %+v, %v", at, err)
	}
	ep, err := tp.EndpointAt(1, 3)
	if err != nil || ep.Kind != EndpointHost || ep.Host != h {
		t.Fatalf("EndpointAt = %+v, %v", ep, err)
	}
	if err := tp.DetachHost(h); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.HostAt(h); !errors.Is(err, ErrNoHost) {
		t.Fatalf("after detach: %v", err)
	}
	ep, _ = tp.EndpointAt(1, 3)
	if ep.Kind != EndpointNone {
		t.Fatalf("port not freed: %+v", ep)
	}
}

func TestDisconnectAndRemoveSwitch(t *testing.T) {
	tp := New()
	for i := 1; i <= 3; i++ {
		_ = tp.AddSwitch(SwitchID(i), 4)
	}
	_ = tp.Connect(1, 1, 2, 1)
	_ = tp.Connect(2, 2, 3, 1)
	h := packet.MACFromUint64(1)
	_ = tp.AttachHost(h, 2, 3)

	if err := tp.Disconnect(1, 1); err != nil {
		t.Fatal(err)
	}
	if tp.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", tp.NumLinks())
	}
	// Far side must be unwired too.
	ep, _ := tp.EndpointAt(2, 1)
	if ep.Kind != EndpointNone {
		t.Fatalf("far side still wired: %+v", ep)
	}
	if err := tp.Disconnect(1, 1); !errors.Is(err, ErrNoLink) {
		t.Fatalf("double disconnect: %v", err)
	}

	if err := tp.RemoveSwitch(2); err != nil {
		t.Fatal(err)
	}
	if tp.HasSwitch(2) || tp.NumLinks() != 0 || tp.NumHosts() != 0 {
		t.Fatalf("remove switch left state: links=%d hosts=%d", tp.NumLinks(), tp.NumHosts())
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneEqualValidate(t *testing.T) {
	tp, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	c := tp.Clone()
	if !tp.Equal(c) || !c.Equal(tp) {
		t.Fatal("clone not equal")
	}
	// Mutate the clone; originals must diverge.
	if err := c.Disconnect(1, 1); err != nil {
		t.Fatal(err)
	}
	if tp.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
}

func TestConnected(t *testing.T) {
	tp, _ := Line(4, 4)
	if !tp.Connected(nil, nil) {
		t.Fatal("line should be connected")
	}
	// Cut the middle.
	if err := tp.Disconnect(2, 2); err != nil {
		t.Fatal(err)
	}
	if tp.Connected(nil, nil) {
		t.Fatal("cut line should be disconnected")
	}
	if New().Connected(nil, nil) != true {
		t.Fatal("empty topology is trivially connected")
	}
}

func TestHostsSorted(t *testing.T) {
	tp, _ := Line(2, 4)
	hosts := tp.Hosts()
	if len(hosts) != 2 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	if bytes.Compare(hosts[0].Host[:], hosts[1].Host[:]) >= 0 {
		t.Fatal("hosts not sorted")
	}
}

func TestSwitchIDsSorted(t *testing.T) {
	tp := New()
	for _, id := range []SwitchID{5, 1, 3} {
		_ = tp.AddSwitch(id, 2)
	}
	ids := tp.SwitchIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestPortCount(t *testing.T) {
	tp := New()
	_ = tp.AddSwitch(7, 48)
	n, err := tp.PortCount(7)
	if err != nil || n != 48 {
		t.Fatalf("PortCount = %d, %v", n, err)
	}
	if _, err := tp.PortCount(8); !errors.Is(err, ErrNoSwitch) {
		t.Fatalf("missing: %v", err)
	}
}

// oracleFabrics returns the four generator families of oracleTopos (the
// oracle tests' fabrics) plus a fabric with parallel links, which no
// generator makes.
func oracleFabrics(t *testing.T) map[string]*Topology {
	out := oracleTopos(t)
	out["parallel-links"] = parallelLinkFabric(t)
	return out
}

// oracleOf copies tp into the map oracle through its public reads.
func oracleOf(t *testing.T, tp *Topology) *oracleTopology {
	t.Helper()
	o := newOracleTopology()
	for _, id := range tp.SwitchIDs() {
		n, _ := tp.PortCount(id)
		if err := o.AddSwitch(id, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range tp.SwitchIDs() {
		for _, nb := range tp.Neighbors(id) {
			if id > nb.Sw {
				continue // wired from the other end
			}
			ep, _ := tp.EndpointAt(id, nb.Port)
			if err := o.Connect(id, nb.Port, nb.Sw, ep.Port); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, at := range tp.Hosts() {
		if err := o.AttachHost(at.Host, at.Switch, at.Port); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// sentinel names the topology error err wraps, nil for none.
func sentinel(err error) error {
	for _, s := range []error{ErrDupSwitch, ErrNoSwitch, ErrBadPort, ErrPortWired, ErrDupHost, ErrNoHost, ErrNoLink, ErrSelfLoop, ErrPortCount} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// sameWiring fails t unless tp and o answer Neighbors, EndpointAt (every
// port and one past the last, of every switch either knows), Links and
// Marshal alike.
func sameWiring(t *testing.T, what string, tp *Topology, o *oracleTopology) {
	t.Helper()
	for id := SwitchID(0); id <= 1000; id++ {
		osw, ok := o.switches[id]
		if ok != tp.HasSwitch(id) {
			t.Fatalf("%s: switch %d present %v, oracle %v", what, id, tp.HasSwitch(id), ok)
		}
		if !ok {
			continue
		}
		if got, want := tp.Neighbors(id), o.Neighbors(id); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, oracle %v", what, id, got, want)
		}
		for p := 0; p <= osw.ports+1; p++ {
			got, gerr := tp.EndpointAt(id, Port(p))
			want, werr := o.EndpointAt(id, Port(p))
			if got != want || sentinel(gerr) != sentinel(werr) {
				t.Fatalf("%s: EndpointAt(%d, %d) = %+v, %v; oracle %+v, %v", what, id, p, got, gerr, want, werr)
			}
		}
	}
	if got, want := tp.Links(), o.Links(); !slices.Equal(got, want) {
		t.Fatalf("%s: Links() = %v, oracle %v", what, got, want)
	}
	if !bytes.Equal(tp.Marshal(), o.Marshal()) {
		t.Fatalf("%s: Marshal bytes differ from the oracle's", what)
	}
}

// TestTopologyMatchesMapOracle runs seeded random Connect, Disconnect,
// AttachHost, DetachHost, RemoveSwitch and AddSwitch sequences on every
// fabric of oracleFabrics and on the map form of the same wiring, and
// after every step holds Topology to the oracle: the same error,
// Neighbors, EndpointAt, Links and Marshal bytes; a Clone equal to its
// source both ways; Equal against the pre-step clone answering as the
// oracle's Equal does; and that pre-step clone, which shares neighbour rows
// with the topology the step changed, still reading as the pre-step oracle.
func TestTopologyMatchesMapOracle(t *testing.T) {
	for name, tp := range oracleFabrics(t) {
		t.Run(name, func(t *testing.T) {
			o := oracleOf(t, tp)
			sameWiring(t, "start", tp, o)
			ids := tp.SwitchIDs()
			maxPorts := 0
			for _, id := range ids {
				n, _ := tp.PortCount(id)
				maxPorts = max(maxPorts, n)
			}
			rng := rand.New(rand.NewSource(int64(len(ids))))
			randSw := func() SwitchID { return ids[rng.Intn(len(ids))] }
			randPort := func() Port { return Port(rng.Intn(maxPorts + 1)) }
			macs := 2*tp.NumHosts() + 2
			randHost := func() MAC { return packet.MACFromUint64(uint64(rng.Intn(macs))) }
			for step := 0; step < 600; step++ {
				prev, oprev := tp.Clone(), o.Clone()
				var what string
				var gerr, werr error
				switch r := rng.Intn(100); {
				case r < 30:
					a, pa, b, pb := randSw(), randPort(), randSw(), randPort()
					what = fmt.Sprintf("Connect(%d, %d, %d, %d)", a, pa, b, pb)
					gerr, werr = tp.Connect(a, pa, b, pb), o.Connect(a, pa, b, pb)
				case r < 50:
					sw, p := randSw(), randPort()
					if nbs := tp.Neighbors(sw); len(nbs) > 0 && rng.Intn(2) == 0 {
						p = nbs[rng.Intn(len(nbs))].Port
					}
					what = fmt.Sprintf("Disconnect(%d, %d)", sw, p)
					gerr, werr = tp.Disconnect(sw, p), o.Disconnect(sw, p)
				case r < 70:
					h, sw, p := randHost(), randSw(), randPort()
					what = fmt.Sprintf("AttachHost(%v, %d, %d)", h, sw, p)
					gerr, werr = tp.AttachHost(h, sw, p), o.AttachHost(h, sw, p)
				case r < 90:
					h := randHost()
					what = fmt.Sprintf("DetachHost(%v)", h)
					gerr, werr = tp.DetachHost(h), o.DetachHost(h)
				case r < 95:
					sw := randSw()
					what = fmt.Sprintf("RemoveSwitch(%d)", sw)
					gerr, werr = tp.RemoveSwitch(sw), o.RemoveSwitch(sw)
				default:
					sw, n := randSw(), 1+rng.Intn(maxPorts)
					what = fmt.Sprintf("AddSwitch(%d, %d)", sw, n)
					gerr, werr = tp.AddSwitch(sw, n), o.AddSwitch(sw, n)
				}
				what = fmt.Sprintf("step %d %s", step, what)
				if sentinel(gerr) != sentinel(werr) {
					t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
				}
				sameWiring(t, what, tp, o)
				sameWiring(t, what+", pre-step clone", prev, oprev)
				if c := tp.Clone(); !c.Equal(tp) || !tp.Equal(c) {
					t.Fatalf("%s: clone not equal to its source", what)
				}
				if got, want := tp.Equal(prev), o.Equal(oprev); got != want {
					t.Fatalf("%s: Equal(pre-step) = %v, oracle %v", what, got, want)
				}
				if err := tp.Validate(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		})
	}
}

// TestUnmarshalSizesByWiredPorts: a decoded switch's wiring slice ends at
// its highest wired port, so a declared 255-port switch with nothing wired
// costs no port storage at all.
func TestUnmarshalSizesByWiredPorts(t *testing.T) {
	src := New()
	for id := SwitchID(1); id <= 64; id++ {
		if err := src.AddSwitch(id, int(packet.MaxPort)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.AttachHost(packet.MACFromUint64(1), 64, 3); err != nil {
		t.Fatal(err)
	}
	tp, err := UnmarshalTopology(src.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range tp.switches {
		id := sw.id
		if n, _ := tp.PortCount(id); n != int(packet.MaxPort) {
			t.Fatalf("switch %d decoded with %d ports", id, n)
		}
		want := 0
		if id == 64 {
			want = 3
		}
		if len(sw.wired) != want || cap(sw.wired) >= int(packet.MaxPort) || (want == 0 && cap(sw.wired) != 0) {
			t.Fatalf("switch %d: wiring slice len %d cap %d, want len %d and no port storage past it", id, len(sw.wired), cap(sw.wired), want)
		}
	}
}

// TestCableTable holds each generation's cable table to the wiring on every
// fabric of oracleFabrics: cable c's two Dense edges leave A by PA toward B
// and B by PB toward A, and the cables' edges are every edge once. A warm
// Links call allocates nothing, and a Disconnect publishes a new table
// without touching the old one.
func TestCableTable(t *testing.T) {
	check := func(t *testing.T, tp *Topology) {
		t.Helper()
		g, links := tp.Dense(), tp.Links()
		seen := make([]bool, len(g.nbr))
		edge := func(e int32, from, to SwitchID, p Port) {
			t.Helper()
			i, _ := g.IndexOf(from)
			lo, hi := g.EdgeRange(i)
			if e < lo || e >= hi || g.IDOf(g.EdgeTarget(e)) != to || g.EdgePort(e) != p || seen[e] {
				t.Fatalf("edge %d is not the one cable edge %d:p%d -> %d", e, from, p, to)
			}
			seen[e] = true
		}
		for c, l := range links {
			ab, ba := tp.CableEdges(c)
			edge(ab, l.A, l.B, l.PA)
			edge(ba, l.B, l.A, l.PB)
		}
		if slices.Contains(seen, false) {
			t.Fatalf("%d cables cover %d of %d edges", len(links), 2*len(links), len(seen))
		}
	}
	for name, tp := range oracleFabrics(t) {
		t.Run(name, func(t *testing.T) {
			check(t, tp)
			if n := testing.AllocsPerRun(100, func() { _ = tp.Links() }); n != 0 {
				t.Fatalf("warm Links: %v allocs, want 0", n)
			}
			old := tp.Links()
			l := old[len(old)/2]
			before := slices.Clone(old)
			if err := tp.Disconnect(l.A, l.PA); err != nil {
				t.Fatal(err)
			}
			if got := tp.Links(); len(got) != len(old)-1 || slices.Contains(got, l) {
				t.Fatalf("after cutting %+v: %d cables, want %d without it", l, len(got), len(old)-1)
			}
			if !slices.Equal(old, before) {
				t.Fatal("Disconnect changed the previous generation's table")
			}
			check(t, tp)
		})
	}
}

// TestSeverableMatchesClone holds the masked connectivity check to the
// clone it replaced: clone, Disconnect each down cable at its own port PA,
// remove each crashed switch, then ask an unfaulted Connected. Seeded
// random fault sets over every fabric of oracleFabrics, the parallel-link
// one included; a down list may name a cable twice, and a crashed list a
// switch twice.
func TestSeverableMatchesClone(t *testing.T) {
	for name, tp := range oracleFabrics(t) {
		t.Run(name, func(t *testing.T) {
			links, ids := tp.Links(), tp.SwitchIDs()
			rng := rand.New(rand.NewSource(int64(len(links))))
			verdicts := map[bool]int{}
			for trial := 0; trial < 400; trial++ {
				var down []int
				for range rng.Intn(1 + len(links)/3) {
					down = append(down, rng.Intn(len(links)))
				}
				var crashed []int32
				for range rng.Intn(3) {
					crashed = append(crashed, int32(rng.Intn(len(ids))))
				}
				v := tp.Clone()
				for _, c := range down {
					if err := v.Disconnect(links[c].A, links[c].PA); err != nil && !errors.Is(err, ErrNoLink) {
						t.Fatal(err)
					}
				}
				for _, i := range crashed {
					if v.HasSwitch(ids[i]) {
						if err := v.RemoveSwitch(ids[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				want := v.Connected(nil, nil)
				if got := tp.Connected(down, crashed); got != want {
					t.Fatalf("trial %d: down %v crashed %v: masked %v, clone %v", trial, down, crashed, got, want)
				}
				verdicts[want]++
			}
			if verdicts[true] == 0 || verdicts[false] == 0 {
				t.Fatalf("verdicts %v: the trials never exercised one side", verdicts)
			}
		})
	}
}
