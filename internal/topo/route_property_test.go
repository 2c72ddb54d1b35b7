package topo

import (
	"math/rand"
	"testing"

	"dumbnet/internal/packet"
)

// Property suite: every route the routing layer hands to a host — shortest
// tag paths, and the primary/backup/detour routes inside a path graph — must
// be loop-free and within the hop limit, across randomized topologies. The
// dumb switch cannot detect loops (no TTL in the native encoding), so
// loop-freedom is a property the smart edge must guarantee by construction.

// walkSwitches follows a tag path from src's attachment switch, returning
// the switch sequence it traverses and failing on dead ports or early hosts.
func walkSwitches(t *testing.T, tp *Topology, src packet.MAC, tags packet.Path) []SwitchID {
	t.Helper()
	at, err := tp.HostAt(src)
	if err != nil {
		t.Fatalf("HostAt(%v): %v", src, err)
	}
	cur := at.Switch
	seq := []SwitchID{cur}
	for i, tag := range tags {
		ep, err := tp.EndpointAt(cur, tag)
		if err != nil {
			t.Fatalf("hop %d: EndpointAt(%d, %d): %v", i, cur, tag, err)
		}
		switch ep.Kind {
		case EndpointHost:
			if i != len(tags)-1 {
				t.Fatalf("hop %d: reached host mid-path", i)
			}
			return seq
		case EndpointSwitch:
			cur = ep.Switch
			seq = append(seq, cur)
		default:
			t.Fatalf("hop %d: dead port %d on switch %d", i, tag, cur)
		}
	}
	t.Fatalf("path %v did not terminate at a host", tags)
	return nil
}

// assertLoopFree fails if any switch appears twice in the sequence.
func assertLoopFree(t *testing.T, seq []SwitchID) {
	t.Helper()
	seen := make(map[SwitchID]bool, len(seq))
	for _, sw := range seq {
		if seen[sw] {
			t.Fatalf("switch %d visited twice in %v", sw, seq)
		}
		seen[sw] = true
	}
}

func TestRoutePropertiesRandomizedTopologies(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		build func() (*Topology, error)
	}{
		{"fattree-k4", 1, func() (*Topology, error) { return FatTree(4, 1, 0) }},
		{"fattree-k8", 2, func() (*Topology, error) { return FatTree(8, 2, 0) }},
		{"cube-3x3x3", 3, func() (*Topology, error) { return Cube(3, 1, 0) }},
		{"cube-4x4x4", 4, func() (*Topology, error) { return Cube(4, 2, 0) }},
		{"leafspine", 5, func() (*Topology, error) { return LeafSpine(4, 6, 4, 0) }},
		{"random-regular", 6, func() (*Topology, error) {
			return RandomRegular(24, 4, 2, 0, rand.New(rand.NewSource(99)))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tp, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			hosts := tp.Hosts()
			if len(hosts) < 2 {
				t.Fatal("topology has fewer than two hosts")
			}
			rng := rand.New(rand.NewSource(tc.seed))
			const trials = 40
			for trial := 0; trial < trials; trial++ {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				if src.Host == dst.Host {
					continue
				}

				// Shortest tag path: must verify, stay in bounds, no loops,
				// and match the BFS distance exactly.
				tags, err := tp.HostPath(src.Host, dst.Host, rng)
				if err != nil {
					t.Fatalf("trial %d: HostPath: %v", trial, err)
				}
				if len(tags) == 0 || len(tags) > packet.MaxPathLen {
					t.Fatalf("trial %d: %d tags exceeds hop limit %d", trial, len(tags), packet.MaxPathLen)
				}
				if err := tp.VerifyTags(src.Host, dst.Host, tags); err != nil {
					t.Fatalf("trial %d: VerifyTags: %v", trial, err)
				}
				seq := walkSwitches(t, tp, src.Host, tags)
				assertLoopFree(t, seq)
				if want := OracleDistances(tp, src.Switch)[dst.Switch]; len(seq)-1 != want {
					t.Fatalf("trial %d: path length %d, shortest distance %d", trial, len(seq)-1, want)
				}

				// Path graph (Algorithm 1): primary and backup must be
				// loop-free switch paths within the hop limit, and every
				// route synthesized from the cached subgraph must be too.
				pg, err := BuildPathGraph(tp, src.Host, dst.Host, PathGraphOptions{}, rng)
				if err != nil {
					t.Fatalf("trial %d: BuildPathGraph: %v", trial, err)
				}
				for _, sp := range []SwitchPath{pg.Primary, pg.Backup} {
					if len(sp) == 0 {
						continue // backup is best-effort
					}
					assertLoopFree(t, sp)
					if len(sp) > packet.MaxPathLen {
						t.Fatalf("trial %d: switch path %v exceeds hop limit", trial, sp)
					}
					if sp[0] != src.Switch || sp[len(sp)-1] != dst.Switch {
						t.Fatalf("trial %d: path %v does not connect %d->%d", trial, sp, src.Switch, dst.Switch)
					}
				}
				// Routes a host would derive from the cached graph: the k
				// shortest paths within the subgraph view.
				kp, err := KShortestPaths(pg.Graph, src.Switch, dst.Switch, 4)
				if err != nil {
					t.Fatalf("trial %d: KShortestPaths on path graph: %v", trial, err)
				}
				for _, sp := range kp {
					assertLoopFree(t, sp)
					if len(sp) > packet.MaxPathLen {
						t.Fatalf("trial %d: cached route %v exceeds hop limit", trial, sp)
					}
				}
			}
		})
	}
}
