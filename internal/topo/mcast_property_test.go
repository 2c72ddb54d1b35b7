package topo_test

import (
	"math/rand"
	"testing"

	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// Property suite for the multicast tree builder, mirroring the unicast
// route property test: across fat-tree, leaf-spine and random-regular
// fabrics with randomized groups, every tree the builder emits must
//
//   - be acyclic — no switch appears twice anywhere in the tree (a cycle
//     would replicate forever; the dumb switch cannot detect one);
//   - span exactly the member set — every member minus the source is
//     delivered once, and nothing else is delivered at all;
//   - stay inside the wire bounds — encoded size, depth, and per-member
//     hop counts that match the BFS shortest distance (the builder is an
//     SPT merge, so no member may be reached on a detour).

// walkMcastHops replays a decoded tree over the topology, recording every
// visited switch and every delivered host with its switch-hop depth.
func walkMcastHops(t *testing.T, tp *topo.Topology, cur topo.SwitchID, hops []packet.TreeHop,
	depth int, visited map[topo.SwitchID]bool, delivered map[packet.MAC]int) {
	t.Helper()
	for _, h := range hops {
		ep, err := tp.EndpointAt(cur, topo.Port(h.Port))
		if err != nil {
			t.Fatalf("switch %d port %d: %v", cur, h.Port, err)
		}
		if len(h.Sub) == 0 {
			if ep.Kind != topo.EndpointHost {
				t.Fatalf("leaf branch at switch %d port %d does not face a host", cur, h.Port)
			}
			delivered[ep.Host]++
			continue
		}
		if ep.Kind != topo.EndpointSwitch {
			t.Fatalf("interior branch at switch %d port %d does not face a switch", cur, h.Port)
		}
		if visited[ep.Switch] {
			t.Fatalf("switch %d appears twice in the tree — cycle", ep.Switch)
		}
		visited[ep.Switch] = true
		walkMcastHops(t, tp, ep.Switch, h.Sub, depth+1, visited, delivered)
	}
}

func TestMcastTreePropertiesRandomizedTopologies(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		build func() (*topo.Topology, error)
	}{
		{"fattree-k4", 1, func() (*topo.Topology, error) { return topo.FatTree(4, 1, 0) }},
		{"fattree-k8", 2, func() (*topo.Topology, error) { return topo.FatTree(8, 2, 0) }},
		{"leafspine", 3, func() (*topo.Topology, error) { return topo.LeafSpine(4, 6, 4, 0) }},
		{"random-regular", 4, func() (*topo.Topology, error) {
			return topo.RandomRegular(24, 4, 2, 0, rand.New(rand.NewSource(99)))
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
			if len(hosts) < 3 {
				t.Fatal("topology has fewer than three hosts")
			}
			rng := rand.New(rand.NewSource(tc.seed))
			const trials = 40
			for trial := 0; trial < trials; trial++ {
				// Random source and a random member set (which may or may
				// not include the source, and may contain duplicates — the
				// builder must normalize both).
				src := hosts[rng.Intn(len(hosts))]
				size := 2 + rng.Intn(len(hosts)-1)
				members := make([]packet.MAC, 0, size)
				for len(members) < size {
					members = append(members, hosts[rng.Intn(len(hosts))].Host)
				}

				tree, err := mcast.BuildTree(tp, mcast.GroupID(trial), src.Host, members, rng.Int63(), nil)
				if err == mcast.ErrNoMembers {
					continue // every draw was the source itself
				}
				if err != nil {
					t.Fatalf("trial %d: BuildTree: %v", trial, err)
				}
				if err := tree.Validate(tp); err != nil {
					t.Fatalf("trial %d: Validate: %v", trial, err)
				}

				// Wire bounds.
				wire := tree.Wire()
				if len(wire) == 0 || len(wire) > packet.MaxMcastTreeLen {
					t.Fatalf("trial %d: wire length %d out of bounds", trial, len(wire))
				}
				if tree.Depth > packet.MaxMcastDepth {
					t.Fatalf("trial %d: depth %d exceeds %d", trial, tree.Depth, packet.MaxMcastDepth)
				}

				// Independent structural replay over the raw wire.
				hops, err := packet.DecodeTree(wire)
				if err != nil {
					t.Fatalf("trial %d: DecodeTree: %v", trial, err)
				}
				visited := map[topo.SwitchID]bool{tree.Root: true}
				delivered := map[packet.MAC]int{}
				walkMcastHops(t, tp, tree.Root, hops, 0, visited, delivered)

				// Exact member span: delivered set == normalized members,
				// each exactly once, source never delivered.
				want := mcast.SortMembers(src.Host, members)
				if len(delivered) != len(want) {
					t.Fatalf("trial %d: delivered %d hosts, want %d", trial, len(delivered), len(want))
				}
				for _, m := range want {
					if delivered[m] != 1 {
						t.Fatalf("trial %d: member %v delivered %d times", trial, m, delivered[m])
					}
				}
				if delivered[src.Host] != 0 {
					t.Fatalf("trial %d: source %v delivered to itself", trial, src.Host)
				}

				// Shortest-path property: every member's attachment switch is
				// in the tree, and every tree switch sits at exactly its BFS
				// distance from the root — the SPT merge takes no detours.
				dist := topo.OracleDistances(tp, tree.Root)
				for _, m := range want {
					at, err := tp.HostAt(m)
					if err != nil {
						t.Fatal(err)
					}
					if !visited[at.Switch] {
						t.Fatalf("trial %d: member %v's switch %d not in tree", trial, m, at.Switch)
					}
				}
				for sw, d := range memberDepths(t, tp, tree.Root, hops) {
					if d != dist[sw] {
						t.Fatalf("trial %d: switch %d reached at depth %d, BFS distance %d", trial, sw, d, dist[sw])
					}
				}
			}
		})
	}
}

// memberDepths maps every switch in the tree to its switch-hop depth from
// the root.
func memberDepths(t *testing.T, tp *topo.Topology, root topo.SwitchID, hops []packet.TreeHop) map[topo.SwitchID]int {
	t.Helper()
	out := map[topo.SwitchID]int{root: 0}
	var rec func(cur topo.SwitchID, hs []packet.TreeHop, d int)
	rec = func(cur topo.SwitchID, hs []packet.TreeHop, d int) {
		for _, h := range hs {
			if len(h.Sub) == 0 {
				continue
			}
			ep, err := tp.EndpointAt(cur, topo.Port(h.Port))
			if err != nil || ep.Kind != topo.EndpointSwitch {
				t.Fatalf("interior port %d on switch %d: %v", h.Port, cur, err)
			}
			out[ep.Switch] = d + 1
			rec(ep.Switch, h.Sub, d+1)
		}
	}
	rec(root, hops, 0)
	return out
}
