package vnet

import (
	"errors"
	"math/rand"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// TestAnswersStayInLiveSlice cuts and heals random cables of a leaf-spine,
// and of the same leaf-spine with a twin cable between spine 1 and leaf 3,
// with at most three cables down at once. After every step, every tenant
// answer's path graph, primary and backup must lie within the slice as live
// in the master, and every route the previous step handed out must verify
// exactly when the master still carries it.
func TestAnswersStayInLiveSlice(t *testing.T) {
	for _, tc := range []struct {
		name string
		twin bool
	}{{"leafspine", false}, {"twin", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := topo.LeafSpine(3, 4, 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			if tc.twin {
				if err := tp.Connect(1, 8, 4, 8); err != nil {
					t.Fatal(err)
				}
			}
			m := NewManager(topo.PathGraphOptions{}, 1)
			h := tp.Hosts() // two per leaf, leaves 4..7
			members := map[TenantID][]packet.MAC{
				"a": {h[0].Host, h[2].Host, h[4].Host},
				"b": {h[1].Host, h[3].Host, h[7].Host},
			}
			for _, id := range []TenantID{"a", "b"} {
				if _, err := m.CreateTenant(tp, id, members[id]); err != nil {
					t.Fatal(err)
				}
			}
			if ten, _ := m.Tenant("a"); tc.twin {
				if far, ok := ten.Slice().CableAt(1, 8); !ok || far != (topo.PortRef{Switch: 4, Port: 8}) {
					t.Fatal("tenant a's slice lacks the twin cable 1:8-4:8")
				}
			}
			type issued struct {
				id       TenantID
				src, dst packet.MAC
				tags     packet.Path
			}
			var routes []issued
			links := tp.Links()
			up := make([]bool, len(links))
			for c := range up {
				up[c] = true
			}
			down, answers, cutRoutes := 0, 0, 0
			rng := rand.New(rand.NewSource(1))
			for step := 0; step < 300; step++ {
				c := rng.Intn(len(links))
				for up[c] && down == 3 {
					c = rng.Intn(len(links))
				}
				l := links[c]
				if up[c] {
					err, down = tp.Disconnect(l.A, l.PA), down+1
				} else {
					err, down = tp.Connect(l.A, l.PA, l.B, l.PB), down-1
				}
				if err != nil {
					t.Fatal(err)
				}
				up[c] = !up[c]
				for _, r := range routes {
					carried := tp.VerifyTags(r.src, r.dst, r.tags) == nil
					if err := m.VerifyRoute(tp, r.id, r.src, r.dst, r.tags); (err == nil) != carried {
						t.Fatalf("step %d: %s %v->%v %v: verifier says %v, master carries it: %v", step, r.id, r.src, r.dst, r.tags, err, carried)
					}
					if !carried {
						cutRoutes++
					}
				}
				routes = routes[:0]
				for _, id := range []TenantID{"a", "b"} {
					ten, _ := m.Tenant(id)
					for _, src := range members[id] {
						for _, dst := range members[id] {
							if src == dst {
								continue
							}
							wire, primary, backup, err := m.PathGraphFor(tp, id, src, dst)
							if errors.Is(err, ErrNotRoutable) {
								continue
							}
							if err != nil {
								t.Fatal(err)
							}
							answers++
							pg, err := topo.UnmarshalPathGraph(wire)
							if err != nil {
								t.Fatal(err)
							}
							for _, sw := range pg.Graph.SwitchIDs() {
								for _, nb := range pg.Graph.Neighbors(sw) {
									want := topo.PortRef{Switch: nb.Sw, Port: nb.FarPort}
									if in, ok := ten.Slice().CableAt(sw, nb.Port); !ok || in != want {
										t.Fatalf("step %d: %s answer holds %d:%d->%v outside the slice", step, id, sw, nb.Port, want)
									}
									if live, ok := tp.CableAt(sw, nb.Port); !ok || live != want {
										t.Fatalf("step %d: %s answer holds %d:%d->%v, which the master lacks", step, id, sw, nb.Port, want)
									}
								}
							}
							for _, at := range pg.Graph.Hosts() {
								if in, err := ten.Slice().HostAt(at.Host); err != nil || in != at {
									t.Fatalf("step %d: %s answer holds host %v outside the slice", step, id, at.Host)
								}
							}
							for _, tags := range []packet.Path{primary, backup} {
								if tags == nil {
									continue
								}
								if err := m.VerifyRoute(tp, id, src, dst, tags); err != nil {
									t.Fatalf("step %d: %s answer %v->%v %v refused: %v", step, id, src, dst, tags, err)
								}
								if err := tp.VerifyTags(src, dst, tags); err != nil {
									t.Fatalf("step %d: %s answer %v->%v %v not carried by the master: %v", step, id, src, dst, tags, err)
								}
								routes = append(routes, issued{id, src, dst, tags})
							}
						}
					}
				}
			}
			if answers == 0 || cutRoutes == 0 {
				t.Fatalf("%d answers, %d issued routes cut: the steps exercised nothing", answers, cutRoutes)
			}
		})
	}
}
