package vnet

import (
	"slices"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// TestSliceHoldsEachTwinCable builds a tenant over hosts on leaves 3 and 4
// of a leaf-spine whose spine 1 and leaf 3 are joined twice (1:1–3:3 and
// the twin 1:5–3:5). The slice holds both cables, each end paired with its
// own far end. Read against the master, the twin's cut leaves 1:1–3:3
// whole and its heal restores the twin, and likewise the other way round;
// the slice itself stays as built throughout.
func TestSliceHoldsEachTwinCable(t *testing.T) {
	tp, err := topo.LeafSpine(2, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 5, 3, 5); err != nil {
		t.Fatal(err)
	}
	m := NewManager(topo.PathGraphOptions{}, 1)
	hosts := tp.Hosts() // two on leaf 3, then two on leaf 4
	ten, err := m.CreateTenant(tp, "a", []packet.MAC{hosts[0].Host, hosts[2].Host})
	if err != nil {
		t.Fatal(err)
	}
	cable := topo.Neighbor{Sw: 3, Port: 1, FarPort: 3}
	twin := topo.Neighbor{Sw: 3, Port: 5, FarPort: 5}
	built := string(ten.Slice().Marshal())
	check := func(when string, want ...topo.Neighbor) {
		t.Helper()
		live := ten.Slice().Within(tp)
		var got, back []topo.Neighbor
		for _, nb := range live.Neighbors(1) {
			if nb.Sw == 3 {
				got = append(got, nb)
			}
		}
		for _, nb := range live.Neighbors(3) {
			if nb.Sw == 1 {
				back = append(back, topo.Neighbor{Sw: 3, Port: nb.FarPort, FarPort: nb.Port})
			}
		}
		if !slices.Equal(got, want) || !slices.Equal(back, want) {
			t.Fatalf("%s: spine 1 holds %v toward leaf 3 and leaf 3 holds %v (far end first) back, want %v", when, got, back, want)
		}
		if string(ten.Slice().Marshal()) != built {
			t.Fatalf("%s: the slice changed", when)
		}
	}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check("as built", cable, twin)
	step(tp.Disconnect(1, 5))
	check("twin down", cable)
	step(tp.Connect(1, 5, 3, 5))
	check("twin healed", cable, twin)
	step(tp.Disconnect(3, 3))
	check("first cable down", twin)
	step(tp.Connect(3, 3, 1, 1))
	check("first cable healed", cable, twin)
}
