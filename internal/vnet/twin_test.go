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
// own far end, and audits clean; the twin's failure leaves 1:1–3:3 whole;
// its heal restores it.
func TestSliceHoldsEachTwinCable(t *testing.T) {
	tp, err := topo.LeafSpine(2, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 5, 3, 5); err != nil {
		t.Fatal(err)
	}
	m := NewManager(tp, topo.PathGraphOptions{}, 1)
	hosts := tp.Hosts() // two on leaf 3, then two on leaf 4
	ten, err := m.CreateTenant("a", []packet.MAC{hosts[0].Host, hosts[2].Host})
	if err != nil {
		t.Fatal(err)
	}
	cable := topo.Neighbor{Sw: 3, Port: 1, FarPort: 3}
	twin := topo.Neighbor{Sw: 3, Port: 5, FarPort: 5}
	check := func(when string, want ...topo.Neighbor) {
		t.Helper()
		var got, back []topo.Neighbor
		for _, nb := range ten.View().Neighbors(1) {
			if nb.Sw == 3 {
				got = append(got, nb)
			}
		}
		for _, nb := range ten.View().Neighbors(3) {
			if nb.Sw == 1 {
				back = append(back, topo.Neighbor{Sw: 3, Port: nb.FarPort, FarPort: nb.Port})
			}
		}
		if !slices.Equal(got, want) || !slices.Equal(back, want) {
			t.Fatalf("%s: spine 1 holds %v toward leaf 3 and leaf 3 holds %v (far end first) back, want %v", when, got, back, want)
		}
		if v := m.AuditViews(); len(v) != 0 {
			t.Fatalf("%s: audit: %v", when, v)
		}
	}
	check("as built", cable, twin)
	m.ApplyLinkDown(1, 5)
	m.ApplyLinkDown(3, 5)
	check("twin down", cable)
	m.ApplyLinkUp(1, 5, 3, 5)
	check("twin healed", cable, twin)
	m.ApplyLinkDown(3, 3)
	check("first cable down", twin)
	m.ApplyLinkUp(3, 3, 1, 1)
	check("first cable healed", cable, twin)
}
