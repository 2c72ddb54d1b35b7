package vnet

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

func TestMigrateHostSwapsMembership(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	g0, _ := m.Generation("a")
	if err := m.MigrateHost("a", macs[0], macs[10]); err != nil {
		t.Fatal(err)
	}
	ten, err := m.Tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	if ten.Contains(macs[0]) || !ten.Contains(macs[10]) {
		t.Fatal("membership not swapped")
	}
	if id, ok := m.TenantOf(macs[0]); ok {
		t.Fatalf("departed host still indexed to %s", id)
	}
	if id, ok := m.TenantOf(macs[10]); !ok || id != "a" {
		t.Fatal("incoming host not indexed")
	}
	g1, _ := m.Generation("a")
	if g1 <= g0 {
		t.Fatalf("generation did not advance: %d -> %d", g0, g1)
	}
	// The new slice must route to the new member and refuse the old one.
	if _, _, _, err := m.PathGraphFor("a", macs[1], macs[10]); err != nil {
		t.Fatalf("no path to migrated-in host: %v", err)
	}
	if _, _, _, err := m.PathGraphFor("a", macs[1], macs[0]); !errors.Is(err, ErrForeignHost) {
		t.Fatalf("departed host still routable: %v", err)
	}
}

// TestMigrateHostKeepsMACOrder: members given out of order come back in
// byte order of the MAC, and after two migrations (one that sorts first,
// one that sorts last) Contains and Members hold the new membership in that
// order, reject both departed hosts, and hand out copies.
func TestMigrateHostKeepsMACOrder(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", []packet.MAC{macs[5], macs[1], macs[7], macs[3], macs[5]}); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost("a", macs[3], macs[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost("a", macs[5], macs[9]); err != nil {
		t.Fatal(err)
	}
	want := []packet.MAC{macs[0], macs[1], macs[7], macs[9]}
	ten, _ := m.Tenant("a")
	got, err := m.Members("a")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || !slices.Equal(ten.Hosts(), want) {
		t.Fatalf("members %v, hosts %v, want %v", got, ten.Hosts(), want)
	}
	if !slices.IsSortedFunc(got, func(a, b packet.MAC) int { return bytes.Compare(a[:], b[:]) }) {
		t.Fatalf("members %v not in MAC byte order", got)
	}
	for _, h := range macs[:11] {
		if in := slices.Contains(want, h); ten.Contains(h) != in {
			t.Fatalf("Contains(%v) = %v, want %v", h, !in, in)
		}
	}
	got[0] = macs[10]
	if again, _ := m.Members("a"); !slices.Equal(again, want) || ten.Contains(macs[10]) {
		t.Fatal("a caller's edit of Members reached the tenant")
	}
}

func TestMigrateHostErrors(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant("b", macs[4:8]); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost("a", macs[10], macs[11]); !errors.Is(err, ErrForeignHost) {
		t.Fatalf("migrating a non-member: %v", err)
	}
	if err := m.MigrateHost("a", macs[0], macs[4]); !errors.Is(err, ErrHostOwned) {
		t.Fatalf("migrating into another tenant's host: %v", err)
	}
	if err := m.MigrateHost("nope", macs[0], macs[10]); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
}

func TestGenerationsAreManagerMonotonic(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	ga, _ := m.Generation("a")
	if err := m.DeleteTenant("a"); err != nil {
		t.Fatal(err)
	}
	// A recreated tenant must never reuse a (tenant, gen) pair: caches key
	// on it, and a reuse would serve the dead tenant's routes.
	if _, err := m.CreateTenant("a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	ga2, _ := m.Generation("a")
	if ga2 <= ga {
		t.Fatalf("recreated tenant reused generation: %d then %d", ga, ga2)
	}
}

func TestSliceRepairOnLinkUp(t *testing.T) {
	_, m, macs := deploy(t)
	ten, err := m.CreateTenant("a", []packet.MAC{macs[0], macs[20]})
	if err != nil {
		t.Fatal(err)
	}
	// Fail a view link, then restore it: the baseline remembers the edge,
	// so ApplyLinkUp must graft it back into the view.
	var sw, peer packet.SwitchID
	var port, back topo.Port
	found := false
	for _, id := range ten.View().SwitchIDs() {
		for _, nb := range ten.View().Neighbors(id) {
			sw, port, peer, back = id, nb.Port, nb.Sw, nb.FarPort
			found = true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no switch link in view")
	}
	before := ten.View().NumLinks()
	g0, _ := m.Generation("a")
	m.ApplyLinkDown(sw, port)
	if ten.View().NumLinks() != before-1 {
		t.Fatalf("link not removed: %d -> %d", before, ten.View().NumLinks())
	}
	g1, _ := m.Generation("a")
	if g1 <= g0 {
		t.Fatal("generation did not advance on link down")
	}
	m.ApplyLinkUp(sw, port, peer, back)
	if ten.View().NumLinks() != before {
		t.Fatalf("link not repaired: %d, want %d", ten.View().NumLinks(), before)
	}
	if g2, _ := m.Generation("a"); g2 <= g1 {
		t.Fatal("generation did not advance on repair")
	}
	if problems := m.AuditViews(); len(problems) != 0 {
		t.Fatalf("audit after repair: %v", problems)
	}
	// A link absent from the baseline must NOT be grafted in.
	beforeForeign := ten.View().NumLinks()
	m.ApplyLinkUp(900, 1, 901, 1)
	if ten.View().NumLinks() != beforeForeign {
		t.Fatal("foreign link grafted into view")
	}
}

func TestVerifyRouteUnknownSwitch(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	// A tag pointing at nothing resolvable is both "unknown switch" and,
	// transitively, "outside the slice".
	err := m.VerifyRoute("a", macs[0], macs[3], packet.Path{250, 250, 250})
	if !errors.Is(err, ErrOutsideSlice) {
		t.Fatalf("want ErrOutsideSlice, got %v", err)
	}
}

func TestOnChangeReportsMutations(t *testing.T) {
	_, m, macs := deploy(t)
	var changes []Change
	m.OnChange = func(ch Change) { changes = append(changes, ch) }
	if _, err := m.CreateTenant("a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost("a", macs[0], macs[10]); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTenant("a"); err != nil {
		t.Fatal(err)
	}
	if len(changes) != 3 {
		t.Fatalf("changes = %d, want 3", len(changes))
	}
	if changes[0].Kind != ChangeCreate || len(changes[0].Members) != 3 {
		t.Fatalf("create change: %+v", changes[0])
	}
	if changes[1].Kind != ChangeMigrate {
		t.Fatalf("migrate change: %+v", changes[1])
	}
	if len(changes[1].Departed) != 1 || changes[1].Departed[0] != macs[0] {
		t.Fatalf("migrate departed: %v", changes[1].Departed)
	}
	if changes[2].Kind != ChangeDelete || changes[2].Members != nil {
		t.Fatalf("delete change: %+v", changes[2])
	}
	if len(changes[2].Departed) != 3 {
		t.Fatalf("delete departed: %v", changes[2].Departed)
	}
}

func TestCreateTenantRejectsOwnedHost(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant("b", macs[2:5]); !errors.Is(err, ErrHostOwned) {
		t.Fatalf("overlapping tenant: %v", err)
	}
	// The failed create must leave no residue: the hosts stay free.
	if _, err := m.CreateTenant("b", macs[3:6]); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTenantCleansIndex(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTenant("a"); err != nil {
		t.Fatal(err)
	}
	for _, h := range macs[0:4] {
		if id, ok := m.TenantOf(h); ok {
			t.Fatalf("host %v still indexed to %s after delete", h, id)
		}
	}
	if m.Count() != 0 {
		t.Fatalf("count = %d after delete", m.Count())
	}
	// Freed hosts are immediately reusable by a different tenant.
	if _, err := m.CreateTenant("b", macs[0:4]); err != nil {
		t.Fatal(err)
	}
}
