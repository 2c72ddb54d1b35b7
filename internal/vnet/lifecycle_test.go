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
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	g0, _ := m.Generation("a")
	if err := m.MigrateHost(tp, "a", macs[0], macs[10]); err != nil {
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
	if _, _, _, err := m.PathGraphFor(tp, "a", macs[1], macs[10]); err != nil {
		t.Fatalf("no path to migrated-in host: %v", err)
	}
	if _, _, _, err := m.PathGraphFor(tp, "a", macs[1], macs[0]); !errors.Is(err, ErrForeignHost) {
		t.Fatalf("departed host still routable: %v", err)
	}
}

// TestMigrateHostKeepsMACOrder: members given out of order come back in
// byte order of the MAC, and after two migrations (one that sorts first,
// one that sorts last) Contains and Members hold the new membership in that
// order, reject both departed hosts, and hand out copies.
func TestMigrateHostKeepsMACOrder(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", []packet.MAC{macs[5], macs[1], macs[7], macs[3], macs[5]}); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost(tp, "a", macs[3], macs[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost(tp, "a", macs[5], macs[9]); err != nil {
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
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant(tp, "b", macs[4:8]); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost(tp, "a", macs[10], macs[11]); !errors.Is(err, ErrForeignHost) {
		t.Fatalf("migrating a non-member: %v", err)
	}
	if err := m.MigrateHost(tp, "a", macs[0], macs[4]); !errors.Is(err, ErrHostOwned) {
		t.Fatalf("migrating into another tenant's host: %v", err)
	}
	if err := m.MigrateHost(tp, "nope", macs[0], macs[10]); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
}

func TestGenerationsAreManagerMonotonic(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	ga, _ := m.Generation("a")
	if err := m.DeleteTenant("a"); err != nil {
		t.Fatal(err)
	}
	// A recreated tenant must never reuse a (tenant, gen) pair: caches key
	// on it, and a reuse would serve the dead tenant's routes.
	if _, err := m.CreateTenant(tp, "a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	ga2, _ := m.Generation("a")
	if ga2 <= ga {
		t.Fatalf("recreated tenant reused generation: %d then %d", ga, ga2)
	}
}

// TestSliceHealsWithMaster: a slice cable cut on the master leaves the
// tenant's answers and is refused by the verifier; its heal brings it back;
// neither moves the tenant's generation (the master's own generation stales
// cached answers). A slice cable the master rewires to another far end is
// not live, and a cable outside the slice never enters an answer.
func TestSliceHealsWithMaster(t *testing.T) {
	tp, m, macs := deploy(t)
	src, dst := macs[0], macs[20]
	ten, err := m.CreateTenant(tp, "a", []packet.MAC{src, dst})
	if err != nil {
		t.Fatal(err)
	}
	_, tags, _, err := m.PathGraphFor(tp, "a", src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the primary's first cable, then heal it.
	at, err := ten.Slice().HostAt(src)
	if err != nil {
		t.Fatal(err)
	}
	sw, port := at.Switch, tags[0]
	far, ok := ten.Slice().CableAt(sw, port)
	if !ok {
		t.Fatalf("primary's first hop %d:%d is not a slice cable", sw, port)
	}
	holds := func(when string, want bool) {
		t.Helper()
		wire, _, _, err := m.PathGraphFor(tp, "a", src, dst)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		pg, err := topo.UnmarshalPathGraph(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := pg.Graph.CableAt(sw, port); (got == far) != want {
			t.Fatalf("%s: answer holds %d:%d -> %v: %v, want %v", when, sw, port, far, got == far, want)
		}
		if err := m.VerifyRoute(tp, "a", src, dst, tags); (err == nil) != want {
			t.Fatalf("%s: verifying the route over %d:%d: %v", when, sw, port, err)
		}
	}
	before := ten.Slice().NumLinks()
	g0, _ := m.Generation("a")
	holds("as built", true)
	if err := tp.Disconnect(sw, port); err != nil {
		t.Fatal(err)
	}
	holds("cut", false)
	if err := tp.Connect(sw, port, far.Switch, far.Port); err != nil {
		t.Fatal(err)
	}
	holds("healed", true)
	if g1, _ := m.Generation("a"); g1 != g0 {
		t.Fatalf("generation moved on a link event: %d -> %d", g0, g1)
	}
	// Rewired: the same port now reaches a switch the slice never held.
	if err := tp.AddSwitch(900, 4); err != nil {
		t.Fatal(err)
	}
	if err := tp.Disconnect(sw, port); err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(sw, port, 900, 1); err != nil {
		t.Fatal(err)
	}
	holds("rewired", false)
	live := ten.Slice().Within(tp)
	if live.NumLinks() != before-1 || live.HasSwitch(900) {
		t.Fatalf("rewired: %d live links of %d, switch 900 live: %v", live.NumLinks(), before, live.HasSwitch(900))
	}
	if ten.Slice().NumLinks() != before {
		t.Fatalf("link events reached the slice: %d -> %d links", before, ten.Slice().NumLinks())
	}
}

func TestVerifyRouteUnknownSwitch(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	// A tag pointing at nothing resolvable is both "unknown switch" and,
	// transitively, "outside the slice".
	err := m.VerifyRoute(tp, "a", macs[0], macs[3], packet.Path{250, 250, 250})
	if !errors.Is(err, ErrOutsideSlice) {
		t.Fatalf("want ErrOutsideSlice, got %v", err)
	}
}

func TestOnChangeReportsMutations(t *testing.T) {
	tp, m, macs := deploy(t)
	var changes []Change
	m.OnChange = func(ch Change) { changes = append(changes, ch) }
	if _, err := m.CreateTenant(tp, "a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	if err := m.MigrateHost(tp, "a", macs[0], macs[10]); err != nil {
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
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant(tp, "b", macs[2:5]); !errors.Is(err, ErrHostOwned) {
		t.Fatalf("overlapping tenant: %v", err)
	}
	// The failed create must leave no residue: the hosts stay free.
	if _, err := m.CreateTenant(tp, "b", macs[3:6]); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTenantCleansIndex(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:4]); err != nil {
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
	if _, err := m.CreateTenant(tp, "b", macs[0:4]); err != nil {
		t.Fatal(err)
	}
}
