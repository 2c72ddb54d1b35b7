package vnet

import (
	"errors"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

func deploy(t *testing.T) (*topo.Topology, *Manager, []packet.MAC) {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(topo.PathGraphOptions{}, 1)
	hosts := tp.Hosts()
	macs := make([]packet.MAC, 0, len(hosts))
	for _, h := range hosts {
		macs = append(macs, h.Host)
	}
	return tp, m, macs
}

func TestCreateTenantAndView(t *testing.T) {
	tp, m, macs := deploy(t)
	tenA, err := m.CreateTenant(tp, "a", macs[0:4])
	if err != nil {
		t.Fatal(err)
	}
	if !tenA.Contains(macs[0]) || tenA.Contains(macs[10]) {
		t.Fatal("membership wrong")
	}
	if len(tenA.Hosts()) != 4 {
		t.Fatalf("hosts = %d", len(tenA.Hosts()))
	}
	if tenA.Slice().NumSwitches() == 0 {
		t.Fatal("empty view")
	}
	// The view must route between members.
	if _, _, _, err := m.PathGraphFor(tp, "a", macs[0], macs[3]); err != nil {
		t.Fatalf("no path in slice: %v", err)
	}
}

func TestTenantErrors(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[:1]); !errors.Is(err, ErrTooFewHosts) {
		t.Fatalf("singleton: %v", err)
	}
	if _, err := m.CreateTenant(tp, "a", macs[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant(tp, "a", macs[3:6]); !errors.Is(err, ErrDupTenant) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := m.Tenant("nope"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("missing: %v", err)
	}
	if err := m.DeleteTenant("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTenant("a"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestVerifyRouteInsideSlice(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:6]); err != nil {
		t.Fatal(err)
	}
	_, tags, _, err := m.PathGraphFor(tp, "a", macs[0], macs[5])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyRoute(tp, "a", macs[0], macs[5], tags); err != nil {
		t.Fatalf("slice route rejected: %v", err)
	}
	// The route must also be valid on the real topology.
	if err := tp.VerifyTags(macs[0], macs[5], tags); err != nil {
		t.Fatalf("slice route invalid on fabric: %v", err)
	}
}

func TestVerifyRouteRejectsForeignEndpoints(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	// A perfectly valid fabric route to a non-member must be rejected.
	tags, err := tp.HostPath(macs[0], macs[10], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyRoute(tp, "a", macs[0], macs[10], tags); !errors.Is(err, ErrForeignHost) {
		t.Fatalf("foreign endpoint: %v", err)
	}
}

func TestVerifyRouteRejectsEscapeRoutes(t *testing.T) {
	tp, m, macs := deploy(t)
	// Two tenants on disjoint host sets.
	if _, err := m.CreateTenant(tp, "a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	// A bogus route between members that wanders out of the slice.
	if err := m.VerifyRoute(tp, "a", macs[0], macs[3], packet.Path{60, 61, 62}); !errors.Is(err, ErrOutsideSlice) {
		t.Fatalf("escape route: %v", err)
	}
	// Empty route.
	if err := m.VerifyRoute(tp, "a", macs[0], macs[3], nil); !errors.Is(err, ErrOutsideSlice) {
		t.Fatalf("empty route: %v", err)
	}
}

func TestTenantIsolationOfViews(t *testing.T) {
	tp, m, macs := deploy(t)
	// Hosts 0-4 live on leaf 3 (testbed layout): a same-leaf tenant's view
	// should not include every switch the full fabric has.
	tenA, err := m.CreateTenant(tp, "a", macs[0:4])
	if err != nil {
		t.Fatal(err)
	}
	if tenA.Slice().NumSwitches() >= tp.NumSwitches() {
		t.Fatalf("tenant view covers whole fabric: %d switches", tenA.Slice().NumSwitches())
	}
}

// TestLinkDownNarrowsLiveSlice: a cut made on the master alone removes the
// cable from the slice as live in that master; the slice itself is the
// as-built permission and does not change.
func TestLinkDownNarrowsLiveSlice(t *testing.T) {
	tp, m, macs := deploy(t)
	ten, err := m.CreateTenant(tp, "a", []packet.MAC{macs[0], macs[20]})
	if err != nil {
		t.Fatal(err)
	}
	before := ten.Slice().NumLinks()
	if live := ten.Slice().Within(tp).NumLinks(); live != before {
		t.Fatalf("live links %d of %d before any cut", live, before)
	}
	// Cut a spine link inside the slice: find one from the slice.
	var sw packet.SwitchID
	var port packet.Tag
	found := false
	for _, id := range []packet.SwitchID{1, 2} {
		for _, nb := range ten.Slice().Neighbors(id) {
			sw, port = id, nb.Port
			found = true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no spine link in slice")
	}
	if err := tp.Disconnect(sw, port); err != nil {
		t.Fatal(err)
	}
	if live := ten.Slice().Within(tp).NumLinks(); live != before-1 {
		t.Fatalf("live links %d -> %d, want -1", before, live)
	}
	if ten.Slice().NumLinks() != before {
		t.Fatalf("the cut reached the slice: %d -> %d links", before, ten.Slice().NumLinks())
	}
}

// TestPathGraphForHonoursBackupPenalty: the backup route in a tenant answer is
// priced with the manager's PathGraphOptions, as the untenanted path graph is.
func TestPathGraphForHonoursBackupPenalty(t *testing.T) {
	// 1-2-4 is the only shortest path; 1-3-5-4 is link-disjoint and one hop
	// longer, inside the ε=1 detour window so the slice contains it.
	src, dst := packet.MACFromUint64(1), packet.MACFromUint64(2)
	for _, tc := range []struct {
		penalty float64
		backup  topo.SwitchPath
	}{
		{0, topo.SwitchPath{1, 3, 5, 4}},   // default 8: reusing both primary links costs 16 > 3
		{1.2, topo.SwitchPath{1, 2, 4}},    // 2.4 < 3: the primary is its own cheapest backup
		{100, topo.SwitchPath{1, 3, 5, 4}}, // dearer than the default changes nothing here
	} {
		tp := topo.New()
		for id := topo.SwitchID(1); id <= 5; id++ {
			if err := tp.AddSwitch(id, 4); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range [][4]int{{1, 1, 2, 1}, {2, 2, 4, 1}, {1, 2, 3, 1}, {3, 2, 5, 1}, {5, 2, 4, 2}} {
			if err := tp.Connect(topo.SwitchID(l[0]), topo.Port(l[1]), topo.SwitchID(l[2]), topo.Port(l[3])); err != nil {
				t.Fatal(err)
			}
		}
		if err := tp.AttachHost(src, 1, 4); err != nil {
			t.Fatal(err)
		}
		if err := tp.AttachHost(dst, 4, 4); err != nil {
			t.Fatal(err)
		}
		m := NewManager(topo.PathGraphOptions{Epsilon: 1, BackupPenalty: tc.penalty}, 1)
		if _, err := m.CreateTenant(tp, "a", []packet.MAC{src, dst}); err != nil {
			t.Fatal(err)
		}
		wire, _, _, err := m.PathGraphFor(tp, "a", src, dst)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := topo.UnmarshalPathGraph(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !pg.Primary.Equal(topo.SwitchPath{1, 2, 4}) || !pg.Backup.Equal(tc.backup) {
			t.Errorf("penalty %v: primary %v backup %v, want backup %v", tc.penalty, pg.Primary, pg.Backup, tc.backup)
		}
	}
}

// TestVerifyRouteAllocFree: verifying an accepted tenant route — the walk
// over the slice and the check of each hop against the master — allocates
// nothing.
func TestVerifyRouteAllocFree(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant(tp, "a", macs[0:6]); err != nil {
		t.Fatal(err)
	}
	_, tags, _, err := m.PathGraphFor(tp, "a", macs[0], macs[5])
	if err != nil {
		t.Fatal(err)
	}
	verify := func() {
		if err := m.VerifyRoute(tp, "a", macs[0], macs[5], tags); err != nil {
			t.Fatalf("slice route rejected: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(200, verify); allocs != 0 {
		t.Fatalf("VerifyRoute allocates %v/op, want 0", allocs)
	}
}
