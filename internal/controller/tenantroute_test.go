package controller

import (
	"bytes"
	"errors"
	"testing"

	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/vnet"
)

// newTenantTestController layers a vnet.Manager with two tenants over a
// standalone controller (16-host fat-tree, no fabric — route state only).
func newTenantTestController(t testing.TB) (*Controller, *vnet.Manager, []packet.MAC) {
	t.Helper()
	tp, err := topo.FatTree(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	var macs []packet.MAC
	for _, at := range tp.Hosts() {
		macs = append(macs, at.Host)
	}
	c := New(eng, host.New(eng, macs[0], host.DefaultConfig()), DefaultConfig())
	c.SetMaster(tp)
	m := vnet.NewManager(topo.PathGraphOptions{}, 1)
	if _, err := m.CreateTenant(tp, "red", macs[1:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant(tp, "blue", macs[5:9]); err != nil {
		t.Fatal(err)
	}
	c.SetVirtualization(m)
	return c, m, macs
}

func TestTenantLookupCachesPerGeneration(t *testing.T) {
	c, m, macs := newTenantTestController(t)
	src, dst := macs[1], macs[4]

	w1, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.route.tenant_miss") != 1 || count(c, "ctrl.route.tenant_hit") != 0 {
		t.Fatalf("first lookup: hits=%d misses=%d", count(c, "ctrl.route.tenant_hit"), count(c, "ctrl.route.tenant_miss"))
	}
	w2, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.route.tenant_hit") != 1 {
		t.Fatalf("second lookup was not a hit (hits=%d)", count(c, "ctrl.route.tenant_hit"))
	}
	if &w1[0] != &w2[0] {
		t.Fatal("warm hit did not return the cached wire bytes")
	}

	// A tenant mutation bumps the generation: the cached entry is stale.
	if err := m.MigrateHost(c.Master(), "red", macs[2], macs[9]); err != nil {
		t.Fatal(err)
	}
	if _, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant})); err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.route.tenant_invalidated") != 1 {
		t.Fatalf("tenant mutation did not invalidate (tinvalid=%d)", count(c, "ctrl.route.tenant_invalidated"))
	}

	// Mutating tenant "blue" must NOT disturb red's rebuilt entry.
	before, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTenant("blue"); err != nil {
		t.Fatal(err)
	}
	after, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("deleting blue perturbed red's cached route")
	}
	if &before[0] != &after[0] {
		t.Fatal("deleting blue evicted red's cache entry")
	}
}

func TestTenantLookupRefusals(t *testing.T) {
	c, m, macs := newTenantTestController(t)

	// Cross-tenant: src in red, dst in blue.
	if _, err := graphOf(c.Resolve(RouteQuery{Src: macs[1], Dst: macs[5], Tenant: "red", Scope: ScopeTenant})); !errors.Is(err, vnet.ErrForeignHost) {
		t.Fatalf("cross-tenant lookup: %v", err)
	}
	// Untenanted destination.
	if _, err := graphOf(c.Resolve(RouteQuery{Src: macs[1], Dst: macs[10], Tenant: "red", Scope: ScopeTenant})); !errors.Is(err, vnet.ErrForeignHost) {
		t.Fatalf("untenanted dst: %v", err)
	}
	// Unknown tenant.
	if _, err := graphOf(c.Resolve(RouteQuery{Src: macs[1], Dst: macs[2], Tenant: "nope", Scope: ScopeTenant})); !errors.Is(err, vnet.ErrNoTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	// A deleted tenant's cached answers become unreachable.
	if _, err := graphOf(c.Resolve(RouteQuery{Src: macs[1], Dst: macs[4], Tenant: "red", Scope: ScopeTenant})); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTenant("red"); err != nil {
		t.Fatal(err)
	}
	if _, err := graphOf(c.Resolve(RouteQuery{Src: macs[1], Dst: macs[4], Tenant: "red", Scope: ScopeTenant})); !errors.Is(err, vnet.ErrNoTenant) {
		t.Fatalf("deleted tenant still served: %v", err)
	}
}

// TestWarmTenantPathRequestAllocFree is the tenancy half of the alloc guard:
// a warm per-tenant route lookup performs zero allocations.
func TestWarmTenantPathRequestAllocFree(t *testing.T) {
	c, _, macs := newTenantTestController(t)
	src, dst := macs[1], macs[4]
	if _, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant})); err != nil {
		t.Fatal(err)
	}
	var sink []byte
	allocs := testing.AllocsPerRun(1000, func() {
		w, err := wireOf(c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant}))
		if err != nil {
			panic(err)
		}
		sink = w
	})
	if allocs != 0 {
		t.Fatalf("warm tenant Resolve: %v allocs/op, want 0", allocs)
	}
	_ = sink
}

func TestAuditTenantRoutesEvictsEscapedEntries(t *testing.T) {
	c, m, macs := newTenantTestController(t)
	svc := c.Routes()
	if _, err := wireOf(c.Resolve(RouteQuery{Src: macs[1], Dst: macs[4], Tenant: "red", Scope: ScopeTenant})); err != nil {
		t.Fatal(err)
	}
	if _, err := wireOf(c.Resolve(RouteQuery{Src: macs[5], Dst: macs[8], Tenant: "blue", Scope: ScopeTenant})); err != nil {
		t.Fatal(err)
	}
	checked, evicted := svc.AuditTenantRoutes()
	if checked != 2 || evicted != 0 {
		t.Fatalf("clean audit: checked=%d evicted=%d", checked, evicted)
	}

	// Cut every cable of red's slice on the master, behind the route
	// service's back: only the audit can catch the cached entry escaping
	// the slice as live.
	ten, err := m.Tenant("red")
	if err != nil {
		t.Fatal(err)
	}
	var cut []topo.Link
	for _, sw := range ten.Slice().SwitchIDs() {
		for _, nb := range ten.Slice().Neighbors(sw) {
			if sw < nb.Sw {
				cut = append(cut, topo.Link{A: sw, PA: nb.Port, B: nb.Sw, PB: nb.FarPort})
			}
		}
	}
	for _, l := range cut {
		if err := c.Master().Disconnect(l.A, l.PA); err != nil {
			t.Fatal(err)
		}
	}
	checked, evicted = svc.AuditTenantRoutes()
	if evicted == 0 {
		t.Fatalf("audit kept a route that now leaves the live slice (checked=%d)", checked)
	}
	if svc.tevicted.Value() == 0 {
		t.Fatal("eviction counter did not move")
	}
	// Healed, red is answered again.
	for _, l := range cut {
		if err := c.Master().Connect(l.A, l.PA, l.B, l.PB); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wireOf(c.Resolve(RouteQuery{Src: macs[1], Dst: macs[4], Tenant: "red", Scope: ScopeTenant})); err != nil {
		t.Fatalf("healed: %v", err)
	}
}

func TestPathGraphWireEnforcesIsolation(t *testing.T) {
	c, _, macs := newTenantTestController(t)

	// Tenant src, member dst: served from inside the slice.
	w, err := c.pathGraphWire(macs[1], macs[4])
	if err != nil {
		t.Fatal(err)
	}
	pg, err := topo.UnmarshalPathGraph(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Primary) == 0 {
		t.Fatal("empty tenant answer")
	}

	// Tenant src, foreign dst: refused.
	if _, err := c.pathGraphWire(macs[1], macs[5]); err == nil {
		t.Fatal("cross-tenant path request served")
	}
	// Untenanted src, tenanted dst: refused symmetrically.
	if _, err := c.pathGraphWire(macs[10], macs[1]); !errors.Is(err, ErrIsolated) {
		t.Fatalf("untenanted -> tenanted: %v", err)
	}
	// Untenanted src and dst: served as before.
	if _, err := c.pathGraphWire(macs[10], macs[11]); err != nil {
		t.Fatalf("untenanted pair refused: %v", err)
	}
}
