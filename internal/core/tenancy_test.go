package core_test

import (
	"testing"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/topo"
)

func deployTenanted(t *testing.T, count int) *core.Network {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithTenants(count))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTenancyEndToEnd is the whole-stack isolation story: intra-tenant
// traffic flows, cross-tenant traffic is refused at the controller, and
// deleting a tenant frees its hosts back into the open fabric.
func TestTenancyEndToEnd(t *testing.T) {
	n := deployTenanted(t, 2)
	v := n.Vnet()
	if v == nil || v.Count() != 2 {
		t.Fatalf("tenancy not installed (count=%d)", v.Count())
	}
	ids := v.Tenants()
	red, _ := v.Members(ids[0])
	blue, _ := v.Members(ids[1])

	if _, err := n.PingSync(red[0], red[1]); err != nil {
		t.Fatalf("intra-tenant ping: %v", err)
	}
	if _, err := n.PingSync(red[0], blue[0]); err == nil {
		t.Fatal("cross-tenant ping completed")
	}
	if _, err := n.PingSync(blue[0], red[0]); err == nil {
		t.Fatal("reverse cross-tenant ping completed")
	}

	// Delete red: its hosts leave the slice, and with no tenant claim on
	// either endpoint, the fabric serves them again.
	if err := v.DeleteTenant(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := n.PingSync(red[0], red[1]); err != nil {
		t.Fatalf("post-delete intra-pair ping: %v", err)
	}
	// red hosts are untenanted now; blue is still walled off.
	if _, err := n.PingSync(red[0], blue[0]); err == nil {
		t.Fatal("untenanted -> tenanted ping completed after delete")
	}
}

// TestDeleteTenantDropsControllerCache: a deleted tenant's keys are never
// probed again, so lazy invalidation cannot reclaim its cached answers;
// DeleteTenant must drop them on every replica without waiting for an audit.
func TestDeleteTenantDropsControllerCache(t *testing.T) {
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithTenants(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	hosts := n.Hosts()
	if _, err := n.EnableReplicationAt([]core.MAC{hosts[5], hosts[11]}); err != nil {
		t.Fatal(err)
	}
	v := n.Vnet()
	ids := v.Tenants()
	red, _ := v.Members(ids[0])
	blue, _ := v.Members(ids[1])
	ctrls := n.Group().Controllers()
	if len(ctrls) != 3 {
		t.Fatalf("replica group has %d controllers, want 3", len(ctrls))
	}
	for i, c := range ctrls {
		for _, pair := range [][2]core.MAC{{red[0], red[1]}, {red[1], red[0]}, {blue[0], blue[1]}} {
			if _, err := c.Resolve(controller.RouteQuery{Src: pair[0], Dst: pair[1]}); err != nil {
				t.Fatalf("controller %d: warm %v: %v", i, pair, err)
			}
		}
		if got := c.Routes().TenantLen(); got != 3 {
			t.Fatalf("controller %d: TenantLen = %d after warming, want 3", i, got)
		}
	}
	if err := v.DeleteTenant(ids[0]); err != nil {
		t.Fatal(err)
	}
	for i, c := range ctrls {
		if got := c.Routes().TenantLen(); got != 1 {
			t.Fatalf("controller %d: TenantLen = %d after deleting %q, want 1 (the other tenant's pair)", i, got, ids[0])
		}
	}
}

// TestMigrationMovesReachability: after migrating a host out of a tenant,
// the departed host loses its slice routes and the incoming host gains
// them — with no stale cache serving the old membership.
func TestMigrationMovesReachability(t *testing.T) {
	n := deployTenanted(t, 2)
	v := n.Vnet()
	ids := v.Tenants()
	red, _ := v.Members(ids[0])
	blue, _ := v.Members(ids[1])

	// Warm a route inside red, then swap red[0] out for a free host.
	if _, err := n.PingSync(red[1], red[0]); err != nil {
		t.Fatalf("warm intra-tenant ping: %v", err)
	}
	free := []core.MAC{}
	for _, h := range n.Hosts() {
		if _, owned := v.TenantOf(h); !owned {
			free = append(free, h)
		}
	}
	if len(free) == 0 {
		t.Skip("no free host to migrate in")
	}
	if err := v.MigrateHost(n.Ctrl.Master(), ids[0], red[0], free[0]); err != nil {
		t.Fatal(err)
	}
	// The departed host is out: a warmed member must not still reach it.
	if _, err := n.PingSync(red[1], red[0]); err == nil {
		t.Fatal("stale cached route survived migration")
	}
	// The incoming host is in.
	if _, err := n.PingSync(red[1], free[0]); err != nil {
		t.Fatalf("migrated-in host unreachable: %v", err)
	}
	// Other tenants untouched.
	if _, err := n.PingSync(blue[0], blue[1]); err != nil {
		t.Fatalf("blue perturbed by red's migration: %v", err)
	}
}

// TestWithTenantsTooSmall: carving more tenants than hosts support is a
// boot-time error, not a silent partial carve.
func TestWithTenantsTooSmall(t *testing.T) {
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithTenants(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err == nil {
		t.Fatal("oversubscribed tenant carve accepted")
	}
}
