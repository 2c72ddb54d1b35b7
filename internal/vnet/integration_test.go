package vnet_test

import (
	"slices"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
	"dumbnet/internal/vnet"
)

// End-to-end §6.1: the controller's path service enforces tenant isolation
// over the live fabric.

func deployTenants(t *testing.T) (*core.Network, *vnet.Manager, []packet.MAC, []packet.MAC) {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	mgr := vnet.NewManager(topo.PathGraphOptions{}, 1)
	red := n.Hosts()[0:4]
	blue := n.Hosts()[10:14]
	if _, err := mgr.CreateTenant(n.Ctrl.Master(), "red", red); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateTenant(n.Ctrl.Master(), "blue", blue); err != nil {
		t.Fatal(err)
	}
	n.Ctrl.SetVirtualization(mgr)
	return n, mgr, red, blue
}

func TestTenantTrafficFlows(t *testing.T) {
	n, _, red, _ := deployTenants(t)
	got := 0
	n.Agent(red[1]).OnData = func(packet.MAC, uint16, []byte) { got++ }
	if err := n.Agent(red[0]).SendData(red[1], []byte("intra-tenant")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 1 {
		t.Fatal("intra-tenant traffic blocked")
	}
}

func TestCrossTenantTrafficRefused(t *testing.T) {
	n, _, red, blue := deployTenants(t)
	got := 0
	n.Agent(blue[0]).OnData = func(packet.MAC, uint16, []byte) { got++ }
	// The send queues and queries the controller; the controller refuses,
	// so nothing is ever delivered.
	if err := n.Agent(red[0]).SendData(blue[0], []byte("escape?")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 0 {
		t.Fatal("cross-tenant traffic delivered")
	}
	if n.Ctrl.Stats().PathRefused == 0 {
		t.Fatal("controller recorded no refusals")
	}
}

func TestUntenantedHostsUnaffected(t *testing.T) {
	n, _, _, _ := deployTenants(t)
	free1, free2 := n.Hosts()[20], n.Hosts()[21]
	got := 0
	n.Agent(free2).OnData = func(packet.MAC, uint16, []byte) { got++ }
	if err := n.Agent(free1).SendData(free2, []byte("global")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 1 {
		t.Fatal("untenanted traffic blocked by virtualization")
	}
}

func TestTenantCacheStaysInSlice(t *testing.T) {
	n, mgr, red, _ := deployTenants(t)
	_ = n.Agent(red[0]).SendData(red[3], []byte("warm"))
	n.Run()
	// The tenant's TopoCache must match the slice, not the fabric.
	ten, _ := mgr.Tenant("red")
	cache := n.Agent(red[0]).Cache()
	if cache.NumSwitches() > ten.Slice().NumSwitches() {
		t.Fatalf("tenant cache (%d switches) exceeds slice (%d)",
			cache.NumSwitches(), ten.Slice().NumSwitches())
	}
}

func TestTenantOfAndDelete(t *testing.T) {
	_, mgr, red, _ := deployTenants(t)
	if id, ok := mgr.TenantOf(red[0]); !ok || id != "red" {
		t.Fatalf("TenantOf = %v %v", id, ok)
	}
	if err := mgr.DeleteTenant("red"); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.TenantOf(red[0]); ok {
		t.Fatal("membership survived delete")
	}
}

func TestPathGraphForValidates(t *testing.T) {
	n, mgr, red, blue := deployTenants(t)
	wire, primary, _, err := mgr.PathGraphFor(n.Ctrl.Master(), "red", red[0], red[2])
	if err != nil {
		t.Fatal(err)
	}
	pg, err := topo.UnmarshalPathGraph(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The returned tags must be valid on the real fabric, and be the
	// wire's own primary.
	r, err := pg.RouteOf(pg.Primary)
	if err != nil {
		t.Fatal(err)
	}
	tags := r.Tags()
	if err := n.Topo.VerifyTags(red[0], red[2], tags); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tags, primary) {
		t.Fatalf("answer's primary tags %v, its wire says %v", primary, tags)
	}
	if _, _, _, err := mgr.PathGraphFor(n.Ctrl.Master(), "red", red[0], blue[0]); err == nil {
		t.Fatal("cross-tenant path graph built")
	}
	if _, _, _, err := mgr.PathGraphFor(n.Ctrl.Master(), "nope", red[0], red[1]); err == nil {
		t.Fatal("unknown tenant accepted")
	}
}
