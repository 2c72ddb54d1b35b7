package controller

import (
	"testing"

	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/vnet"
)

// newLiveTenantReplicas builds two standalone controllers, each over its
// own clone of one leaf-spine and on its own engine, sharing one tenant
// manager with tenant "red" over a host on the first leaf and one on the
// last. It returns the controllers and red's two members.
func newLiveTenantReplicas(t *testing.T) (a, b *Controller, src, dst packet.MAC) {
	t.Helper()
	tp, err := topo.LeafSpine(2, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts() // two per leaf
	src, dst = hosts[1].Host, hosts[len(hosts)-1].Host
	m := vnet.NewManager(PathGraphOptions(), 1)
	if _, err := m.CreateTenant(tp, "red", []packet.MAC{src, dst}); err != nil {
		t.Fatal(err)
	}
	replica := func(ctrl packet.MAC) *Controller {
		eng := sim.NewEngine(1)
		c := New(eng, host.New(eng, ctrl, host.DefaultConfig()), DefaultConfig())
		c.SetMaster(tp.Clone())
		c.SetVirtualization(m)
		return c
	}
	return replica(hosts[0].Host), replica(hosts[2].Host), src, dst
}

// redAnswer resolves red's src->dst answer at c.
func redAnswer(t *testing.T, c *Controller, src, dst packet.MAC) (*topo.PathGraph, RouteAnswer) {
	t.Helper()
	a, err := c.Resolve(RouteQuery{Src: src, Dst: dst, Tenant: "red", Scope: ScopeTenant})
	if err != nil {
		t.Fatal(err)
	}
	return a.Graph(), a
}

// linkDown and linkUp are the committed patches a replica applies.
func linkDown(sw packet.SwitchID, p topo.Port) *topo.Patch {
	return &topo.Patch{Ops: []topo.PatchOp{{Kind: topo.OpLinkDown, Switch: sw, Port: p}}}
}

func linkUp(a packet.SwitchID, pa topo.Port, b packet.SwitchID, pb topo.Port) *topo.Patch {
	return &topo.Patch{Ops: []topo.PatchOp{{Kind: topo.OpLinkUp, A: a, PA: pa, B: b, PB: pb}}}
}

// TestLaggingReplicaLeavesHealedTenantAnswer: replicas that share a tenant
// manager each answer from their own master. Replica A applies the
// link-down and then the link-up of a cable c of red's answer; replica B,
// lagging, applies only the old link-down afterwards. A's answer must
// still hold c and B's must not: one replica's patches never reach
// another's tenant answers.
func TestLaggingReplicaLeavesHealedTenantAnswer(t *testing.T) {
	a, b, src, dst := newLiveTenantReplicas(t)
	_, ans := redAnswer(t, a, src, dst)
	at, err := a.Master().HostAt(src)
	if err != nil {
		t.Fatal(err)
	}
	sw, port := at.Switch, ans.tags[0][0]
	far, ok := a.Master().CableAt(sw, port)
	if !ok {
		t.Fatalf("red's primary leaves %d by port %d, which is no cable", sw, port)
	}
	a.applyPatchLocal(linkDown(sw, port))
	a.applyPatchLocal(linkUp(sw, port, far.Switch, far.Port))
	b.applyPatchLocal(linkDown(sw, port))

	if pg, _ := redAnswer(t, a, src, dst); !holds(pg, sw, port, far) {
		t.Fatalf("replica A healed %d:%d -> %v, but its tenant answer lacks it", sw, port, far)
	}
	if pg, _ := redAnswer(t, b, src, dst); holds(pg, sw, port, far) {
		t.Fatalf("replica B lost %d:%d -> %v, but its tenant answer holds it", sw, port, far)
	}
}

// holds reports whether pg's graph holds the cable sw:p -> far.
func holds(pg *topo.PathGraph, sw packet.SwitchID, p topo.Port, far topo.PortRef) bool {
	got, ok := pg.Graph.CableAt(sw, p)
	return ok && got == far
}

// TestMasterCutInvalidatesTenantAnswer: a link event reaches a cached
// tenant answer through the controller's epoch alone — the next lookup
// counts an invalidation and answers without the cut cable, though the
// tenant's generation did not move.
func TestMasterCutInvalidatesTenantAnswer(t *testing.T) {
	c, _, src, dst := newLiveTenantReplicas(t)
	_, ans := redAnswer(t, c, src, dst)
	at, err := c.Master().HostAt(src)
	if err != nil {
		t.Fatal(err)
	}
	sw, port := at.Switch, ans.tags[0][0]
	far, _ := c.Master().CableAt(sw, port)
	gen, _ := c.virt.Generation("red")
	c.applyPatchLocal(linkDown(sw, port))
	pg, _ := redAnswer(t, c, src, dst)
	if n := count(c, "ctrl.route.tenant_invalidated"); n != 1 {
		t.Fatalf("tenant_invalidated = %d after a master cut, want 1", n)
	}
	if holds(pg, sw, port, far) {
		t.Fatalf("answer after the cut still holds %d:%d -> %v", sw, port, far)
	}
	if g, _ := c.virt.Generation("red"); g != gen {
		t.Fatalf("tenant generation moved on a link event: %d -> %d", gen, g)
	}
}
