package controller

import (
	"bytes"
	"errors"
	"testing"

	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
)

func mcastTestGroup(macs []packet.MAC) []packet.MAC {
	return []packet.MAC{macs[2], macs[3], macs[5], macs[7]}
}

func TestMcastGroupLifecycle(t *testing.T) {
	c, _, macs := newRouteTestController(t)
	svc := c.Mcast()
	members := mcastTestGroup(macs)

	if err := svc.CreateGroup(7, members); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateGroup(7, members); !errors.Is(err, ErrGroupExists) {
		t.Fatalf("duplicate create: err = %v", err)
	}
	if got, ok := svc.Members(7); !ok || len(got) != len(members) {
		t.Fatalf("Members = %v, %v", got, ok)
	}
	if gen, ok := svc.GroupGen(7); !ok || gen != 1 {
		t.Fatalf("GroupGen = %d, %v, want 1", gen, ok)
	}
	if err := svc.UpdateGroup(7, members[:2]); err != nil {
		t.Fatal(err)
	}
	if gen, _ := svc.GroupGen(7); gen != 2 {
		t.Fatalf("gen after update = %d, want 2", gen)
	}
	if err := svc.UpdateGroup(99, members); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("update of unknown group: err = %v", err)
	}
	if err := svc.CreateGroup(8, members); err != nil {
		t.Fatal(err)
	}
	if got := svc.Groups(); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("Groups = %v", got)
	}
	if err := svc.DeleteGroup(8); err != nil {
		t.Fatal(err)
	}
	if _, err := treeOf(c.Resolve(RouteQuery{Src: macs[1], Group: 8, Scope: ScopeTree})); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("lookup of deleted group: err = %v", err)
	}
}

func TestMcastLookupCachesAndInvalidates(t *testing.T) {
	c, tp, macs := newRouteTestController(t)
	svc := c.Mcast()
	members := mcastTestGroup(macs)
	if err := svc.CreateGroup(3, members); err != nil {
		t.Fatal(err)
	}
	src := macs[1]

	w1, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 3, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.mcast.miss") != 1 || count(c, "ctrl.mcast.hit") != 0 {
		t.Fatalf("after first lookup: hits=%d misses=%d", count(c, "ctrl.mcast.hit"), count(c, "ctrl.mcast.miss"))
	}
	w2, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 3, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.mcast.hit") != 1 {
		t.Fatalf("second lookup was not a hit (hits=%d)", count(c, "ctrl.mcast.hit"))
	}
	if &w1[0] != &w2[0] {
		t.Fatal("warm hit did not return the cached wire bytes")
	}
	tree, err := treeOf(c.Resolve(RouteQuery{Src: src, Group: 3, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(tp); err != nil {
		t.Fatalf("cached tree invalid: %v", err)
	}

	// A topology mutation (a tree link dying) must lazily invalidate; the
	// recomputed tree must validate against the healed view — the repair
	// flow.
	cutTreeLink(t, c, tree)
	w3, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 3, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.mcast.invalidated") != 1 {
		t.Fatalf("mutation did not invalidate (invalidated=%d)", count(c, "ctrl.mcast.invalidated"))
	}
	if bytes.Equal(w2, w3) {
		t.Fatal("tree unchanged after losing one of its links")
	}
	repaired, err := treeOf(c.Resolve(RouteQuery{Src: src, Group: 3, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if err := repaired.Validate(c.Master()); err != nil {
		t.Fatalf("repaired tree invalid: %v", err)
	}

	// A membership change must invalidate too.
	inval := count(c, "ctrl.mcast.invalidated")
	if err := svc.UpdateGroup(3, members[:3]); err != nil {
		t.Fatal(err)
	}
	shrunk, err := treeOf(c.Resolve(RouteQuery{Src: src, Group: 3, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if count(c, "ctrl.mcast.invalidated") != inval+1 {
		t.Fatal("membership change did not invalidate cached tree")
	}
	if len(shrunk.Members) != 3 {
		t.Fatalf("members after update = %v", shrunk.Members)
	}
}

// cutTreeLink disconnects the first switch-switch edge the tree uses, going
// through the controller's master view so the generation counter moves.
func cutTreeLink(t *testing.T, c *Controller, tree *mcast.Tree) {
	t.Helper()
	m := c.Master()
	for _, h := range tree.Hops {
		if len(h.Sub) > 0 {
			if err := m.Disconnect(tree.Root, packet.Tag(h.Port)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("tree has no switch-switch edge at the root")
}

// TestMcastTreeDeterministicPerEpoch pins the seeding contract: within one
// (topology, membership) epoch repeated computes agree bit-for-bit, and the
// seed moves with the epoch.
func TestMcastTreeDeterministicPerEpoch(t *testing.T) {
	c, _, macs := newRouteTestController(t)
	svc := c.Mcast()
	members := mcastTestGroup(macs)
	if err := svc.CreateGroup(1, members); err != nil {
		t.Fatal(err)
	}
	src := macs[1]
	w1, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 1, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), w1...)
	svc.Invalidate()
	w2, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 1, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w2) {
		t.Fatal("recompute within one epoch produced a different tree")
	}
	if seedA, seedB := groupSeed(1, src, 1, 5, 1), groupSeed(1, src, 1, 5, 2); seedA == seedB {
		t.Fatal("group generation does not move the seed")
	}
}

// TestWarmMcastLookupAllocFree is the CI alloc guard on the control-plane
// half of the tentpole: a warm (group, source) tree lookup performs zero
// allocations.
func TestWarmMcastLookupAllocFree(t *testing.T) {
	c, _, macs := newRouteTestController(t)
	svc := c.Mcast()
	if err := svc.CreateGroup(2, mcastTestGroup(macs)); err != nil {
		t.Fatal(err)
	}
	src := macs[1]
	if _, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 2, Scope: ScopeTree})); err != nil {
		t.Fatal(err)
	}
	var sink []byte
	allocs := testing.AllocsPerRun(1000, func() {
		w, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 2, Scope: ScopeTree}))
		if err != nil {
			panic(err)
		}
		sink = w
	})
	if allocs != 0 {
		t.Fatalf("warm tree Resolve: %v allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestMcastLookupCloneSafety: mutating a Tree() result must not corrupt
// the cached tree.
func TestMcastLookupCloneSafety(t *testing.T) {
	c, _, macs := newRouteTestController(t)
	svc := c.Mcast()
	if err := svc.CreateGroup(4, mcastTestGroup(macs)); err != nil {
		t.Fatal(err)
	}
	src := macs[1]
	baseline, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 4, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), baseline...)
	tree, err := treeOf(c.Resolve(RouteQuery{Src: src, Group: 4, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	tree.Wire()[0] ^= 0xFF
	tree.Members[0] = packet.MACFromUint64(0xDEAD)
	after, err := wireOf(c.Resolve(RouteQuery{Src: src, Group: 4, Scope: ScopeTree}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, after) {
		t.Fatal("mutating a Tree() clone corrupted the cached wire form")
	}
}
