package chaos

import (
	"fmt"

	"dumbnet/internal/controller"
	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/trace"
)

// Multicast under chaos: groups are created before impairment, probes fire
// at them between fault events, and three invariants are armed:
//
//   - at-most-once, always — source-routed replication never retransmits,
//     so no member may ever see the same probe twice, even mid-chaos;
//   - bounded blast radius, always — a probe must never reach a host
//     outside its group's member set;
//   - exactly-once after heal — with the fabric whole again, a fresh probe
//     over repaired (recomputed) trees reaches every member exactly once.
//
// Mid-chaos losses are legitimate (trees are not reliable delivery);
// mid-chaos duplicates and leaks are not.

// mcastChaosGroup is one scenario-created group with its designated sender.
type mcastChaosGroup struct {
	id      uint32
	src     packet.MAC
	members []packet.MAC
}

func (g mcastChaosGroup) isMember(m packet.MAC) bool {
	for _, x := range g.members {
		if x == m {
			return true
		}
	}
	return false
}

// The multicast scenario's carve: how many groups, and how many hosts each
// spans.
const (
	mcastGroups    = 2
	mcastGroupSize = 4
)

// setupMcastGroups carves mcastGroups disjoint groups out of the
// host list before any fault is injected, and drains the group-event floods
// so every designated sender starts from an announced group. On fabrics too
// small for the configured carve, groups shrink (to at least two members)
// and then thin out — a deterministic function of the host count, so the
// degraded scenario still replays bit-identically per seed.
func (r *linkBattery) setupMcastGroups() error {
	hosts := r.n.Hosts()
	groups, size := mcastGroups, mcastGroupSize
	if groups*size > len(hosts) {
		if s := len(hosts) / groups; s < size {
			size = s
		}
		if size < 2 {
			size = 2
			groups = len(hosts) / size
		}
		if groups < 1 {
			return fmt.Errorf("chaos: multicast needs at least 2 hosts, have %d", len(hosts))
		}
	}
	for i := 0; i < groups; i++ {
		start := i * size
		g := mcastChaosGroup{
			id:      uint32(i + 1),
			src:     hosts[start],
			members: append([]packet.MAC(nil), hosts[start:start+size]...),
		}
		if err := r.n.CreateMcastGroup(g.id, g.members); err != nil {
			return fmt.Errorf("chaos: create multicast group %d: %w", g.id, err)
		}
		r.mcastGroups = append(r.mcastGroups, g)
		r.record(Event{Kind: trace.ScenarioMcastGroup, Tenant: fmt.Sprintf("g%d", g.id)})
	}
	// Drain the creates' group-event floods before the impairment starts.
	r.n.RunFor(10 * sim.Millisecond)
	return nil
}

// probeMcast fires one delivery probe at a group. The callback outlives the
// call: it asserts, on every delivery, that the receiver is a member other
// than the sender (blast radius) and has not been delivered this probe
// before (at-most-once). When strict, the returned check additionally
// demands every member was reached exactly once — the post-heal invariant;
// mid-chaos callers pass strict=false and rely only on the callback's
// always-invariants.
func (r *linkBattery) probeMcast(g mcastChaosGroup, strict bool) func() bool {
	delivered := make(map[packet.MAC]int, len(g.members))
	// Bit corruption can rewrite a port in the in-flight tree and land a
	// copy on the wrong host; with Corrupt armed, mid-chaos probes keep
	// counting but stop judging.
	lenient := !strict && r.cfg.Corrupt > 0
	err := r.n.MulticastProbe(g.src, g.id, func(m packet.MAC) {
		r.probeMu.Lock()
		delivered[m]++
		n := delivered[m]
		r.probeMu.Unlock()
		if lenient {
			return
		}
		if n > 1 {
			r.violate("mcast-exactly-once", "group %d: member %v delivered %d times for one probe", g.id, m, n)
		}
		if m == g.src || !g.isMember(m) {
			r.violate("mcast-blast-radius", "group %d: probe from %v delivered to non-member %v", g.id, g.src, m)
		}
	})
	if err != nil {
		if strict {
			r.violate("mcast-delivery", "group %d: post-heal probe from %v failed to send: %v", g.id, g.src, err)
		}
		// Mid-chaos send errors are legitimate: the sender's tree may be
		// unfetchable while the controller is down or the group partitioned.
		return func() bool { return false }
	}
	return func() bool {
		r.probeMu.Lock()
		defer r.probeMu.Unlock()
		for _, m := range g.members {
			if m != g.src && delivered[m] != 1 {
				return false
			}
		}
		return true
	}
}

// auditMcastTrees is the mid-chaos tree-freshness audit: whatever tree the
// controller is willing to serve right now must replay cleanly over its
// current master view — generation invalidation must keep cached trees
// exactly as fresh as the master, even while links are still going down.
// "No tree computable" is legitimate mid-chaos; a stale or looping tree is
// not. Draws from auditRng so enabling audits does not shift the scenario.
func (r *linkBattery) auditMcastTrees() {
	if !r.cfg.Mcast || len(r.mcastGroups) == 0 {
		return
	}
	// Group membership lives on the bootstrap controller (it is not in the
	// consensus log), so tree audits consult it — not the current leader.
	ctrl := r.n.Controller()
	if ctrl == nil || ctrl.Down() || ctrl.Master() == nil {
		return
	}
	g := r.mcastGroups[r.auditRng.Intn(len(r.mcastGroups))]
	ans, err := ctrl.Resolve(controller.RouteQuery{Src: g.src, Group: mcast.GroupID(g.id), Scope: controller.ScopeTree})
	if err != nil {
		return
	}
	if err := ans.Tree().Validate(ctrl.Master()); err != nil {
		r.violate("mcast-tree", "mid-chaos: group %d tree from %v stale against master: %v", g.id, g.src, err)
	}
}

// checkMcast is the post-heal multicast invariant: with the fabric whole
// again, every group's tree must be recomputed over the healed master (and
// replay cleanly over the physical topology), and a fresh probe must reach
// every member exactly once within Deadline.
func (r *linkBattery) checkMcast() {
	if !r.cfg.Mcast {
		return
	}
	ctrl := r.n.Controller()
	if ctrl == nil || ctrl.Down() {
		r.violate("mcast-delivery", "no live bootstrap controller after heal")
		return
	}
	for _, g := range r.mcastGroups {
		ans, err := ctrl.Resolve(controller.RouteQuery{Src: g.src, Group: mcast.GroupID(g.id), Scope: controller.ScopeTree})
		if err != nil {
			r.violate("mcast-tree", "group %d: no tree after heal: %v", g.id, err)
			continue
		}
		if err := ans.Tree().Validate(r.n.Topology()); err != nil {
			r.violate("mcast-tree", "group %d: post-heal tree invalid over physical topology: %v", g.id, err)
		}
		done := r.probeMcast(g, true)
		r.record(Event{Kind: trace.ScenarioMcastProbe, Tenant: fmt.Sprintf("g%d", g.id)})
		deadline := r.n.Engine().Now() + r.cfg.Deadline
		for !done() && r.n.Engine().Now() < deadline {
			r.n.RunFor(50 * sim.Millisecond)
		}
		if !done() {
			r.violate("mcast-delivery", "group %d: post-heal probe from %v did not reach every member exactly once", g.id, g.src)
		}
	}
}
