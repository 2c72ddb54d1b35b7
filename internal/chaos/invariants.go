package chaos

import (
	"cmp"
	"fmt"
	"slices"

	"dumbnet/internal/controller"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// The invariant checker runs after the scenario's final heal + settle, when
// the fabric is physically identical to the original topology again. Three
// invariants cover the recovery story end to end:
//
//  1. connectivity — every host pair pings within Deadline (stage-1
//     failover, re-queries and controller failover all resolved);
//  2. no-loops — every cached route, walked over the real topology,
//     visits no switch twice and terminates at its destination host;
//  3. convergence — the controller masters match the real topology again,
//     and every edge in every host's TopoCache agrees with the master.

func (r *linkBattery) check() {
	r.checkConnectivity()
	r.checkNoLoops()
	r.checkConvergence()
	r.checkRouteService()
	r.checkIsolation()
	r.checkMcast()
}

// samplePairs returns the ordered (src, dst) host pairs the sweeps examine.
// Cross-domain pairs are excluded — isolation asserts they must NOT connect,
// which checkIsolation probes separately. MaxPairChecks > 0 thins the list
// by a deterministic stride so huge fabrics stay checkable.
func (r *linkBattery) samplePairs() [][2]packet.MAC {
	hosts := r.allHosts()
	var all [][2]packet.MAC
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst || r.mgr.CrossDomain(src, dst) {
				continue
			}
			all = append(all, [2]packet.MAC{src, dst})
		}
	}
	if r.cfg.MaxPairChecks <= 0 || len(all) <= r.cfg.MaxPairChecks {
		return all
	}
	stride := (len(all) + r.cfg.MaxPairChecks - 1) / r.cfg.MaxPairChecks
	var out [][2]packet.MAC
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	return out
}

func (r *linkBattery) allHosts() []packet.MAC {
	return append([]packet.MAC{r.n.Controller().MAC()}, r.n.Hosts()...)
}

func (r *linkBattery) checkConnectivity() {
	for _, p := range r.samplePairs() {
		src, dst := p[0], p[1]
		deadline := r.n.Engine().Now() + r.cfg.Deadline
		attempts := 0
		for {
			attempts++
			if _, err := r.n.PingSync(src, dst); err == nil {
				break
			}
			if r.n.Engine().Now() >= deadline {
				r.violate("connectivity", "%v -> %v unreachable after %d attempts", src, dst, attempts)
				break
			}
			r.n.RunFor(50 * sim.Millisecond)
		}
		if attempts > 1 {
			r.rep.PingRetries++
		}
	}
}

func (r *linkBattery) checkNoLoops() {
	var seen []packet.SwitchID
	for _, h := range r.allHosts() {
		a := r.n.Agent(h)
		// In MAC order, so that violations print in the same order every run.
		dsts := a.Table().Destinations()
		slices.SortFunc(dsts, func(x, y packet.MAC) int { return cmp.Compare(x.Uint64(), y.Uint64()) })
		for _, dst := range dsts {
			e := a.Table().Lookup(dst)
			if e == nil {
				continue
			}
			paths := e.Paths
			if e.Backup != nil {
				paths = append(paths[:len(paths):len(paths)], *e.Backup)
			}
			for _, cp := range paths {
				// Each tag must name a wired port, no switch may repeat, and
				// the final tag must land on dst.
				seen = seen[:0]
				_, _, err := topo.FollowTags(r.n.Topology(), h, dst, cp.Tags, func(sw packet.SwitchID) error {
					if slices.Contains(seen, sw) {
						return fmt.Errorf("forwarding loop: switch %d revisited", sw)
					}
					seen = append(seen, sw)
					return nil
				})
				if err != nil {
					r.violate("no-loops", "host %v route to %v: %v (tags %v)", h, dst, err, cp.Tags)
				}
			}
		}
	}
}

// activeCtrl returns the controller whose route service is authoritative:
// the consensus leader when replicated (nil during elections), the sole
// controller otherwise.
func (r *linkBattery) activeCtrl() *controller.Controller {
	if g := r.n.Group(); g != nil {
		return g.Primary()
	}
	return r.n.Controller()
}

// masterView picks the authoritative master: the consensus leader's when
// replicated, the sole controller's otherwise.
func (r *linkBattery) masterView() *topo.Topology {
	if g := r.n.Group(); g != nil {
		if p := g.Primary(); p != nil {
			return p.Master()
		}
	}
	return r.n.Controller().Master()
}

// auditRouteCache is the mid-chaos half of the route-cache invariant: while
// faults are still being injected, sample a host pair and assert the route
// service never answers with a path over a link that is gone from the
// controller's current view — generation-based invalidation must keep
// cached path graphs exactly as fresh as the master. Transient "no path"
// errors are legitimate mid-chaos; stale hops are not.
func (r *linkBattery) auditRouteCache() {
	ctrl := r.activeCtrl()
	if ctrl == nil || ctrl.Down() || ctrl.Master() == nil {
		return
	}
	hosts := r.allHosts()
	if len(hosts) < 2 {
		return
	}
	src := hosts[r.auditRng.Intn(len(hosts))]
	dst := hosts[r.auditRng.Intn(len(hosts))]
	if src == dst {
		return
	}
	ans, err := ctrl.Resolve(controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeGlobal})
	if err != nil {
		return
	}
	pg := ans.Graph()
	r.assertPathInView(ctrl.Master(), "mid-chaos", src, dst, pg)
}

// assertPathInView verifies every consecutive hop of the answer's primary
// and backup paths is a live link in v.
func (r *linkBattery) assertPathInView(v *topo.Topology, when string, src, dst packet.MAC, pg *topo.PathGraph) {
	check := func(name string, p topo.SwitchPath) {
		for i := 0; i+1 < len(p); i++ {
			if _, err := v.PortToward(p[i], p[i+1]); err != nil {
				r.violate("route-cache", "%s: %v -> %v %s hop %d->%d not in view",
					when, src, dst, name, p[i], p[i+1])
			}
		}
	}
	check("primary", pg.Primary)
	check("backup", pg.Backup)
}

// checkRouteService is the post-heal half of the route-cache invariant:
// with the fabric whole again, every pair must get a valid path graph whose
// primary and backup walk only links that physically exist. A stale cached
// route surviving the chaos phase fails here.
func (r *linkBattery) checkRouteService() {
	ctrl := r.activeCtrl()
	if ctrl == nil || ctrl.Down() {
		r.violate("route-cache", "no live controller after heal")
		return
	}
	for _, p := range r.samplePairs() {
		src, dst := p[0], p[1]
		var pg *topo.PathGraph
		var err error
		if r.mgr != nil {
			if id, ok := r.mgr.TenantOf(src); ok {
				// Same tenant (cross-domain pairs were excluded): the
				// answer must come from inside the slice.
				var ans controller.RouteAnswer
				ans, err = ctrl.Resolve(controller.RouteQuery{Src: src, Dst: dst,
					Tenant: string(id), Scope: controller.ScopeTenant})
				if err == nil {
					pg = ans.Graph()
				}
			}
		}
		if pg == nil && err == nil {
			var ans controller.RouteAnswer
			ans, err = ctrl.Resolve(controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeGlobal})
			if err == nil {
				pg = ans.Graph()
			}
		}
		if err != nil {
			r.violate("route-cache", "%v -> %v: no path graph after heal: %v", src, dst, err)
			continue
		}
		if err := pg.Validate(); err != nil {
			r.violate("route-cache", "%v -> %v: %v", src, dst, err)
			continue
		}
		r.assertPathInView(r.n.Topology(), "post-heal", src, dst, pg)
	}
}

// auditTenantRoutes is the mid-chaos tenancy audit, run after every event:
// the active controller's route service evicts every cached tenant route
// that left its slice as live in that controller's master, to be
// recomputed on demand.
func (r *linkBattery) auditTenantRoutes() {
	if r.mgr == nil {
		return
	}
	if ctrl := r.activeCtrl(); ctrl != nil && !ctrl.Down() {
		ctrl.Routes().AuditTenantRoutes()
	}
}

// checkIsolation is the post-heal tenancy invariant: the manager refuses to
// answer for foreign hosts, and real cross-domain traffic still fails end to
// end even with the fabric fully healed — the strongest form of "zero
// cross-tenant deliveries".
func (r *linkBattery) checkIsolation() {
	if r.mgr == nil {
		return
	}
	ids := r.mgr.Tenants()
	// The manager must refuse to compute a path that leaves a slice.
	for i, id := range ids {
		if i >= 4 || len(ids) < 2 {
			break
		}
		other := ids[(i+1)%len(ids)]
		ma, erra := r.mgr.Members(id)
		mb, errb := r.mgr.Members(other)
		if erra != nil || errb != nil || len(ma) == 0 || len(mb) == 0 {
			continue
		}
		if _, _, _, err := r.mgr.PathGraphFor(r.masterView(), id, ma[0], mb[0]); err == nil {
			r.violate("tenant-isolation", "PathGraphFor(%s, %v, %v) crossed into %s", id, ma[0], mb[0], other)
		}
	}
	// A handful of live probes across boundaries: each must fail.
	probes := 0
	hosts := r.allHosts()
	for _, src := range hosts {
		if probes >= 4 {
			break
		}
		for _, dst := range hosts {
			if src == dst || !r.mgr.CrossDomain(src, dst) {
				continue
			}
			if _, err := r.n.PingSync(src, dst); err == nil {
				r.violate("tenant-isolation", "post-heal cross-domain ping %v -> %v succeeded", src, dst)
			}
			probes++
			break
		}
	}
}

func (r *linkBattery) checkConvergence() {
	master := r.masterView()
	if g := r.n.Group(); g != nil {
		// Every replica must hold the same view (they applied the same
		// log; a restarted replica must have caught up).
		for i, c := range g.Controllers() {
			if c.Master() == nil || !c.Master().Equal(master) {
				r.violate("master-convergence", "replica %d master diverges from leader", i)
			}
		}
	}
	if master == nil {
		r.violate("master-convergence", "no master view")
		return
	}
	if !master.Equal(r.baseline) {
		r.violate("master-convergence", "master does not match its pre-chaos state (%d/%d links)",
			master.NumLinks(), r.baseline.NumLinks())
	}
	// Host caches: every cached edge must be a master cable, leaving by
	// the same port (a parallel cable has its own). Caches are partial
	// views, so subset — not equality — is the invariant.
	for _, h := range r.allHosts() {
		cache := r.n.Agent(h).Cache()
		for _, sw := range cache.SwitchIDs() {
			for _, nb := range cache.Neighbors(sw) {
				if ep, err := master.EndpointAt(sw, nb.Port); err != nil || ep.Kind != topo.EndpointSwitch || ep.Switch != nb.Sw {
					r.violate("cache-convergence", "host %v caches edge %d->%d port %d absent from master", h, sw, nb.Sw, nb.Port)
				}
			}
		}
	}
}
