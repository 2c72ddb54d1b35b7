package controller

import (
	"math/rand"

	"dumbnet/internal/gencache"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
	"dumbnet/internal/vnet"
)

// The route service: the controller's path-graph answers, made O(cache hit).
// Computed path graphs are cached per host pair in generation caches
// (internal/gencache) stamped with the controller's Epoch, so chaos-driven
// churn can never serve a stale route. A miss runs Algorithm 1 over the
// dense routing kernels with a reused scratch and writes the answer's wire
// form straight from the dense node set; the cache keeps those bytes and a
// switch count, no graph, so a warm path request allocates nothing.

// pairKey identifies one cached path-graph: a requesting host and a
// destination host. Caching per host pair (rather than per switch pair)
// keeps the marshaled response — which embeds both attachment points —
// directly reusable.
type pairKey struct {
	src, dst packet.MAC
}

// tenantKey identifies one cached slice-restricted answer: a tenant and a
// member host pair. A composite struct key keeps warm lookups map-probe
// cheap (no string concatenation, zero allocations).
type tenantKey struct {
	tenant   string
	src, dst packet.MAC
}

// tenantEpoch is the tenant plane's token: the controller's Epoch plus the
// tenant's generation, so both topology change (an answer reads the slice
// against the master) and tenant mutation (create/delete/migrate)
// invalidate lazily. An unknown tenant reports generation 0 and is refused
// by the tenant manager, so nothing is ever stored under it.
type tenantEpoch struct {
	Epoch
	tenantGen uint64
}

// RouteService caches and serves the controller's path graphs.
type RouteService struct {
	c      *Controller
	global *gencache.Cache[pairKey, Epoch, *RouteAnswer]
	tenant *gencache.Cache[tenantKey, tenantEpoch, *RouteAnswer]
	// rng breaks equal-cost ties for lookup's misses, reseeded per pair;
	// like c.sc it is used only on the controller's engine thread.
	rng *rand.Rand

	coalesced *trace.Counter
	tevicted  *trace.Counter
	taudits   *trace.Counter
	// compute observes the size (switch count) of each Algorithm-1 result —
	// a deterministic per-compute cost measure (wall-clock timing would leak
	// nondeterminism into metric output; dumbnet-bench carries the timings).
	compute *trace.Histogram
}

func newRouteService(c *Controller) *RouteService {
	reg := c.eng.Metrics()
	return &RouteService{
		c:   c,
		rng: rand.New(rand.NewSource(0)),
		global: gencache.New[pairKey, Epoch, *RouteAnswer](
			reg.Counter("ctrl.route.hit"), reg.Counter("ctrl.route.miss"), reg.Counter("ctrl.route.invalidated")),
		tenant: gencache.New[tenantKey, tenantEpoch, *RouteAnswer](
			reg.Counter("ctrl.route.tenant_hit"), reg.Counter("ctrl.route.tenant_miss"), reg.Counter("ctrl.route.tenant_invalidated")),
		coalesced: reg.Counter("ctrl.route.coalesced"),
		tevicted:  reg.Counter("ctrl.route.tenant_evicted"),
		taudits:   reg.Counter("ctrl.route.tenant_audits"),
		compute:   reg.ValueHistogram("ctrl.route.pgsize"),
	}
}

// pairSeed derives the equal-cost tie-break seed for one cached pair. It
// depends only on the pair and the epoch, so a cached answer is identical
// whatever order the pairs were first asked in — and re-randomizes each
// topology epoch, preserving the §4.3 load-balancing intent across
// invalidations. It is FNV-1a from packet.FNVShortBasis, which the pinned
// digests fix.
func pairSeed(src, dst packet.MAC, version, gen uint64) int64 {
	h := packet.FNV(packet.FNV(packet.FNVShortBasis, src[:]), dst[:])
	h ^= version * 0x9E3779B97F4A7C15
	h ^= gen * 0xBF58476D1CE4E5B9
	return int64(h)
}

// lookup answers (src, dst) from the global plane, computing and caching
// the answer on miss or staleness.
func (s *RouteService) lookup(src, dst packet.MAC) (RouteAnswer, error) {
	if s.c.master == nil {
		return RouteAnswer{}, ErrNoTopology
	}
	ep := s.c.Epoch()
	if a, ok := s.global.Get(pairKey{src, dst}, ep); ok {
		return *a, nil
	}
	s.rng.Seed(pairSeed(src, dst, ep.version, ep.gen))
	wire, switches, err := topo.WritePathGraph(ep.top, src, dst, PathGraphOptions(), s.rng, s.c.sc)
	if err != nil {
		return RouteAnswer{}, err
	}
	a := &RouteAnswer{Wire: wire, Scope: ScopeGlobal}
	s.compute.Observe(int64(switches))
	s.global.Put(pairKey{src, dst}, ep, a)
	return *a, nil
}

// lookupTenant answers a tenant member pair from the slice plane,
// recomputing through the tenant manager on miss or staleness. The answer is
// computed entirely inside the slice (the manager never sees topology
// the tenant may not), and a warm hit allocates nothing. Scope and Tenant
// are reported even on failure so callers (the path-request handler's
// refusal accounting) can tell a refused slice answer from a global miss.
func (s *RouteService) lookupTenant(tenant string, src, dst packet.MAC) (RouteAnswer, error) {
	refused := RouteAnswer{Scope: ScopeTenant, Tenant: tenant}
	if s.c.master == nil {
		return refused, ErrNoTopology
	}
	v := s.c.virt
	if v == nil {
		return refused, ErrIsolated
	}
	id := vnet.TenantID(tenant)
	tgen, _ := v.Generation(id)
	tok := tenantEpoch{s.c.Epoch(), tgen}
	if a, ok := s.tenant.Get(tenantKey{tenant, src, dst}, tok); ok {
		return *a, nil
	}
	wire, primary, backup, err := v.PathGraphFor(s.c.master, id, src, dst)
	if err != nil {
		return refused, err
	}
	a := &RouteAnswer{Wire: wire, Scope: ScopeTenant, Tenant: tenant, tags: &[2]packet.Path{primary, backup}}
	s.tenant.Put(tenantKey{tenant, src, dst}, tok, a)
	return *a, nil
}

// AuditTenantRoutes re-verifies every cached tenant answer against the
// tenant's slice as live in the *current* master and evicts any route that
// now escapes it — the paper's path-verifier run as a cache audit. Generation freshness
// already invalidates stale entries lazily; the audit is the belt to that
// suspender (and the detector if an entry were ever wrongly kept). It runs
// off the hot path and returns (checked, evicted).
func (s *RouteService) AuditTenantRoutes() (checked, evicted int) {
	v := s.c.virt
	if v == nil {
		return 0, 0
	}
	checked = s.tenant.Len()
	s.taudits.Add(uint64(checked))
	evicted = s.tenant.DeleteFunc(func(key tenantKey, a *RouteAnswer) bool {
		return s.auditTenantEntry(v, key, a) != nil
	})
	s.tevicted.Add(uint64(evicted))
	return checked, evicted
}

// auditTenantEntry replays a cached answer's tag routes through the slice
// verifier.
func (s *RouteService) auditTenantEntry(v *vnet.Manager, key tenantKey, a *RouteAnswer) error {
	id := vnet.TenantID(key.tenant)
	primary, backup := a.tags[0], a.tags[1]
	if err := v.VerifyRoute(s.c.master, id, key.src, key.dst, primary); err != nil || backup == nil {
		return err
	}
	return v.VerifyRoute(s.c.master, id, key.src, key.dst, backup)
}

// Len reports how many pairs are currently cached (fresh or not).
func (s *RouteService) Len() int { return s.global.Len() }

// TenantLen reports how many tenant pairs are currently cached.
func (s *RouteService) TenantLen() int { return s.tenant.Len() }

// DropTenant drops every cached answer of one tenant. A deleted tenant's
// keys are never probed again, so lazy invalidation alone would keep them
// forever; the tenant-delete path calls this on every live controller.
func (s *RouteService) DropTenant(tenant string) {
	s.tenant.DeleteFunc(func(k tenantKey, _ *RouteAnswer) bool { return k.tenant == tenant })
}

// Invalidate drops every cached entry (global and tenant). Generation
// checks make this unnecessary for correctness; benchmarks use it to force
// cold computes.
func (s *RouteService) Invalidate() {
	s.global.Clear()
	s.tenant.Clear()
}

// Routes exposes the controller's route service.
func (c *Controller) Routes() *RouteService { return c.routes }
