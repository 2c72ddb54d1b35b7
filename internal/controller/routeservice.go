package controller

import (
	"math/rand"
	"sync"

	"dumbnet/internal/gencache"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// The route service: the controller's path-graph answers, made O(cache hit).
// Computed path graphs are cached per host pair in generation caches
// (internal/gencache) stamped with the controller's Epoch, so chaos-driven
// churn can never serve a stale route. Misses run Algorithm 1 over the
// dense routing kernels with a reused scratch, and the serialized wire form
// is cached alongside the graph so a warm path request allocates nothing.

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
// tenant's generation, so both topology change and tenant mutation
// (create/delete/migrate/resize, slice repair) invalidate lazily. An
// unknown tenant reports generation 0 and is refused by the virtualizer,
// so nothing is ever stored under it.
type tenantEpoch struct {
	Epoch
	tenantGen uint64
}

// RouteService caches and serves the controller's path graphs.
type RouteService struct {
	c      *Controller
	global *gencache.Cache[pairKey, Epoch, *RouteAnswer]
	tenant *gencache.Cache[tenantKey, tenantEpoch, *RouteAnswer]

	coalesced *trace.Counter
	warmed    *trace.Counter
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
		c: c,
		global: gencache.New[pairKey, Epoch, *RouteAnswer](
			reg.Counter("ctrl.route.hit"), reg.Counter("ctrl.route.miss"), reg.Counter("ctrl.route.invalidated")),
		tenant: gencache.New[tenantKey, tenantEpoch, *RouteAnswer](
			reg.Counter("ctrl.route.tenant_hit"), reg.Counter("ctrl.route.tenant_miss"), reg.Counter("ctrl.route.tenant_invalidated")),
		coalesced: reg.Counter("ctrl.route.coalesced"),
		warmed:    reg.Counter("ctrl.route.warmed"),
		tevicted:  reg.Counter("ctrl.route.tenant_evicted"),
		taudits:   reg.Counter("ctrl.route.tenant_audits"),
		compute:   reg.ValueHistogram("ctrl.route.pgsize"),
	}
}

// pairSeed derives the equal-cost tie-break seed for one cached pair. It
// depends only on the pair and the epoch, so a cached answer is identical
// no matter which code path (request, warm-up shard, audit) computed it
// first — and re-randomizes each topology epoch, preserving the §4.3
// load-balancing intent across invalidations.
func pairSeed(src, dst packet.MAC, version, gen uint64) int64 {
	h := uint64(1469598103934665603) // FNV-1a
	for _, b := range src {
		h = (h ^ uint64(b)) * 1099511628211
	}
	for _, b := range dst {
		h = (h ^ uint64(b)) * 1099511628211
	}
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
	a, err := s.computeAnswer(ep, pairKey{src, dst}, s.c.sc)
	if err != nil {
		return RouteAnswer{}, err
	}
	s.compute.Observe(int64(a.pg.Graph.NumSwitches()))
	s.global.Put(pairKey{src, dst}, ep, a)
	return *a, nil
}

// computeAnswer runs Algorithm 1 for key at epoch ep over the given
// scratch. It touches no registry instruments, so warm-up shards may call
// it concurrently (each with its own scratch).
func (s *RouteService) computeAnswer(ep Epoch, key pairKey, sc *topo.DenseScratch) (*RouteAnswer, error) {
	rng := rand.New(rand.NewSource(pairSeed(key.src, key.dst, ep.version, ep.gen)))
	pg, err := topo.BuildPathGraphScratch(ep.top, key.src, key.dst, s.c.cfg.PathGraph, rng, sc)
	if err != nil {
		return nil, err
	}
	return &RouteAnswer{Wire: pg.Marshal(), Scope: ScopeGlobal, pg: pg}, nil
}

// lookupTenant answers a tenant member pair from the slice plane,
// recomputing through the virtualizer on miss or staleness. The answer is
// computed entirely inside the slice (the virtualizer never sees topology
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
	tgen, _ := v.TenantGeneration(tenant)
	tok := tenantEpoch{s.c.Epoch(), tgen}
	if a, ok := s.tenant.Get(tenantKey{tenant, src, dst}, tok); ok {
		return *a, nil
	}
	pg, err := v.PathGraphFor(tenant, src, dst)
	if err != nil {
		return refused, err
	}
	a := &RouteAnswer{Wire: pg.Marshal(), Scope: ScopeTenant, Tenant: tenant, pg: pg}
	s.tenant.Put(tenantKey{tenant, src, dst}, tok, a)
	return *a, nil
}

// AuditTenantRoutes re-verifies every cached tenant answer against the
// tenant's *current* slice and evicts any route that now escapes it —
// the paper's path-verifier run as a cache audit. Generation freshness
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
		return s.auditTenantEntry(v, key, a.pg) != nil
	})
	s.tevicted.Add(uint64(evicted))
	return checked, evicted
}

// auditTenantEntry replays a cached answer's tag routes through the slice
// verifier.
func (s *RouteService) auditTenantEntry(v Virtualizer, key tenantKey, pg *topo.PathGraph) error {
	tags, err := pg.PrimaryTags()
	if err != nil {
		return err
	}
	if err := v.VerifyTenantRoute(key.tenant, key.src, key.dst, tags); err != nil {
		return err
	}
	if len(pg.Backup) > 0 {
		btags, err := pg.BackupTags()
		if err != nil {
			return err
		}
		if err := v.VerifyTenantRoute(key.tenant, key.src, key.dst, btags); err != nil {
			return err
		}
	}
	return nil
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

// Warm precomputes path graphs for the given host pairs across a worker
// pool and installs them in the cache, returning how many entries were
// computed. The master's dense snapshot is forced up front so workers share
// it read-only; each worker owns its scratch and result slice, and the
// per-pair seeding makes the cache contents independent of the worker
// count. Pairs already fresh are skipped; unroutable pairs are left to
// lazy, on-demand retry.
func (s *RouteService) Warm(pairs [][2]packet.MAC, workers int) int {
	m := s.c.master
	if m == nil || len(pairs) == 0 {
		return 0
	}
	m.Dense()
	ep := s.c.Epoch()
	if workers < 1 {
		workers = 1
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	type result struct {
		key pairKey
		a   *RouteAnswer
	}
	out := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := topo.NewDenseScratch()
			for i := w; i < len(pairs); i += workers {
				key := pairKey{src: pairs[i][0], dst: pairs[i][1]}
				if _, ok := s.global.Peek(key, ep); ok {
					continue
				}
				a, err := s.computeAnswer(ep, key, sc)
				if err != nil {
					continue
				}
				out[w] = append(out[w], result{key: key, a: a})
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for _, rs := range out {
		for _, r := range rs {
			s.global.Put(r.key, ep, r.a)
			s.compute.Observe(int64(r.a.pg.Graph.NumSwitches()))
			n++
		}
	}
	s.warmed.Add(uint64(n))
	return n
}

// Routes exposes the controller's route service.
func (c *Controller) Routes() *RouteService { return c.routes }

// WarmPathCache precomputes the route service for every ordered host pair
// in the master view across a worker pool — the post-discovery warm-up that
// takes first-packet latency off the critical path. Returns the number of
// entries computed.
func (c *Controller) WarmPathCache(workers int) int {
	if c.master == nil {
		return 0
	}
	hosts := c.master.Hosts()
	pairs := make([][2]packet.MAC, 0, len(hosts)*(len(hosts)-1))
	for _, a := range hosts {
		for _, b := range hosts {
			if a.Host != b.Host {
				pairs = append(pairs, [2]packet.MAC{a.Host, b.Host})
			}
		}
	}
	return c.routes.Warm(pairs, workers)
}
