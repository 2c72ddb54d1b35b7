package controller

import (
	"math/rand"
	"sync"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// The route service: the controller's path-graph answers, made O(cache hit).
// Computed path graphs are cached per host pair and invalidated lazily by
// the topology generation counter — every applied patch (link up/down,
// switch crash, host change) bumps Topology.Generation, so chaos-driven
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

// routeEntry is one cached answer. It is valid only while all three
// freshness tokens still match the controller's state: the topology object
// identity (SetMaster installs a new object), the controller's patch epoch,
// and the topology's own mutation generation.
type routeEntry struct {
	top     *topo.Topology
	version uint64
	topoGen uint64
	pg      *topo.PathGraph // immutable; Lookup clones before returning
	wire    []byte          // pg.Marshal(), shared by every coalesced reply
}

// tenantKey identifies one cached slice-restricted answer: a tenant and a
// member host pair. A composite struct key keeps warm lookups map-probe
// cheap (no string concatenation, zero allocations).
type tenantKey struct {
	tenant   string
	src, dst packet.MAC
}

// tenantEntry is a cached slice answer. On top of routeEntry's three
// freshness tokens it carries the tenant's generation, so both topology
// change and tenant mutation (create/delete/migrate/resize, slice repair)
// invalidate it lazily.
type tenantEntry struct {
	top       *topo.Topology
	version   uint64
	topoGen   uint64
	tenantGen uint64
	pg        *topo.PathGraph
	wire      []byte
}

// RouteService caches and serves the controller's path graphs.
type RouteService struct {
	c      *Controller
	cache  map[pairKey]*routeEntry
	tcache map[tenantKey]*tenantEntry
	sc     *topo.DenseScratch

	hits        *trace.Counter
	misses      *trace.Counter
	invalidated *trace.Counter
	coalesced   *trace.Counter
	warmed      *trace.Counter
	thits       *trace.Counter
	tmisses     *trace.Counter
	tinvalid    *trace.Counter
	tevicted    *trace.Counter
	taudits     *trace.Counter
	// compute observes the size (switch count) of each Algorithm-1 result —
	// a deterministic per-compute cost measure (wall-clock timing would leak
	// nondeterminism into metric output; dumbnet-bench carries the timings).
	compute *trace.Histogram
}

func newRouteService(c *Controller) *RouteService {
	reg := c.eng.Metrics()
	return &RouteService{
		c:           c,
		cache:       make(map[pairKey]*routeEntry),
		tcache:      make(map[tenantKey]*tenantEntry),
		sc:          topo.NewDenseScratch(),
		hits:        reg.Counter("ctrl.route.hit"),
		misses:      reg.Counter("ctrl.route.miss"),
		invalidated: reg.Counter("ctrl.route.invalidated"),
		coalesced:   reg.Counter("ctrl.route.coalesced"),
		warmed:      reg.Counter("ctrl.route.warmed"),
		thits:       reg.Counter("ctrl.route.tenant_hit"),
		tmisses:     reg.Counter("ctrl.route.tenant_miss"),
		tinvalid:    reg.Counter("ctrl.route.tenant_invalidated"),
		tevicted:    reg.Counter("ctrl.route.tenant_evicted"),
		taudits:     reg.Counter("ctrl.route.tenant_audits"),
		compute:     reg.ValueHistogram("ctrl.route.pgsize"),
	}
}

// pairSeed derives the equal-cost tie-break seed for one cached pair. It
// depends only on the pair and the freshness tokens, so a cached answer is
// identical no matter which code path (request, warm-up shard, audit)
// computed it first — and re-randomizes each topology epoch, preserving the
// §4.3 load-balancing intent across invalidations.
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

// fresh reports whether e still answers for master m.
func (e *routeEntry) fresh(m *topo.Topology, version uint64) bool {
	return e.top == m && e.version == version && e.topoGen == m.Generation()
}

// lookup returns a valid cache entry for (src, dst), computing and caching
// one on miss or staleness.
func (s *RouteService) lookup(src, dst packet.MAC) (*routeEntry, error) {
	m := s.c.master
	if m == nil {
		return nil, ErrNoTopology
	}
	key := pairKey{src: src, dst: dst}
	if e, ok := s.cache[key]; ok {
		if e.fresh(m, s.c.version) {
			s.hits.Inc()
			return e, nil
		}
		// Lazy invalidation: a patch bumped a freshness token since this
		// entry was computed.
		s.invalidated.Inc()
		delete(s.cache, key)
	}
	s.misses.Inc()
	e, err := s.computeEntry(m, key, s.sc)
	if err != nil {
		return nil, err
	}
	s.compute.Observe(int64(e.pg.Graph.NumSwitches()))
	s.cache[key] = e
	return e, nil
}

// computeEntry runs Algorithm 1 for key over the given scratch. It touches
// no registry instruments, so warm-up shards may call it concurrently (each
// with its own scratch).
func (s *RouteService) computeEntry(m *topo.Topology, key pairKey, sc *topo.DenseScratch) (*routeEntry, error) {
	version, gen := s.c.version, m.Generation()
	rng := rand.New(rand.NewSource(pairSeed(key.src, key.dst, version, gen)))
	pg, err := topo.BuildPathGraphScratch(m, key.src, key.dst, s.c.cfg.PathGraph, rng, sc)
	if err != nil {
		return nil, err
	}
	return &routeEntry{top: m, version: version, topoGen: gen, pg: pg, wire: pg.Marshal()}, nil
}

// freshTenant reports whether e still answers for master m at tenant
// generation tgen.
func (e *tenantEntry) fresh(m *topo.Topology, version, tgen uint64) bool {
	return e.top == m && e.version == version && e.topoGen == m.Generation() && e.tenantGen == tgen
}

// lookupTenant returns a valid cached slice answer for a tenant member
// pair, recomputing through the virtualizer on miss or staleness. The
// answer is computed entirely inside the slice (the virtualizer never sees
// topology the tenant may not), and a warm hit allocates nothing.
func (s *RouteService) lookupTenant(tenant string, src, dst packet.MAC) (*tenantEntry, error) {
	m := s.c.master
	if m == nil {
		return nil, ErrNoTopology
	}
	v := s.c.virt
	if v == nil {
		return nil, ErrIsolated
	}
	tgen, known := v.TenantGeneration(tenant)
	key := tenantKey{tenant: tenant, src: src, dst: dst}
	if e, ok := s.tcache[key]; ok {
		if known && e.fresh(m, s.c.version, tgen) {
			s.thits.Inc()
			return e, nil
		}
		s.tinvalid.Inc()
		delete(s.tcache, key)
	}
	s.tmisses.Inc()
	pg, err := v.PathGraphFor(tenant, src, dst)
	if err != nil {
		return nil, err
	}
	e := &tenantEntry{top: m, version: s.c.version, topoGen: m.Generation(),
		tenantGen: tgen, pg: pg, wire: pg.Marshal()}
	s.tcache[key] = e
	return e, nil
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
	for key, e := range s.tcache {
		checked++
		s.taudits.Inc()
		if err := s.auditTenantEntry(v, key, e); err != nil {
			delete(s.tcache, key)
			s.tevicted.Inc()
			evicted++
		}
	}
	return checked, evicted
}

// auditTenantEntry replays a cached answer's tag routes through the slice
// verifier.
func (s *RouteService) auditTenantEntry(v Virtualizer, key tenantKey, e *tenantEntry) error {
	tags, err := e.pg.PrimaryTags()
	if err != nil {
		return err
	}
	if err := v.VerifyTenantRoute(key.tenant, key.src, key.dst, tags); err != nil {
		return err
	}
	if len(e.pg.Backup) > 0 {
		btags, err := e.pg.BackupTags()
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
func (s *RouteService) Len() int { return len(s.cache) }

// TenantLen reports how many tenant pairs are currently cached.
func (s *RouteService) TenantLen() int { return len(s.tcache) }

// Invalidate drops every cached entry (global and tenant). Generation
// checks make this unnecessary for correctness; benchmarks use it to force
// cold computes.
func (s *RouteService) Invalidate() {
	for k := range s.cache {
		delete(s.cache, k)
	}
	for k := range s.tcache {
		delete(s.tcache, k)
	}
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
	version := s.c.version
	if workers < 1 {
		workers = 1
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	type result struct {
		key pairKey
		e   *routeEntry
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
				if e, ok := s.cache[key]; ok && e.fresh(m, version) {
					continue
				}
				e, err := s.computeEntry(m, key, sc)
				if err != nil {
					continue
				}
				out[w] = append(out[w], result{key: key, e: e})
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for _, rs := range out {
		for _, r := range rs {
			s.cache[r.key] = r.e
			s.compute.Observe(int64(r.e.pg.Graph.NumSwitches()))
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
