package federation

import (
	"sync"

	"dumbnet/internal/controller"
	"dumbnet/internal/gencache"
	"dumbnet/internal/packet"
	"dumbnet/internal/trace"
)

// Member is one fabric in the federation as the regional plane sees it:
// its (authoritative) local controller, its border gateways, and its host
// population.
type Member struct {
	Name     string
	Index    int
	Ctrl     *controller.Controller
	Gateways []*Gateway
}

// Route is the regional answer to a route query. For an inter-fabric query
// it names the egress gateway, the WAN link, and the two locally resolved
// legs; for an intra-fabric query it wraps the owning controller's answer.
// Fields alias cache-owned data — a warm Resolve allocates nothing — so
// callers must not mutate the wire slices.
type Route struct {
	Src, Dst             packet.MAC
	SrcFabric, DstFabric int

	// Inter-fabric fields (SrcFabric != DstFabric).
	Gateway    packet.MAC // egress gateway host in the source fabric
	FarGateway packet.MAC // ingress gateway host in the destination fabric
	WAN        int        // chosen WAN link ID
	SrcWire    []byte     // src → egress gateway path wire (nil when src is the gateway)
	DstWire    []byte     // far gateway → dst path wire (nil when dst is the gateway)

	// Local is the member controller's answer for intra-fabric queries.
	Local controller.RouteAnswer
}

// Intra reports whether the route stays inside one fabric.
func (r Route) Intra() bool { return r.SrcFabric == r.DstFabric }

// fedKey identifies one cached inter-fabric route.
type fedKey struct {
	src, dst packet.MAC
}

// fedEpoch is the regional plane's token: both member controllers' Epochs
// plus the federation health generation. Any member repair, controller
// restart, WAN flag transition, or gateway crash moves it, and the next
// Resolve recomputes over the healed view — the local route service's
// generation cache, lifted one level up.
type fedEpoch struct {
	src, dst controller.Epoch
	wanGen   uint64
}

// RegionalStats counts resolver cache outcomes.
type RegionalStats struct {
	Hits, Misses, Invalidated uint64
	// Refused counts inter-fabric queries turned away with no live WAN
	// path (the never-widen refusals).
	Refused uint64
}

// Regional is the federation's root resolver: it owns the host→fabric
// directory and a generation-invalidated cache of composed inter-fabric
// routes, and delegates intra-fabric queries to the owning member's
// controller untouched. Resolve is safe from concurrent shard workers (the
// federated echo reply resolves its return route in-sim); the cache is
// guarded by a mutex, which keeps the warm path allocation-free.
type Regional struct {
	mu      sync.Mutex
	members []*Member
	hostFab map[packet.MAC]int
	links   []*WANLink
	hub     *RegionalHub
	cache   *gencache.Cache[fedKey, fedEpoch, *Route]

	hits, misses, invalidated trace.Counter
	refused                   uint64
}

// NewRegional returns an empty regional resolver over the federation's
// WAN links and health hub. Members are added with AddMember.
func NewRegional(hub *RegionalHub, links []*WANLink) *Regional {
	r := &Regional{hostFab: make(map[packet.MAC]int), links: links, hub: hub}
	r.cache = gencache.New[fedKey, fedEpoch, *Route](&r.hits, &r.misses, &r.invalidated)
	return r
}

// AddMember registers one member fabric and its host population.
func (r *Regional) AddMember(name string, ctrl *controller.Controller, gws []*Gateway, hosts []packet.MAC) *Member {
	m := &Member{Name: name, Index: len(r.members), Ctrl: ctrl, Gateways: gws}
	r.members = append(r.members, m)
	for _, h := range hosts {
		r.hostFab[h] = m.Index
	}
	return m
}

// Members returns the member fabrics in index order.
func (r *Regional) Members() []*Member { return r.members }

// Hub returns the federation health hub.
func (r *Regional) Hub() *RegionalHub { return r.hub }

// FabricOf returns the member fabric owning a host.
func (r *Regional) FabricOf(m packet.MAC) (int, bool) {
	f, ok := r.hostFab[m]
	return f, ok
}

// Stats returns the resolver cache counters. Read while the simulation is
// parked.
func (r *Regional) Stats() RegionalStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegionalStats{Hits: r.hits.Value(), Misses: r.misses.Value(),
		Invalidated: r.invalidated.Value(), Refused: r.refused}
}

// Len reports how many inter-fabric routes are currently cached.
func (r *Regional) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache.Len()
}

// Invalidate drops every cached inter-fabric route. Generation checks make
// this unnecessary for correctness; benchmarks use it to force cold
// resolves.
func (r *Regional) Invalidate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache.Clear()
}

// Resolve answers a route query anywhere in the federation. Queries whose
// endpoints share a fabric are delegated to that fabric's controller (any
// scope the controller accepts); inter-fabric queries are composed here
// and must be plain unicast (tenants and multicast groups do not
// federate). A warm inter-fabric resolve is a map probe plus freshness
// check and performs zero allocations.
func (r *Regional) Resolve(q controller.RouteQuery) (Route, error) {
	sf, ok := r.hostFab[q.Src]
	if !ok {
		return Route{}, ErrUnknownHost
	}
	df, ok := r.hostFab[q.Dst]
	if !ok && q.Group == 0 {
		return Route{}, ErrUnknownHost
	}
	if q.Group != 0 {
		// Trees are fabric-local; the group must resolve at Src's fabric.
		df = sf
	}
	if sf == df {
		lq := q
		if lq.Scope == controller.ScopeFabric {
			lq.Scope = controller.ScopeAuto
		}
		ans, err := r.members[sf].Ctrl.Resolve(lq)
		if err != nil {
			return Route{}, err
		}
		return Route{Src: q.Src, Dst: q.Dst, SrcFabric: sf, DstFabric: df, Local: ans}, nil
	}
	if q.Tenant != "" || q.Group != 0 {
		return Route{}, ErrFederatedScope
	}

	sm, dm := r.members[sf].Ctrl, r.members[df].Ctrl
	wanGen := r.hub.Gen()

	r.mu.Lock()
	defer r.mu.Unlock()
	tok := fedEpoch{sm.Epoch(), dm.Epoch(), wanGen}
	if route, ok := r.cache.Get(fedKey{q.Src, q.Dst}, tok); ok {
		return *route, nil
	}
	route, err := r.compose(q, sf, df, sm, dm)
	if err != nil {
		return Route{}, err
	}
	r.cache.Put(fedKey{q.Src, q.Dst}, tok, route)
	return *route, nil
}

// compose builds an inter-fabric route: pick the healthiest WAN link by ID
// order (skipping downed links, crashed gateways, and — while an
// unflagged alternative could still exist — flagged links), then resolve
// the two local legs at the member controllers. Refusal on no live link is
// deliberate: a stale route over a dead WAN link would widen the blast
// radius of the failure.
func (r *Regional) compose(q controller.RouteQuery, sf, df int, sm, dm *controller.Controller) (*Route, error) {
	var chosen, flagged *WANLink
	for _, w := range r.links {
		if w.Peer(sf) != df && w.Peer(df) != sf {
			continue
		}
		if !w.Link.Up() || w.gatewayFor(sf).Down() || w.gatewayFor(df).Down() {
			continue
		}
		if r.hub.WANFlagged(w.ID) {
			if flagged == nil {
				flagged = w
			}
			continue
		}
		chosen = w
		break
	}
	if chosen == nil {
		chosen = flagged
	}
	if chosen == nil {
		r.refused++
		return nil, ErrNoWANPath
	}
	gwNear, gwFar := chosen.gatewayFor(sf), chosen.gatewayFor(df)
	route := &Route{
		Src: q.Src, Dst: q.Dst,
		SrcFabric: sf, DstFabric: df,
		Gateway: gwNear.MAC(), FarGateway: gwFar.MAC(),
		WAN: chosen.ID,
	}
	if q.Src != gwNear.MAC() {
		ans, err := sm.Resolve(controller.RouteQuery{Src: q.Src, Dst: gwNear.MAC(), Scope: controller.ScopeGlobal})
		if err != nil {
			return nil, err
		}
		route.SrcWire = ans.Wire
	}
	if q.Dst != gwFar.MAC() {
		ans, err := dm.Resolve(controller.RouteQuery{Src: gwFar.MAC(), Dst: q.Dst, Scope: controller.ScopeGlobal})
		if err != nil {
			return nil, err
		}
		route.DstWire = ans.Wire
	}
	return route, nil
}
