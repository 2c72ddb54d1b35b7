package controller

import (
	"errors"

	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// The unified route-query API. The controller used to grow one lookup
// method per plane (global pair, tenant slice, multicast tree, each in a
// clone and a wire flavor); every new plane doubled the surface again.
// RouteQuery collapses them behind one request/response pair: callers say
// *what* they want routed and the controller resolves *which* plane
// answers. The federation layer extends the same request type with a
// fabric scope — an inter-fabric query carries ScopeFabric and is answered
// by the regional resolver, which composes local RouteAnswers from each
// member controller with a WAN hop. Resolve is the only lookup entry point.

// RouteScope selects which routing plane answers a query.
type RouteScope uint8

const (
	// ScopeAuto infers the plane: multicast if Group is set, the tenant
	// slice if Tenant is set or the source is a tenant member, otherwise
	// the global pair plane. This is what the in-fabric path-request
	// handler uses — it preserves slice isolation (an untenanted source
	// asking into a slice is refused, and vice versa).
	ScopeAuto RouteScope = iota
	// ScopeGlobal forces the global pair plane with no tenancy inference.
	// It is the operator plane: warm-up, audits, and benchmarks use it.
	ScopeGlobal
	// ScopeTenant forces the tenant slice plane; Tenant must be set.
	ScopeTenant
	// ScopeTree forces the multicast tree plane; Group must be set.
	ScopeTree
	// ScopeFabric marks an inter-fabric query. A local controller is not
	// authoritative for those — Resolve returns ErrFabricScope and the
	// caller must ask the federation regional resolver instead.
	ScopeFabric
)

// String names the scope for logs and error text.
func (s RouteScope) String() string {
	switch s {
	case ScopeAuto:
		return "auto"
	case ScopeGlobal:
		return "global"
	case ScopeTenant:
		return "tenant"
	case ScopeTree:
		return "tree"
	case ScopeFabric:
		return "fabric"
	default:
		return "invalid"
	}
}

// ErrFabricScope marks a ScopeFabric query reaching a local controller:
// only the federation regional resolver composes inter-fabric answers.
var ErrFabricScope = errors.New("controller: fabric-scoped query requires the federation regional resolver")

// ErrBadQuery marks a query whose fields contradict its scope (ScopeTenant
// without a tenant, ScopeTree without a group, a group on a unicast scope).
var ErrBadQuery = errors.New("controller: malformed route query")

// RouteQuery is the one request type for every route question a host, an
// operator, or the federation layer can ask.
type RouteQuery struct {
	// Src and Dst are the endpoint host MACs. Dst is ignored for tree
	// queries (the tree fans out from Src to the whole group).
	Src, Dst packet.MAC
	// Tenant selects the slice plane ("" = not a tenant query under
	// ScopeGlobal/ScopeTree; under ScopeAuto the tenant manager may still
	// infer a tenant from Src).
	Tenant string
	// Group selects the multicast tree plane (0 = unicast).
	Group mcast.GroupID
	// Scope picks the answering plane; the zero value ScopeAuto infers it.
	Scope RouteScope
}

// RouteAnswer is the one response type. It is returned by value and its
// fields alias cache-owned data, so a warm Resolve performs zero
// allocations; use Graph/Tree for a mutable copy.
type RouteAnswer struct {
	// Wire is the serialized answer — a path-graph blob for unicast
	// scopes (the MsgPathResponse body), a tree block for ScopeTree.
	// Shared across callers and immutable.
	Wire []byte
	// Scope is the plane that actually answered (never ScopeAuto).
	Scope RouteScope
	// Tenant is the slice that answered a ScopeTenant response ("" for
	// global and tree answers) — under ScopeAuto it reports the inferred
	// tenant.
	Tenant string

	// tags holds a tenant answer's primary and backup tag stacks (the
	// backup nil when it has none), replayed by the tenant route audit. A
	// pointer, so the answer every cache hit copies stays 64 bytes.
	tags *[2]packet.Path
	tree *mcast.Tree
}

// Graph decodes a unicast answer's Wire into a fresh path graph the caller
// may mutate; nil for tree answers. Decoding allocates a Subgraph, so hot
// paths should use Wire.
func (a RouteAnswer) Graph() *topo.PathGraph {
	if a.Scope == ScopeTree {
		return nil
	}
	pg, _ := topo.UnmarshalPathGraph(a.Wire) // nil if Wire holds none
	return pg
}

// Tree returns a mutable clone of a ScopeTree answer's distribution tree,
// nil for unicast answers.
func (a RouteAnswer) Tree() *mcast.Tree {
	if a.tree == nil {
		return nil
	}
	return a.tree.Clone()
}

// Resolve answers a route query from whichever plane its scope selects.
// Warm answers (cache hits on any plane) perform zero allocations. Resolve
// is authoritative for intra-fabric queries only; ScopeFabric returns
// ErrFabricScope.
func (c *Controller) Resolve(q RouteQuery) (RouteAnswer, error) {
	switch q.Scope {
	case ScopeAuto:
		if q.Group != 0 {
			return c.mcast.lookup(q.Group, q.Src)
		}
		if q.Tenant != "" {
			return c.routes.lookupTenant(q.Tenant, q.Src, q.Dst)
		}
		// Tenancy inference, exactly as the wire path-request handler has
		// always done it: a tenanted source is confined to its slice, and
		// an untenanted source may not route into one.
		if c.virt != nil {
			if tenant, ok := c.virt.TenantOf(q.Src); ok {
				q.Tenant = string(tenant)
				return c.routes.lookupTenant(q.Tenant, q.Src, q.Dst)
			}
			if _, ok := c.virt.TenantOf(q.Dst); ok {
				return RouteAnswer{}, ErrIsolated
			}
		}
		return c.routes.lookup(q.Src, q.Dst)
	case ScopeGlobal:
		if q.Group != 0 {
			return RouteAnswer{}, ErrBadQuery
		}
		return c.routes.lookup(q.Src, q.Dst)
	case ScopeTenant:
		if q.Tenant == "" || q.Group != 0 {
			return RouteAnswer{}, ErrBadQuery
		}
		return c.routes.lookupTenant(q.Tenant, q.Src, q.Dst)
	case ScopeTree:
		if q.Group == 0 {
			return RouteAnswer{}, ErrBadQuery
		}
		return c.mcast.lookup(q.Group, q.Src)
	case ScopeFabric:
		return RouteAnswer{}, ErrFabricScope
	default:
		return RouteAnswer{}, ErrBadQuery
	}
}
