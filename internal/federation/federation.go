// Package federation interconnects independently built DumbNet fabrics
// over high-latency metro/WAN links into one addressable deployment — the
// hierarchical control plane the paper's single-fabric design stops short
// of. Each member fabric keeps its own controller, which stays
// authoritative for intra-fabric route queries; a Regional resolver answers
// inter-fabric queries by composing local path-graph answers from the two
// member controllers with a WAN hop between border gateways, under its own
// generation-invalidated cache. A RegionalHub tracks WAN-link health and
// rolls the member hubs' flag counts up into one federation count, and
// gateway selection steers inter-fabric traffic across
// alternate gateways when a WAN link is flagged or down.
//
// The simulation substrate maps one member fabric to one shard engine of a
// sim.ShardGroup: the WAN propagation delay becomes the group's cross-shard
// lookahead, so federated runs get wide conservative windows and real shard
// parallelism — milliseconds of WAN latency buy thousands of times the
// lookahead a single fabric's 500ns links allow.
//
// The package deliberately does not import core or chaos: core embeds it
// (core.Federate) and supplies the host-side dispatch glue; chaos drives it
// through an interface.
package federation

import "errors"

// Errors.
var (
	// ErrUnknownHost marks a query endpoint that no member fabric owns.
	ErrUnknownHost = errors.New("federation: host not in any member fabric")
	// ErrNoWANPath marks an inter-fabric query with no usable WAN link:
	// every candidate is down or terminates at a crashed gateway. The
	// resolver refuses rather than answering stale (never-widen).
	ErrNoWANPath = errors.New("federation: no live WAN path between fabrics")
	// ErrFederatedScope marks an inter-fabric query carrying a tenant or
	// multicast group: those planes are fabric-local in this design.
	ErrFederatedScope = errors.New("federation: tenant and multicast scopes do not federate")
)
