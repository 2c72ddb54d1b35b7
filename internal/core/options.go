package core

import (
	"errors"
	"fmt"
	"slices"

	"dumbnet/internal/chaos"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/trace"
)

// Option configures New:
//
//	n, err := core.New(t,
//	    core.WithSeed(42),
//	    core.WithTracer(rec),
//	    core.WithTenants(3),
//	    core.WithChaos(chaos.DefaultConfig(42)))
//	err = n.Bootstrap()
//	group, err := n.EnableReplicationAt([]core.MAC{h3, h7})
//	rep, err := n.RunChaos()
//
// Tenancy and telemetry are recorded at construction and applied when
// Bootstrap or Discover completes. Controller replication has one switch,
// EnableReplicationAt on the booted network. A chaos config is stored for
// RunChaos. Pairs of features that cannot run together are refused with
// ErrIncompatible, by the one table in refusals.
type Option func(*options)

type options struct {
	cfg       Config
	shards    int
	tracer    *trace.Recorder
	chaos     *chaos.Config
	policy    string // routing policy installed on every host; "" = default
	tenants   int    // -1 = virtualization off; 0 = manager only; n>0 = carve n tenants
	telemetry *telemetry.Config
	hybrid    *hybrid.Config
	fedEngine *sim.Engine // externally owned engine (withFederation)
}

func defaultOptions() options {
	return options{cfg: DefaultConfig(), tenants: -1}
}

// WithConfig replaces the whole bundled Config (seed, fabric, host,
// controller, controller placement). Later WithSeed and WithHostFlood
// options override their fields.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithSeed sets the simulation seed.
func WithSeed(seed int64) Option {
	return func(o *options) { o.cfg.Seed = seed }
}

// WithShards runs the deployment on n parallel simulation shards: the
// topology is auto-partitioned (topo.PartitionShards), switches and hosts
// land on their region's engine, and Run/RunFor advance all shards
// concurrently under the conservative window protocol. n <= 1 keeps the
// classic single-engine deployment (bit-identical to previous releases).
// Sharded runs refuse controller replication and WithHybridFlows (see
// refusals).
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithTracer attaches a flight recorder at construction. In a sharded run
// the recorder observes the controller's shard only (trace recorders are
// single-threaded); attach per-shard recorders via SimGroup for full
// coverage.
func WithTracer(rec *trace.Recorder) Option {
	return func(o *options) { o.tracer = rec }
}

// WithChaos stores a chaos scenario configuration; run it over the booted
// network with RunChaos.
func WithChaos(cfg chaos.Config) Option {
	return func(o *options) { o.chaos = &cfg }
}

// WithTenants enables network virtualization (§6.1) once the network
// boots: a vnet.Manager is installed on the controller and the
// non-controller hosts are carved into count equal tenants ("t000",
// "t001", ...), leaving any remainder hosts untenanted. count == 0 installs
// the manager with no tenants — create them at runtime (chaos churn does).
// EnableReplicationAt later re-points the manager at the replicated master
// and installs it on every replica. Federation members refuse it (see
// refusals).
func WithTenants(count int) Option {
	return func(o *options) { o.tenants = count }
}

// WithHostFlood toggles the hosts' stage-1 peer-to-peer link-event flood
// (§4.2). The flood costs O(hosts²) frames per link event, which dominates
// simulator memory on very large fabrics (k=16 fat-trees and beyond);
// turning it off leaves failure recovery to the switch's hop-limited
// hardware broadcast plus the controller's stage-2 patches, the same
// degraded mode the flood ablation experiment measures.
func WithHostFlood(on bool) Option {
	return func(o *options) { o.cfg.Host.DisableHostFlood = !on }
}

// WithPolicy installs a named host routing policy (host.PolicyNames:
// "single", "sticky", "rr", "flowlet", "ecn", "telemetry") on every host at
// construction.
func WithPolicy(name string) Option {
	return func(o *options) { o.policy = name }
}

// WithHybridFlows enables the hybrid packet/flow simulation mode: bulk
// transfers opened with Network.OpenFlow reserve their source route
// packet-side (path table, controller round-trip, retries) and then
// advance as fluid flows under max-min fair sharing inside the same event
// engine — the scaling mode that reaches k=32/k=64 fat-trees on one core.
// Control traffic, failure recovery and telemetry stay packet-accurate.
// Refused with WithShards and on federation members (see refusals). Pass
// hybrid.Config{} for defaults.
func WithHybridFlows(cfg hybrid.Config) Option {
	return func(o *options) { o.hybrid = &cfg }
}

// withFederation places the whole deployment on an externally owned engine
// — one shard of a federation's engine group — instead of creating its
// own. Federate passes it; the deployment is then one member fabric of a
// metro/WAN federation, and Run/RunFor on it advance the entire group.
func withFederation(eng *sim.Engine) Option {
	return func(o *options) { o.fedEngine = eng }
}

// WithTelemetry enables the online telemetry subsystem once the network
// boots: a streaming consumer taps each engine's flight recorder, windowed
// detectors publish verdicts to per-shard scoreboards, and Network.Telemetry
// returns the hub that merges them (snapshot, JSON and Prometheus
// exporters). Combine with WithPolicy("telemetry") to close the loop —
// agents then steer flows off scoreboard-flagged links. Applied after
// tenancy, so the heavy-hitter sketch sees tenant labels. On a federation
// member it starts once every member has booted, and the member's hub rolls
// up into Federation.Hub. Use telemetry.DefaultConfig() for standard
// thresholds.
func WithTelemetry(cfg telemetry.Config) Option {
	return func(o *options) { o.telemetry = &cfg }
}

// ErrIncompatible is wrapped by every refusal to combine two features. The
// message names both features and the reason.
var ErrIncompatible = errors.New("core: incompatible features")

// A feature is a switch some other switch refuses, named after the call
// that turns it on.
type feature string

const (
	featShards      feature = "WithShards"
	featHybrid      feature = "WithHybridFlows"
	featTelemetry   feature = "WithTelemetry"
	featTenants     feature = "WithTenants"
	featFederation  feature = "Federate"
	featReplication feature = "EnableReplicationAt"
)

// refusals is the one table of feature pairs a deployment refuses. New
// checks the construction options against it, EnableReplicationAt checks
// them plus replication. Every pair not listed is supported; DESIGN.md
// carries the full pair table and the pairwise test enforces it.
var refusals = []struct {
	a, b   feature
	reason string
}{
	{featShards, featReplication, "consensus timers are single-engine"},
	{featShards, featHybrid, "the fluid layer shares one engine clock"},
	{featFederation, featShards, "a member fabric lives whole on its federation shard"},
	{featFederation, featHybrid, "a member fabric does not own its engine clock"},
	{featFederation, featReplication, "a member fabric does not own its engine clock"},
	{featFederation, featTenants, "the regional resolver has no tenant scope and member isolation refuses cross-fabric pings"},
}

// refuse returns the first refused pair among the features on, wrapping
// ErrIncompatible, or nil.
func refuse(on []feature) error {
	for _, r := range refusals {
		if slices.Contains(on, r.a) && slices.Contains(on, r.b) {
			return fmt.Errorf("%w: %s with %s (%s)", ErrIncompatible, r.a, r.b, r.reason)
		}
	}
	return nil
}

// features lists the construction options that appear in refusals.
func (o *options) features() []feature {
	var on []feature
	if o.shards > 1 {
		on = append(on, featShards)
	}
	if o.hybrid != nil {
		on = append(on, featHybrid)
	}
	if o.telemetry != nil {
		on = append(on, featTelemetry)
	}
	if o.tenants >= 0 {
		on = append(on, featTenants)
	}
	if o.fedEngine != nil {
		on = append(on, featFederation)
	}
	return on
}
