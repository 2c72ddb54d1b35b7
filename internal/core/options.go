package core

import (
	"dumbnet/internal/chaos"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/trace"
	"dumbnet/internal/vnet"
)

// Option configures New. The functional-options constructor replaces the
// former pattern of building a Network and then calling post-hoc mutators
// (EnableReplication, EnableReplicationAt, manual tracer attachment):
//
//	n, err := core.New(t,
//	    core.WithSeed(42),
//	    core.WithTracer(rec),
//	    core.WithReplicasAt(h3, h7),
//	    core.WithChaos(chaos.DefaultConfig(42)))
//
// Replication options are recorded at construction and applied
// automatically when Bootstrap or Discover completes (replication requires
// a booted network). A chaos config is stored for RunChaos.
type Option func(*options)

type options struct {
	cfg        Config
	shards     int
	replicas   int   // synthetic replicas (WithReplicas); 0 = off
	replicasAt []MAC // fabric-attached replicas (WithReplicasAt)
	tracer     *trace.Recorder
	chaos      *chaos.Config
	policy     string     // routing policy installed on every host; "" = default
	tenants    int        // -1 = virtualization off; 0 = manager only; n>0 = carve n tenants
	tenantCls  vnet.Class // degradation class for carved tenants
	telemetry  *telemetry.Config
	hybrid     *hybrid.Config
	fedEngine  *sim.Engine // externally owned engine (WithFederation)
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
// Sharded runs currently exclude controller replication (consensus timers
// are single-engine) — combining them is a construction error.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithReplicas stands up total-1 synthetic controller replicas (no fabric
// uplink — consensus-only, as EnableReplication did) once the network
// boots.
func WithReplicas(total int) Option {
	return func(o *options) { o.replicas = total }
}

// WithReplicasAt promotes the given fabric-attached hosts to controller
// replicas once the network boots, and advertises the replica list to every
// host (as EnableReplicationAt did).
func WithReplicasAt(macs ...MAC) Option {
	return func(o *options) { o.replicasAt = append([]MAC(nil), macs...) }
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
// boots: a vnet.Manager is installed on the controller(s) and the
// non-controller hosts are carved into count equal tenants ("t000",
// "t001", ...). count == 0 installs the manager with no tenants — create
// them at runtime (chaos churn does). Applied after replication setup so
// the manager tracks the replicated master.
func WithTenants(count int) Option {
	return func(o *options) { o.tenants = count }
}

// WithTenantClass sets the degradation class (routing policy, path-query
// retry budget) applied to tenants carved by WithTenants.
func WithTenantClass(class vnet.Class) Option {
	return func(o *options) { o.tenantCls = class }
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

// WithPolicy installs a registered host routing policy (host.PolicyNames:
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
// Incompatible with WithShards (the fluid layer shares one engine clock);
// combining them is a construction error. Pass hybrid.Config{} for
// defaults.
func WithHybridFlows(cfg hybrid.Config) Option {
	return func(o *options) { o.hybrid = &cfg }
}

// WithFederation places the whole deployment on an externally owned engine
// — in practice one shard of a federation's engine group (core.Federate) —
// instead of creating its own. The deployment is then one member fabric of
// a metro/WAN federation: Run/RunFor on it advance the entire group.
// Incompatible with WithShards, WithHybridFlows, and controller
// replication (each assumes the deployment owns its engine); combining
// them is a construction error.
func WithFederation(eng *sim.Engine) Option {
	return func(o *options) { o.fedEngine = eng }
}

// WithTelemetry enables the online telemetry subsystem once the network
// boots: a streaming consumer taps each engine's flight recorder, windowed
// detectors publish verdicts to per-shard scoreboards, and the controller
// exposes the merged view (ctrl.telemetry.* metrics, snapshot exporters).
// Combine with WithPolicy("telemetry") to close the loop — agents then
// steer flows off scoreboard-flagged links. Applied after replication and
// tenancy, so the heavy-hitter sketch sees tenant labels. Use
// telemetry.DefaultConfig() for standard thresholds.
func WithTelemetry(cfg telemetry.Config) Option {
	return func(o *options) { o.telemetry = &cfg }
}
