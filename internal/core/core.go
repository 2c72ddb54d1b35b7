// Package core is the top-level DumbNet API: it deploys a complete fabric —
// dumb switches, host agents, a (optionally replicated) controller — over a
// topology, brings it up either by installed configuration or by real
// probe-message discovery, and offers traffic primitives (send, ping,
// transfer), failure injection, and the §6 extensions (flowlet TE, custom
// routes, virtualization, layer-3 routing) through one handle.
//
// Everything runs on a deterministic discrete-event simulator: virtual time
// is explicit (Run/RunFor), and a fixed seed reproduces a run exactly.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"dumbnet/internal/chaos"
	"dumbnet/internal/consensus"
	"dumbnet/internal/controller"
	"dumbnet/internal/fabric"
	"dumbnet/internal/host"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/vnet"
)

// MAC re-exports the host identity type.
type MAC = packet.MAC

// SwitchID re-exports the switch identity type.
type SwitchID = packet.SwitchID

// Config tunes a deployment.
type Config struct {
	Seed       int64
	Fabric     fabric.Config
	Host       host.Config
	Controller controller.Config
	// ControllerHost picks which topology host runs the controller
	// (zero value: the first host by MAC order).
	ControllerHost MAC
}

// DefaultConfig mirrors the paper's prototype: 10 GbE links, DPDK-like host
// datapath costs, k=4 cached paths.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		Fabric:     fabric.DefaultConfig(),
		Host:       host.DefaultConfig(),
		Controller: controller.DefaultConfig(),
	}
}

// Errors.
var (
	ErrNoSuchHost  = errors.New("core: no such host")
	ErrNotDeployed = errors.New("core: network not bootstrapped")
)

// Network is a deployed DumbNet fabric.
type Network struct {
	// Eng is the deployment's home engine: in a single-engine run, the one
	// engine; in a sharded run, the controller's shard. Run/RunFor on it
	// advance the whole group either way.
	Eng  *sim.Engine
	Topo *topo.Topology
	Fab  *fabric.Fabric
	Ctrl *controller.Controller

	cfg    Config
	agents map[MAC]*host.Agent
	hosts  []MAC // non-controller hosts, MAC order

	// mu guards the cross-shard maps below: in a sharded run, dispatch fires
	// from per-shard workers concurrently.
	mu        sync.Mutex
	receivers map[MAC]func(src MAC, payload []byte)
	pingSeq   uint64
	pingWait  map[uint64]func(rtt sim.Time)
	mcastSeq  uint64
	mcastWait map[uint64]func(member MAC)

	booted   bool
	group    *controller.ReplicaGroup
	simGroup *sim.ShardGroup // nil in single-engine runs
	chaosCfg *chaos.Config   // stored by WithChaos for RunChaos

	// federation hooks, installed by core.Federate before any traffic runs
	// and read (under mu: dispatch fires on shard workers) on the gateway
	// and destination hosts of federated envelopes. The sibling maps hold
	// this member's federated data sinks and in-flight federated echoes.
	fedRelay     func(at MAC, env []byte)
	fedDeliver   func(at MAC, env []byte)
	fedReceivers map[MAC]func(src MAC, payload []byte)
	fedSeq       uint64
	fedWait      map[uint64]func(rtt sim.Time)

	// replication requested via options, applied when the network boots.
	pendingReplicas   int
	pendingReplicasAt []MAC

	// virtualization requested via options (WithTenants), applied when the
	// network boots — after replication, so the manager tracks the
	// replicated master.
	pendingTenants int // -1 = off
	tenantCls      vnet.Class
	vnet           *vnet.Manager

	// telemetry requested via options (WithTelemetry), applied when the
	// network boots — last, so the tenant resolver sees carved slices.
	pendingTelemetry *telemetry.Config
	hub              *telemetry.Hub

	// hybrid fluid-flow layer (WithHybridFlows); nil in pure packet mode.
	hybrid *hybrid.Layer

	// perpetual marks that self-rescheduling timers (consensus heartbeats,
	// telemetry flushes) keep the event queue non-empty forever; drains
	// become time-bounded.
	perpetual bool
}

// Core-protocol payloads are one kind byte followed by a body. They are never
// assembled in a buffer of their own: the kind byte (plus, for echoes and
// probes, the sequence number) is the head of a two-part host send, the body
// the caller handed in is its second part, and both are written once, into
// the outgoing frame.
const (
	kindData byte = iota + 1
	kindEchoReq
	kindEchoRep
	kindMcastProbe
	// kindFedRelay carries a federation envelope from a local host to its
	// border gateway; kindFedDeliver carries one from the ingress gateway
	// to the local destination host. Both are only dispatched on federated
	// member networks (core.Federate installs the hooks).
	kindFedRelay
	kindFedDeliver
)

// New deploys a topology: switches and links come up, every host gets an
// agent, one host becomes the controller. Behaviour beyond the defaults is
// selected with functional options (WithSeed, WithShards, WithReplicasAt,
// WithTracer, WithChaos, WithPolicy, ...). The network still needs
// Bootstrap (instant) or Discover (probe-based) before traffic flows.
func New(t *topo.Topology, opts ...Option) (*Network, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg
	if o.shards > 1 && (o.replicas > 0 || len(o.replicasAt) > 0) {
		return nil, fmt.Errorf("core: WithShards(%d) cannot be combined with controller replication (consensus timers are single-engine)", o.shards)
	}
	if o.shards > 1 && o.hybrid != nil {
		return nil, fmt.Errorf("core: WithShards(%d) cannot be combined with WithHybridFlows (the fluid layer shares one engine clock)", o.shards)
	}
	if o.fedEngine != nil && (o.shards > 1 || o.hybrid != nil || o.replicas > 0 || len(o.replicasAt) > 0) {
		return nil, fmt.Errorf("core: WithFederation cannot be combined with WithShards, WithHybridFlows, or controller replication (a member fabric lives whole on its federation shard)")
	}

	var (
		eng      *sim.Engine
		simGroup *sim.ShardGroup
		fab      *fabric.Fabric
		err      error
	)
	if o.fedEngine != nil {
		// Federated member: the whole fabric on the supplied shard engine.
		eng = o.fedEngine
		fab, err = fabric.Build(eng, t, cfg.Fabric)
	} else if o.shards > 1 {
		simGroup = sim.NewShardedEngine(cfg.Seed, sim.Shards(o.shards))
		part := topo.PartitionShards(t, o.shards)
		fab, err = fabric.BuildSharded(simGroup, t, cfg.Fabric, part)
	} else {
		eng = sim.NewEngine(cfg.Seed)
		fab, err = fabric.Build(eng, t, cfg.Fabric)
	}
	if err != nil {
		return nil, err
	}
	hosts := t.Hosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: topology has no hosts")
	}
	ctrlMAC := cfg.ControllerHost
	if ctrlMAC.IsZero() {
		ctrlMAC = hosts[0].Host
	}
	n := &Network{
		Topo:              t,
		Fab:               fab,
		cfg:               cfg,
		agents:            make(map[MAC]*host.Agent, len(hosts)),
		receivers:         make(map[MAC]func(MAC, []byte)),
		pingWait:          make(map[uint64]func(sim.Time)),
		mcastWait:         make(map[uint64]func(MAC)),
		fedReceivers:      make(map[MAC]func(MAC, []byte)),
		fedWait:           make(map[uint64]func(sim.Time)),
		simGroup:          simGroup,
		chaosCfg:          o.chaos,
		pendingReplicas:   o.replicas,
		pendingReplicasAt: o.replicasAt,
		pendingTenants:    o.tenants,
		tenantCls:         o.tenantCls,
		pendingTelemetry:  o.telemetry,
	}
	found := false
	for _, at := range hosts {
		// In a sharded run each host lives on its attachment switch's shard.
		heng := eng
		if simGroup != nil {
			heng = fab.EngineFor(at.Switch)
		}
		agent := host.New(heng, at.Host, cfg.Host)
		l, err := fab.AttachHost(at.Host, agent)
		if err != nil {
			return nil, err
		}
		agent.SetUplink(l)
		if o.policy != "" {
			if _, err := agent.UsePolicy(o.policy); err != nil {
				return nil, err
			}
		}
		n.agents[at.Host] = agent
		mac := at.Host
		agent.OnData = func(src MAC, innerType uint16, payload []byte) {
			n.dispatch(mac, src, payload)
		}
		if at.Host == ctrlMAC {
			n.Ctrl = controller.New(heng, agent, cfg.Controller)
			n.Eng = heng
			found = true
		} else {
			n.hosts = append(n.hosts, at.Host)
		}
	}
	if !found {
		return nil, fmt.Errorf("core: controller host %v not in topology", ctrlMAC)
	}
	if o.tracer != nil {
		n.Eng.SetTracer(o.tracer)
	}
	if o.hybrid != nil {
		// Built after host attachment so every host link gets its watcher.
		ly, err := hybrid.New(n.Eng, fab, *o.hybrid)
		if err != nil {
			return nil, err
		}
		n.hybrid = ly
	}
	return n, nil
}

// Hosts lists the non-controller host MACs in deterministic order.
func (n *Network) Hosts() []MAC { return n.hosts }

// Agent returns a host's agent (including the controller's).
func (n *Network) Agent(m MAC) *host.Agent { return n.agents[m] }

// Bootstrap installs the topology as the controller's master view directly
// and delivers hello patches — the "statically configured" bring-up used
// when discovery time is not under test.
func (n *Network) Bootstrap() error {
	n.Ctrl.SetMaster(n.Topo.Clone())
	if err := n.Ctrl.Bootstrap(); err != nil {
		return err
	}
	n.Eng.Run()
	n.booted = true
	if err := n.applyPendingReplication(); err != nil {
		return err
	}
	if err := n.applyPendingTenancy(); err != nil {
		return err
	}
	return n.applyPendingTelemetry()
}

// applyPendingReplication stands up replication requested at construction
// (WithReplicas / WithReplicasAt) once the network has booted.
func (n *Network) applyPendingReplication() error {
	if n.pendingReplicas > 0 {
		total := n.pendingReplicas
		n.pendingReplicas = 0
		if _, err := n.EnableReplication(total); err != nil {
			return err
		}
	}
	if len(n.pendingReplicasAt) > 0 {
		macs := n.pendingReplicasAt
		n.pendingReplicasAt = nil
		if _, err := n.EnableReplicationAt(macs); err != nil {
			return err
		}
	}
	return nil
}

// Discover runs real probe-message topology discovery through the fabric,
// then bootstraps hosts. maxPorts bounds the per-switch port scan.
func (n *Network) Discover(maxPorts int) (controller.DiscoveryReport, error) {
	if maxPorts > 0 {
		n.Ctrl = n.reconfigureDiscovery(maxPorts)
	}
	tr := controller.NewFabricTransport(n.Ctrl)
	var report controller.DiscoveryReport
	var derr error
	done := false
	n.Ctrl.Discover(tr, func(r controller.DiscoveryReport, err error) {
		report, derr, done = r, err, true
	})
	n.Eng.Run()
	if !done {
		return report, fmt.Errorf("core: discovery did not complete")
	}
	if derr != nil {
		return report, derr
	}
	if err := n.Ctrl.Bootstrap(); err != nil {
		return report, err
	}
	n.Eng.Run()
	n.booted = true
	if err := n.applyPendingReplication(); err != nil {
		return report, err
	}
	if err := n.applyPendingTenancy(); err != nil {
		return report, err
	}
	return report, n.applyPendingTelemetry()
}

// reconfigureDiscovery rebuilds the controller with a new port bound.
func (n *Network) reconfigureDiscovery(maxPorts int) *controller.Controller {
	cfg := n.cfg.Controller
	cfg.Discovery.MaxPorts = maxPorts
	return controller.New(n.Eng, n.Ctrl.Agent, cfg)
}

// dispatch demultiplexes core-protocol payloads arriving at a host. In a
// sharded run it is called from per-shard workers, so shared maps are
// locked and clocks are read from the receiving host's own engine.
func (n *Network) dispatch(at, src MAC, payload []byte) {
	if len(payload) == 0 {
		return
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case kindData:
		n.mu.Lock()
		fn := n.receivers[at]
		n.mu.Unlock()
		if fn != nil {
			fn(src, body)
		}
	case kindEchoReq:
		// Reply with the same token.
		_ = sendKind(n.agents[at], src, kindEchoRep, body)
	case kindEchoRep:
		if len(body) >= 8 {
			var seq uint64
			for i := 0; i < 8; i++ {
				seq = seq<<8 | uint64(body[i])
			}
			n.mu.Lock()
			fn := n.pingWait[seq]
			delete(n.pingWait, seq)
			n.mu.Unlock()
			if fn != nil {
				fn(n.agents[at].Engine().Now())
			}
		}
	case kindFedRelay:
		n.mu.Lock()
		relay := n.fedRelay
		n.mu.Unlock()
		if relay != nil {
			relay(at, body)
		}
	case kindFedDeliver:
		n.mu.Lock()
		deliver := n.fedDeliver
		n.mu.Unlock()
		if deliver != nil {
			deliver(at, body)
		}
	case kindMcastProbe:
		if len(body) >= 8 {
			var seq uint64
			for i := 0; i < 8; i++ {
				seq = seq<<8 | uint64(body[i])
			}
			// Probe callbacks persist: they fire once per delivering member,
			// so duplicate deliveries are observable to the caller.
			n.mu.Lock()
			fn := n.mcastWait[seq]
			n.mu.Unlock()
			if fn != nil {
				fn(at)
			}
		}
	}
}

// sendKind sends one core-protocol message from a to dst.
func sendKind(a *host.Agent, dst MAC, kind byte, body []byte) error {
	head := [1]byte{kind}
	return a.SendParts(dst, packet.EtherTypeIPv4, head[:], body, host.FlowKey{Dst: dst})
}

// seqHead is the head of a sequence-numbered message (echo request,
// multicast probe): the kind byte and the big-endian sequence number.
func seqHead(kind byte, seq uint64) [9]byte {
	var h [9]byte
	h[0] = kind
	binary.BigEndian.PutUint64(h[1:], seq)
	return h
}

// OnReceive installs a data sink for a host. The payload handed to fn
// aliases the receive buffer, which is recycled when fn returns: it is valid
// only for the duration of the call, and a sink that keeps bytes must copy
// them.
func (n *Network) OnReceive(h MAC, fn func(src MAC, payload []byte)) error {
	if _, ok := n.agents[h]; !ok {
		return ErrNoSuchHost
	}
	n.mu.Lock()
	n.receivers[h] = fn
	n.mu.Unlock()
	return nil
}

// Send delivers an application payload from src to dst (runs in virtual
// time; call Run to drain events).
func (n *Network) Send(src, dst MAC, payload []byte) error {
	a, ok := n.agents[src]
	if !ok {
		return ErrNoSuchHost
	}
	if !n.booted {
		return ErrNotDeployed
	}
	return sendKind(a, dst, kindData, payload)
}

// Ping measures an application-level RTT: the echo reply hands back the
// arrival time via cb. Returns immediately; run the engine to resolve.
func (n *Network) Ping(src, dst MAC, cb func(rtt sim.Time)) error {
	a, ok := n.agents[src]
	if !ok {
		return ErrNoSuchHost
	}
	if !n.booted {
		return ErrNotDeployed
	}
	// RTT is measured on the source host's own clock: the echo reply comes
	// back to src, so send and receive read the same shard's engine.
	sentAt := a.Engine().Now()
	n.mu.Lock()
	n.pingSeq++
	seq := n.pingSeq
	n.pingWait[seq] = func(at sim.Time) { cb(at - sentAt) }
	n.mu.Unlock()
	head := seqHead(kindEchoReq, seq)
	return a.SendParts(dst, packet.EtherTypeIPv4, head[:], nil, host.FlowKey{Dst: dst})
}

// PingSync is Ping plus engine drain, returning the measured RTT.
func (n *Network) PingSync(src, dst MAC) (sim.Time, error) {
	var rtt sim.Time = -1
	if err := n.Ping(src, dst, func(r sim.Time) { rtt = r }); err != nil {
		return 0, err
	}
	if n.perpetual {
		for i := 0; i < 100 && rtt < 0; i++ {
			n.Eng.RunFor(10 * sim.Millisecond)
		}
	} else {
		n.Eng.Run()
	}
	if rtt < 0 {
		return 0, fmt.Errorf("core: ping %v->%v lost", src, dst)
	}
	return rtt, nil
}

// FailLink cuts the link between two adjacent switches.
func (n *Network) FailLink(a, b SwitchID) error { return n.Fab.FailLink(a, b) }

// RestoreLink brings a failed link back.
func (n *Network) RestoreLink(a, b SwitchID) error { return n.Fab.RestoreLink(a, b) }

// CrashSwitch power-fails a switch (all its links drop, frames are eaten).
func (n *Network) CrashSwitch(id SwitchID) error { return n.Fab.CrashSwitch(id) }

// RestartSwitch powers a crashed switch back on.
func (n *Network) RestartSwitch(id SwitchID) error { return n.Fab.RestartSwitch(id) }

// Drops aggregates every loss class across the fabric (link queues,
// impairments, switch drop reasons).
func (n *Network) Drops() fabric.DropCounters { return n.Fab.Drops() }

// Group returns the controller replica group, nil before replication is
// enabled.
func (n *Network) Group() *controller.ReplicaGroup { return n.group }

// Engine returns the deployment's home engine (the controller's shard in a
// sharded run). Part of the chaos.Target surface.
func (n *Network) Engine() *sim.Engine { return n.Eng }

// Topology returns the deployed physical topology.
func (n *Network) Topology() *topo.Topology { return n.Topo }

// Fabric returns the physical fabric.
func (n *Network) Fabric() *fabric.Fabric { return n.Fab }

// Controller returns the bootstrap (primary) controller.
func (n *Network) Controller() *controller.Controller { return n.Ctrl }

// SimGroup returns the sharded engine group, nil for single-engine runs.
func (n *Network) SimGroup() *sim.ShardGroup { return n.simGroup }

// Hybrid returns the fluid bulk-traffic layer, nil unless the network was
// constructed with WithHybridFlows.
func (n *Network) Hybrid() *hybrid.Layer { return n.hybrid }

// ErrNoHybrid is returned by OpenFlow on a pure packet-mode network.
var ErrNoHybrid = errors.New("core: hybrid mode not enabled (construct with WithHybridFlows)")

// OpenFlow starts a bulk transfer of `bytes` payload bytes from src to dst
// on the hybrid fluid layer. The route is reserved packet-side; the
// transfer then advances fluidly and onDone (optional) fires at its
// completion engine event. Run the engine to make progress.
func (n *Network) OpenFlow(src, dst MAC, bytes int64, onDone func(*hybrid.Flow)) (*hybrid.Flow, error) {
	if n.hybrid == nil {
		return nil, ErrNoHybrid
	}
	a, ok := n.agents[src]
	if !ok {
		return nil, ErrNoSuchHost
	}
	if !n.booted {
		return nil, ErrNotDeployed
	}
	return n.hybrid.Open(a, dst, bytes, host.FlowKey{Dst: dst, Proto: 0xFD}, onDone), nil
}

// RunChaos executes the chaos scenario stored by WithChaos over the booted
// network.
func (n *Network) RunChaos() (*chaos.Report, error) {
	if n.chaosCfg == nil {
		return nil, fmt.Errorf("core: no chaos configuration (construct with WithChaos)")
	}
	if !n.booted {
		return nil, ErrNotDeployed
	}
	return chaos.Run(n, *n.chaosCfg)
}

// SetPolicy installs a registered routing policy (see host.PolicyNames) on
// one host.
func (n *Network) SetPolicy(h MAC, name string) error {
	a, ok := n.agents[h]
	if !ok {
		return ErrNoSuchHost
	}
	_, err := a.UsePolicy(name)
	return err
}

// SetPolicyAll installs a registered routing policy on every host,
// controller included. Each host gets a fresh policy instance.
func (n *Network) SetPolicyAll(name string) error {
	for _, a := range n.agents {
		if _, err := a.UsePolicy(name); err != nil {
			return err
		}
	}
	return nil
}

// Run drains all pending virtual-time events. Once replication is enabled,
// heartbeat timers keep the queue non-empty forever, so Run advances a
// bounded settle window (1 virtual second) instead.
func (n *Network) Run() {
	if n.perpetual {
		n.Eng.RunFor(sim.Second)
		return
	}
	n.Eng.Run()
}

// RunFor advances virtual time by d.
func (n *Network) RunFor(d sim.Time) { n.Eng.RunFor(d) }

// EnableReplication stands up total-1 additional controller replicas and
// routes every topology mutation through a consensus log (the paper's
// ZooKeeper role, §4.1/§4.2). Call after Bootstrap; the current master view
// is proposed as the initial snapshot once a leader is elected. Returns the
// replica group; RunFor enough virtual time (seconds) for elections and
// replication to settle.
//
// Prefer constructing with WithReplicas(total), which applies this
// automatically after Bootstrap/Discover.
func (n *Network) EnableReplication(total int) (*controller.ReplicaGroup, error) {
	if !n.booted {
		return nil, ErrNotDeployed
	}
	if n.simGroup != nil {
		return nil, fmt.Errorf("core: controller replication is not supported in sharded runs")
	}
	if total < 1 {
		total = 3
	}
	n.perpetual = true
	ctrls := []*controller.Controller{n.Ctrl}
	for i := 1; i < total; i++ {
		mac := packet.MAC{0x02, 0xCC, 0, 0, 0, byte(i)}
		agent := host.New(n.Eng, mac, n.cfg.Host)
		ctrls = append(ctrls, controller.New(n.Eng, agent, n.cfg.Controller))
	}
	return n.finishReplication(ctrls)
}

// EnableReplicationAt promotes existing fabric-attached hosts to controller
// replicas of the bootstrap controller. Unlike EnableReplication's
// synthetic replicas (which have no uplink), these can actually answer
// path requests over the wire — so hosts can fail over to them when the
// primary crashes. The replica list (with per-host paths) is advertised to
// every host. Call after Bootstrap.
//
// Prefer constructing with WithReplicasAt(macs...), which applies this
// automatically after Bootstrap/Discover.
func (n *Network) EnableReplicationAt(macs []MAC) (*controller.ReplicaGroup, error) {
	if !n.booted {
		return nil, ErrNotDeployed
	}
	if n.simGroup != nil {
		return nil, fmt.Errorf("core: controller replication is not supported in sharded runs")
	}
	n.perpetual = true
	ctrls := []*controller.Controller{n.Ctrl}
	for _, m := range macs {
		if m == n.Ctrl.MAC() {
			continue
		}
		agent, ok := n.agents[m]
		if !ok {
			return nil, ErrNoSuchHost
		}
		ctrls = append(ctrls, controller.New(n.Eng, agent, n.cfg.Controller))
	}
	group, err := n.finishReplication(ctrls)
	if err != nil {
		return nil, err
	}
	if err := n.Ctrl.AdvertiseReplicas(group.MACs()); err != nil {
		return nil, err
	}
	n.RunFor(100 * sim.Millisecond)
	return group, nil
}

// finishReplication builds the consensus group, waits out the election, and
// replicates the bootstrap master as the initial snapshot.
func (n *Network) finishReplication(ctrls []*controller.Controller) (*controller.ReplicaGroup, error) {
	group := controller.BuildReplicaGroup(n.Eng, ctrls, consensus.DefaultConfig())
	// Elect, then replicate the snapshot from whichever replica leads.
	n.RunFor(2 * sim.Second)
	primary := group.Primary()
	if primary == nil {
		return nil, fmt.Errorf("core: no consensus leader after election window")
	}
	if err := group.ProposeSnapshot(primary, n.Ctrl.Master().Clone()); err != nil {
		return nil, err
	}
	n.RunFor(sim.Second)
	n.group = group
	// Snapshot replication replaced each replica's master object: re-point
	// an already-installed virtualization manager at the new master and put
	// the adapter on every replica so isolation survives failover.
	if n.vnet != nil {
		n.vnet.SetMaster(n.Ctrl.Master())
	}
	n.installVirtualization()
	return group, nil
}

// WarmAll pre-fetches path graphs for every host pair so experiments can
// separate cold-cache effects from steady state.
func (n *Network) WarmAll() {
	all := append([]MAC{n.Ctrl.MAC()}, n.hosts...)
	for _, a := range all {
		for _, b := range all {
			// Cross-domain warms would only burn their retry budget on
			// refusals, so virtualized deployments warm within domains.
			if a != b && !n.crossDomain(a, b) {
				_ = n.agents[a].WarmUp(b)
			}
		}
	}
	n.Run()
}

// WarmRoutes precomputes the controller's path-graph cache for every host
// pair across a worker pool, so the first wave of path requests after
// discovery hits warm entries. Returns the number of entries computed.
func (n *Network) WarmRoutes(workers int) int {
	if n.Ctrl == nil {
		return 0
	}
	return n.Ctrl.WarmPathCache(workers)
}
