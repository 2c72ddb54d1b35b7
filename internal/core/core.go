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
	"slices"
	"sync"

	"dumbnet/internal/chaos"
	"dumbnet/internal/controller"
	"dumbnet/internal/fabric"
	"dumbnet/internal/federation"
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

	cfg   Config
	recs  map[uint64]*hostRec // every host, the controller's too, by MAC.Uint64
	hosts []MAC               // non-controller hosts, MAC order

	// mu guards each record's recv and the cross-shard state below: in a
	// sharded run, dispatch fires from per-shard workers concurrently.
	mu        sync.Mutex
	pingSeq   uint64
	pingWait  map[uint64]func(rtt sim.Time)
	mcastSeq  uint64
	mcastWait map[uint64]func(member MAC)

	booted   bool
	features []feature // refusals features set at construction; EnableReplicationAt checks them
	group    *controller.ReplicaGroup
	simGroup *sim.ShardGroup // nil in single-engine runs
	chaosCfg *chaos.Config   // stored by WithChaos for RunChaos

	// fed is the federation this network is a member of, if any: Federate
	// writes it before the group first runs, so shard workers read it
	// without mu. Federated data and echoes land where intra-fabric ones do.
	fed *Federation

	// virtualization requested via options (WithTenants), applied when the
	// network boots.
	pendingTenants int // -1 = off
	vnet           *vnet.Manager

	// telemetry requested via options (WithTelemetry), applied when the
	// network boots — last, so the tenant resolver sees carved slices — or,
	// on a federation member, by Federate once every member has booted.
	pendingTelemetry *telemetry.Config
	hub              *telemetry.Hub

	// hybrid fluid-flow layer (WithHybridFlows); nil in pure packet mode.
	hybrid *hybrid.Layer

	// perpetual marks that self-rescheduling timers (consensus heartbeats,
	// telemetry flushes) keep the event queue non-empty forever; drains
	// become time-bounded.
	perpetual bool
}

// hostRec is what a network keeps about one host. The agent's OnData
// closure holds its own record, so a delivery looks nothing up.
type hostRec struct {
	agent *host.Agent
	recv  func(src MAC, payload []byte) // guarded by Network.mu
	gw    *federation.Gateway           // nil unless a border gateway
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
	// member networks.
	kindFedRelay
	kindFedDeliver
)

// New deploys a topology: switches and links come up, every host gets an
// agent, one host becomes the controller. Behaviour beyond the defaults is
// selected with functional options (WithSeed, WithShards, WithTenants,
// WithTracer, WithChaos, WithPolicy, ...); a pair of options the refusals
// table rules out is an ErrIncompatible. The network still needs Bootstrap
// (instant) or Discover (probe-based) before traffic flows; controller
// replication is then EnableReplicationAt.
func New(t *topo.Topology, opts ...Option) (*Network, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg
	features := o.features()
	if err := refuse(features); err != nil {
		return nil, err
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
		simGroup = sim.NewShardedEngine(cfg.Seed, o.shards)
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
	ctrlMAC := hosts[0].Host // the controller runs on the first host by MAC order
	n := &Network{
		Topo:             t,
		Fab:              fab,
		cfg:              cfg,
		recs:             make(map[uint64]*hostRec, len(hosts)),
		pingWait:         make(map[uint64]func(sim.Time)),
		mcastWait:        make(map[uint64]func(MAC)),
		features:         features,
		simGroup:         simGroup,
		chaosCfg:         o.chaos,
		pendingTenants:   o.tenants,
		pendingTelemetry: o.telemetry,
	}
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
		r := &hostRec{agent: agent}
		n.recs[at.Host.Uint64()] = r
		agent.OnData = func(src MAC, innerType uint16, payload []byte) {
			n.dispatch(r, src, payload)
		}
		if at.Host == ctrlMAC {
			n.Ctrl = controller.New(heng, agent, cfg.Controller)
			n.Eng = heng
		} else {
			n.hosts = append(n.hosts, at.Host)
		}
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

// Agent returns a host's agent (the controller's too), nil if unknown.
func (n *Network) Agent(m MAC) *host.Agent {
	if r := n.recs[m.Uint64()]; r != nil {
		return r.agent
	}
	return nil
}

// Bootstrap installs the topology as the controller's master view directly
// and delivers hello patches — the "statically configured" bring-up used
// when discovery time is not under test.
func (n *Network) Bootstrap() error {
	n.Ctrl.SetMaster(n.Topo.Clone())
	if err := n.Ctrl.Bootstrap(); err != nil {
		return err
	}
	n.Eng.Run()
	return n.finishBoot()
}

// finishBoot marks the network up and applies what the options deferred to
// boot, once: tenancy, then telemetry (so the tenant resolver sees carved
// slices). A federation member leaves its telemetry pending: the flush
// timers would keep the shared queues busy, and the next member's
// Bootstrap drains them to quiescence, so Federate starts it once every
// member has booted.
func (n *Network) finishBoot() error {
	n.booted = true
	tenants := n.pendingTenants
	n.pendingTenants = -1
	if err := n.bootTenancy(tenants); err != nil {
		return err
	}
	if slices.Contains(n.features, featFederation) {
		return nil
	}
	return n.startTelemetry()
}

// startTelemetry enables the telemetry WithTelemetry deferred to boot, once.
func (n *Network) startTelemetry() error {
	tele := n.pendingTelemetry
	if tele == nil {
		return nil
	}
	n.pendingTelemetry = nil
	_, err := n.EnableTelemetry(*tele)
	return err
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
	return report, n.finishBoot()
}

// reconfigureDiscovery rebuilds the controller with a new port bound.
func (n *Network) reconfigureDiscovery(maxPorts int) *controller.Controller {
	cfg := n.cfg.Controller
	cfg.Discovery.MaxPorts = maxPorts
	return controller.New(n.Eng, n.Ctrl.Agent, cfg)
}

// dispatch demultiplexes core-protocol payloads arriving at host at. In a
// sharded run it is called from per-shard workers, so shared state is
// locked and clocks are read from the receiving host's own engine.
func (n *Network) dispatch(at *hostRec, src MAC, payload []byte) {
	if len(payload) == 0 {
		return
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case kindData:
		n.deliver(at, src, body)
	case kindEchoReq:
		// Reply with the same token.
		_ = sendKind(at.agent, src, kindEchoRep, body)
	case kindEchoRep:
		if len(body) >= 8 {
			n.echoed(at, binary.BigEndian.Uint64(body))
		}
	case kindFedRelay:
		if at.gw != nil {
			at.gw.RelayOut(body)
		}
	case kindFedDeliver:
		if n.fed != nil {
			n.fed.handleDeliver(n, at, body)
		}
	case kindMcastProbe:
		if len(body) >= 8 {
			// Probe callbacks persist: they fire once per delivering member,
			// so duplicate deliveries are observable to the caller.
			n.mu.Lock()
			fn := n.mcastWait[binary.BigEndian.Uint64(body)]
			n.mu.Unlock()
			if fn != nil {
				fn(at.agent.MAC())
			}
		}
	}
}

// deliver hands a data payload arriving at host at to its sink. Intra-fabric
// frames and federation envelopes both end here.
func (n *Network) deliver(at *hostRec, src MAC, body []byte) {
	n.mu.Lock()
	fn := at.recv
	n.mu.Unlock()
	if fn != nil {
		fn(src, body)
	}
}

// expectEcho registers cb for the echo of a ping a is about to send and
// returns the ping's sequence number. RTT is measured on the source host's
// own clock: the echo comes back to a, so send and receive read the same
// shard's engine.
func (n *Network) expectEcho(a *host.Agent, cb func(rtt sim.Time)) uint64 {
	sentAt := a.Engine().Now()
	n.mu.Lock()
	n.pingSeq++
	seq := n.pingSeq
	n.pingWait[seq] = func(at sim.Time) { cb(at - sentAt) }
	n.mu.Unlock()
	return seq
}

// echoed completes ping seq, whose echo just reached host at.
func (n *Network) echoed(at *hostRec, seq uint64) {
	n.mu.Lock()
	fn := n.pingWait[seq]
	delete(n.pingWait, seq)
	n.mu.Unlock()
	if fn != nil {
		fn(at.agent.Engine().Now())
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
	r := n.recs[h.Uint64()]
	if r == nil {
		return ErrNoSuchHost
	}
	n.mu.Lock()
	r.recv = fn
	n.mu.Unlock()
	return nil
}

// Send delivers an application payload from src to dst (runs in virtual
// time; call Run to drain events).
func (n *Network) Send(src, dst MAC, payload []byte) error {
	a := n.Agent(src)
	if a == nil {
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
	a := n.Agent(src)
	if a == nil {
		return ErrNoSuchHost
	}
	if !n.booted {
		return ErrNotDeployed
	}
	head := seqHead(kindEchoReq, n.expectEcho(a, cb))
	return a.SendParts(dst, packet.EtherTypeIPv4, head[:], nil, host.FlowKey{Dst: dst})
}

// PingSync is Ping plus engine drain, returning the measured RTT.
func (n *Network) PingSync(src, dst MAC) (sim.Time, error) {
	return pingSync(n.Eng, n.perpetual, 100, n.Ping, src, dst)
}

// pingSync fires ping and drives d until the echo lands: a full drain, or,
// when perpetual timers keep the queue non-empty, at most steps slices of
// 10 ms.
func pingSync(d interface {
	Run()
	RunFor(sim.Time)
}, perpetual bool, steps int, ping func(src, dst MAC, cb func(sim.Time)) error, src, dst MAC) (sim.Time, error) {
	var rtt sim.Time = -1
	if err := ping(src, dst, func(r sim.Time) { rtt = r }); err != nil {
		return 0, err
	}
	if perpetual {
		for i := 0; i < steps && rtt < 0; i++ {
			d.RunFor(10 * sim.Millisecond)
		}
	} else {
		d.Run()
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
	a := n.Agent(src)
	if a == nil {
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

// SetPolicy installs a named routing policy (see host.PolicyNames) on
// one host.
func (n *Network) SetPolicy(h MAC, name string) error {
	a := n.Agent(h)
	if a == nil {
		return ErrNoSuchHost
	}
	_, err := a.UsePolicy(name)
	return err
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

// EnableReplicationAt promotes existing fabric-attached hosts to controller
// replicas of the bootstrap controller and routes every topology mutation
// through a consensus log (the paper's ZooKeeper role, §4.1/§4.2). The
// replicas answer path requests over the wire, so hosts fail over to them
// when the primary crashes; the replica list (with per-host paths) is
// advertised to every host. Call after Bootstrap or Discover: the current
// master view is proposed as the initial snapshot once a leader is
// elected. Sharded runs and federation members refuse it (see refusals).
func (n *Network) EnableReplicationAt(macs []MAC) (*controller.ReplicaGroup, error) {
	if !n.booted {
		return nil, ErrNotDeployed
	}
	if err := refuse(append(slices.Clip(n.features), featReplication)); err != nil {
		return nil, err
	}
	n.perpetual = true
	ctrls := []*controller.Controller{n.Ctrl}
	for _, m := range macs {
		if m == n.Ctrl.MAC() {
			continue
		}
		agent := n.Agent(m)
		if agent == nil {
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
	group := controller.BuildReplicaGroup(n.Eng, ctrls)
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
	// Put the manager on every replica so isolation survives failover; each
	// reads the slices against its own master.
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
			if a != b && !n.vnet.CrossDomain(a, b) {
				_ = n.Agent(a).WarmUp(b)
			}
		}
	}
	n.Run()
}
