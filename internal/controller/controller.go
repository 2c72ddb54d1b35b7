// Package controller implements the DumbNet centralized controller (paper
// §4): BFS topology discovery with probe messages, the path-graph service
// hosts query for routes, stage-2 failure handling (topology patches), and
// replication of the topology view across controller replicas through the
// consensus log (the ZooKeeper role in the paper).
//
// A controller is itself just a host: it embeds a host.Agent and speaks the
// same tag-routed control messages as everyone else. The switches never
// know it exists.
package controller

import (
	"errors"
	"fmt"
	"math/rand"

	"dumbnet/internal/consensus"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// Config tunes the controller.
type Config struct {
	// PathGraph sets the Algorithm-1 constants for issued path graphs.
	PathGraph topo.PathGraphOptions
	// RequestDelay models per-path-request processing cost.
	RequestDelay sim.Time
	// PatchDelay models per-host patch transmission processing cost.
	PatchDelay sim.Time
	// Discovery configures the prober.
	Discovery DiscoveryConfig
}

// DefaultConfig mirrors the prototype.
func DefaultConfig() Config {
	return Config{
		PathGraph:    topo.PathGraphOptions{S: 2, Epsilon: 1},
		RequestDelay: 3 * sim.Microsecond,
		PatchDelay:   2 * sim.Microsecond,
		Discovery:    DefaultDiscoveryConfig(),
	}
}

// Stats counts controller activity.
type Stats struct {
	PathRequests  uint64
	PathResponses uint64
	PathRefused   uint64 // tenant-policy rejections
	PatchesSent   uint64
	LinkEventsIn  uint64
	LinkDownsSeen uint64
	LinkUpsSeen   uint64
	Proposals     uint64
}

// removedLink remembers a failed link so a later link-up can restore it.
type removedLink struct {
	a  packet.SwitchID
	pa topo.Port
	b  packet.SwitchID
	pb topo.Port
}

// Controller is one controller instance (primary or replica).
type Controller struct {
	Agent *host.Agent
	eng   *sim.Engine
	cfg   Config
	rng   *rand.Rand

	master  *topo.Topology // authoritative topology view
	version uint64
	// graveyard maps (switch, port) of a removed link to its full record
	// so link-up events can restore it without re-probing.
	graveyard map[host.HopRef]removedLink

	// replica is the consensus node backing this controller, when
	// replication is enabled.
	replica *consensus.Node

	// probeSink intercepts discovery replies (installed by the active
	// FabricTransport).
	probeSink func(t packet.MsgType, msg any) bool

	// forward relays a log proposal to the current leader replica
	// (installed by BuildReplicaGroup).
	forward func(data []byte)

	// statsWaiting tracks outstanding switch-stats queries by sequence.
	statsWaiting map[uint64]statsPending
	statsSeq     uint64

	// virt, when set, restricts path answers per tenant (§6.1).
	virt Virtualizer

	// telemetry, when set, is the merged telemetry-hub view the controller
	// republishes (ctrl.telemetry.* metrics, snapshot exporters).
	telemetry TelemetryView

	// routes is the cached path-graph service behind handlePathRequest.
	routes *RouteService
	// mcast is the multicast group registry and tree cache.
	mcast *McastService
	// sc is the routing-kernel scratch both services compute misses on; they
	// run only on this controller's engine thread, so one serves both.
	sc *topo.DenseScratch
	// pathWaiters coalesces concurrent path requests per host pair: the
	// first request schedules the compute, later arrivals within the
	// processing window just queue their sequence numbers.
	pathWaiters map[pairKey][]uint64

	// down marks a crashed controller process: the embedded agent (the
	// host) stays alive, but every controller duty is ignored until
	// Restart. The backing consensus node crashes with it.
	down bool

	// ctrlListSeq versions replica-list advertisements.
	ctrlListSeq uint64

	// OnTopologyChange fires after the master view mutates.
	OnTopologyChange func(version uint64)

	stats Stats
}

// Errors.
var (
	ErrNoTopology = errors.New("controller: topology not discovered yet")
	ErrNotPrimary = errors.New("controller: not the primary replica")
	ErrIsolated   = errors.New("controller: destination is inside a tenant slice")
)

// New creates a controller owning the given agent.
func New(eng *sim.Engine, agent *host.Agent, cfg Config) *Controller {
	c := &Controller{
		Agent:       agent,
		eng:         eng,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(int64(agent.MAC()[5]) + 7)),
		graveyard:   make(map[host.HopRef]removedLink),
		pathWaiters: make(map[pairKey][]uint64),
		sc:          topo.NewDenseScratch(),
	}
	c.routes = newRouteService(c)
	c.mcast = newMcastService(c)
	agent.OnControl = c.onControl
	return c
}

// MAC returns the controller's host identity.
func (c *Controller) MAC() packet.MAC { return c.Agent.MAC() }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Master returns the controller's current topology view (nil before
// discovery or the first replicated snapshot).
func (c *Controller) Master() *topo.Topology { return c.master }

// Version returns the topology epoch.
func (c *Controller) Version() uint64 { return c.version }

// Epoch names one state of a controller's topology view: the topology
// object (SetMaster installs a new one), the controller's patch epoch, and
// the topology's own mutation generation. Every applied patch — link
// up/down, switch crash, host change — moves at least one of them, so an
// answer computed under one Epoch is valid exactly while the controller
// still reports an equal one. It is the controller's part of every
// generation-cache token (see DESIGN.md, "Generation cache").
type Epoch struct {
	top          *topo.Topology
	version, gen uint64
}

// Epoch returns the controller's current topology epoch.
func (c *Controller) Epoch() Epoch {
	ep := Epoch{top: c.master, version: c.version}
	if c.master != nil {
		ep.gen = c.master.Generation()
	}
	return ep
}

// SetMaster installs a topology view directly (used by replicas receiving a
// snapshot, and by tests).
func (c *Controller) SetMaster(t *topo.Topology) {
	c.master = t
	c.version++
}

// Crash kills the controller process (not the host under it): path
// requests and link events go unanswered and the backing consensus node,
// if any, stops participating — triggering a leader election among the
// surviving replicas.
func (c *Controller) Crash() {
	c.down = true
	if c.replica != nil {
		c.replica.Crash()
	}
}

// Restart revives a crashed controller. Its consensus node rejoins and
// catches up from the log.
func (c *Controller) Restart() {
	c.down = false
	if c.replica != nil {
		c.replica.Restart()
	}
}

// Down reports whether the controller process is crashed.
func (c *Controller) Down() bool { return c.down }

// onControl is the agent hook: the controller consumes path requests and
// link events; everything else falls through to the agent's own handling.
func (c *Controller) onControl(t packet.MsgType, msg any, from packet.MAC) bool {
	if c.down {
		// Crashed process: the host datapath still delivers, but nobody
		// is listening for controller messages. Path requests are
		// silently lost — exactly the failure hosts must survive. Link
		// events fall through so the host's own stage-1 handling (the
		// kernel-module half) keeps working.
		switch t {
		case packet.MsgPathRequest, packet.MsgStatsReply:
			return true
		}
		return false
	}
	if c.probeSink != nil && c.probeSink(t, msg) {
		return true
	}
	switch t {
	case packet.MsgPathRequest:
		c.handlePathRequest(msg.(*packet.PathRequest))
		return true
	case packet.MsgLinkEvent:
		c.handleLinkEvent(msg.(*packet.LinkEvent))
		return true // the controller does not re-flood host-style
	case packet.MsgHostFlood:
		if inner, imsg, err := decodeFloodBody(msg); err == nil {
			_ = inner
			c.handleLinkEvent(imsg)
		}
		return true
	case packet.MsgStatsReply:
		return c.handleStatsReply(msg.(*packet.StatsReply))
	}
	// Discovery replies are consumed by the active discovery session via
	// its own hook chain; everything else is the agent's business.
	return false
}

func decodeFloodBody(msg any) (packet.MsgType, *packet.LinkEvent, error) {
	blob, ok := msg.(*packet.Blob)
	if !ok {
		return packet.MsgInvalid, nil, packet.ErrBadControlMsg
	}
	t, inner, err := packet.DecodeControl(blob.Body)
	if err != nil || t != packet.MsgLinkEvent {
		return packet.MsgInvalid, nil, packet.ErrBadControlMsg
	}
	return t, inner.(*packet.LinkEvent), nil
}

// Virtualizer is the controller's hook into network virtualization
// (§6.1): tenant hosts receive path graphs restricted to their slice.
// *vnet.Manager implements it.
type Virtualizer interface {
	// TenantOf reports the tenant (if any) a host belongs to.
	TenantOf(h packet.MAC) (string, bool)
	// PathGraphFor builds a slice-restricted path graph, failing when the
	// endpoints are not both members.
	PathGraphFor(tenant string, src, dst packet.MAC) (*topo.PathGraph, error)
	// TenantGeneration reports the tenant's mutation counter; cached slice
	// answers are stale (and re-computed) once it moves.
	TenantGeneration(tenant string) (uint64, bool)
	// VerifyTenantRoute audits a tag route against the tenant's current
	// slice, rejecting any route that escapes it.
	VerifyTenantRoute(tenant string, src, dst packet.MAC, tags packet.Path) error
}

// topoSink receives applied topology mutations so slice views stay in step
// with the master. vnet.ControllerAdapter implements it; the controller
// type-asserts, so a minimal Virtualizer without patch propagation is still
// accepted.
type topoSink interface {
	ApplyLinkDown(sw packet.SwitchID, port packet.Tag)
	ApplyLinkUp(a packet.SwitchID, pa packet.Tag, b packet.SwitchID, pb packet.Tag)
	ApplySwitchDown(sw packet.SwitchID)
}

// SetVirtualization installs a tenant policy on the path service.
func (c *Controller) SetVirtualization(v Virtualizer) { c.virt = v }

// pathGraphWire returns the serialized path-graph answer for (src, dst): a
// ScopeAuto Resolve, which routes tenant members to the route service's
// per-tenant cache — slice-restricted answers keyed by (tenant, pair,
// topoGen, tenantGen) — and everything else to the global cache. Isolation
// is symmetric: an untenanted host asking for a route *into* a slice is
// refused too, so no cross-domain exchange can complete in either
// direction.
func (c *Controller) pathGraphWire(src, dst packet.MAC) ([]byte, error) {
	ans, err := c.Resolve(RouteQuery{Src: src, Dst: dst})
	if err != nil {
		if ans.Tenant != "" || errors.Is(err, ErrIsolated) {
			c.stats.PathRefused++
		}
		return nil, err
	}
	return ans.Wire, nil
}

// handlePathRequest queues a path request for the route service. Concurrent
// requests for the same (src, dst) pair arriving within the processing
// window coalesce onto one compute and one response batch.
func (c *Controller) handlePathRequest(req *packet.PathRequest) {
	if c.master == nil {
		return
	}
	c.stats.PathRequests++
	c.eng.Tracer().Ctrl(int64(c.eng.Now()), trace.CtrlGotRequest, c.MAC(), req.Src, req.Seq)
	key := pairKey{src: req.Src, dst: req.Dst}
	if seqs, open := c.pathWaiters[key]; open {
		c.pathWaiters[key] = append(seqs, req.Seq)
		c.routes.coalesced.Inc()
		return
	}
	c.pathWaiters[key] = []uint64{req.Seq}
	c.eng.After(c.cfg.RequestDelay, func() { c.answerPathRequests(key) })
}

// answerPathRequests serves every request coalesced under key: one path
// graph, one reply per queued sequence number.
func (c *Controller) answerPathRequests(key pairKey) {
	seqs := c.pathWaiters[key]
	delete(c.pathWaiters, key)
	if len(seqs) == 0 || c.master == nil {
		return
	}
	wire, err := c.pathGraphWire(key.src, key.dst)
	if err != nil {
		return
	}
	tags, err := c.master.HostPath(c.MAC(), key.src, c.rng)
	if err != nil {
		return
	}
	for _, seq := range seqs {
		body, err := packet.EncodeControl(packet.MsgPathResponse, &packet.Blob{Seq: seq, Body: wire})
		if err != nil {
			return
		}
		c.stats.PathResponses++
		c.eng.Tracer().Ctrl(int64(c.eng.Now()), trace.CtrlSentResponse, c.MAC(), key.src, seq)
		_ = c.Agent.SendFrame(key.src, tags, packet.EtherTypeControl, body)
	}
}

// handleLinkEvent is stage 2 (§4.2): update the master topology, replicate,
// and flood a topology patch to every host.
func (c *Controller) handleLinkEvent(ev *packet.LinkEvent) {
	if c.master == nil {
		return
	}
	c.stats.LinkEventsIn++
	c.eng.Tracer().Recovery(int64(c.eng.Now()), trace.RecoveryCtrlEvent, ev.Switch, ev.Port, ev.Up, c.MAC(), packet.MAC{})
	if ev.Up {
		c.stats.LinkUpsSeen++
		c.handleLinkUp(ev)
		return
	}
	c.stats.LinkDownsSeen++
	// Remove the link from the master view if still present.
	ep, err := c.master.EndpointAt(ev.Switch, ev.Port)
	if err != nil || ep.Kind != topo.EndpointSwitch {
		return // already removed (we hear each failure from both sides)
	}
	rl := removedLink{a: ev.Switch, pa: ev.Port, b: ep.Switch, pb: ep.Port}
	c.graveyard[host.HopRef{Switch: rl.a, Port: rl.pa}] = rl
	c.graveyard[host.HopRef{Switch: rl.b, Port: rl.pb}] = rl
	patch := &topo.Patch{Ops: []topo.PatchOp{{Kind: topo.OpLinkDown, Switch: ev.Switch, Port: ev.Port}}}
	c.commitPatch(patch)
}

// handleLinkUp restores a previously failed link. (A genuinely new link
// would be discovered by re-probing the port; restoring from the graveyard
// covers the paper's repair scenario without a full re-discovery.)
func (c *Controller) handleLinkUp(ev *packet.LinkEvent) {
	rl, ok := c.graveyard[host.HopRef{Switch: ev.Switch, Port: ev.Port}]
	if !ok {
		return
	}
	delete(c.graveyard, host.HopRef{Switch: rl.a, Port: rl.pa})
	delete(c.graveyard, host.HopRef{Switch: rl.b, Port: rl.pb})
	patch := &topo.Patch{Ops: []topo.PatchOp{{Kind: topo.OpLinkUp, A: rl.a, PA: rl.pa, B: rl.b, PB: rl.pb}}}
	c.commitPatch(patch)
}

// commitPatch applies a patch locally (and through consensus when enabled),
// then floods it to all hosts.
func (c *Controller) commitPatch(patch *topo.Patch) {
	if c.replica != nil {
		// Replicated mode: the mutation flows through the log; the commit
		// callback performs the local apply and (on the primary) the flood.
		c.stats.Proposals++
		if _, err := c.replica.Propose(encodeLogPatch(patch)); err != nil && c.forward != nil {
			// Not the leader: relay the proposal to whoever is.
			c.forward(encodeLogPatch(patch))
		}
		return
	}
	c.applyPatchLocal(patch)
	c.floodPatch(patch)
}

// applyPatchLocal mutates the master topology. Each applied op is mirrored
// into the virtualizer's topology sink (when it has one) so tenant views
// shrink with failures and heal with repairs; the sink calls are idempotent
// because every replica applies the same committed patches.
func (c *Controller) applyPatchLocal(patch *topo.Patch) {
	sink, _ := c.virt.(topoSink)
	for _, op := range patch.Ops {
		switch op.Kind {
		case topo.OpLinkDown:
			if ep, err := c.master.EndpointAt(op.Switch, op.Port); err == nil && ep.Kind == topo.EndpointSwitch {
				_ = c.master.Disconnect(op.Switch, op.Port)
			}
			if sink != nil {
				sink.ApplyLinkDown(op.Switch, op.Port)
			}
		case topo.OpLinkUp:
			_ = c.master.Connect(op.A, op.PA, op.B, op.PB)
			if sink != nil {
				sink.ApplyLinkUp(op.A, op.PA, op.B, op.PB)
			}
		case topo.OpHostAdd:
			_ = c.master.AttachHost(op.Attach.Host, op.Attach.Switch, op.Attach.Port)
		case topo.OpSwitchDown:
			_ = c.master.RemoveSwitch(op.Switch)
			if sink != nil {
				sink.ApplySwitchDown(op.Switch)
			}
		}
	}
	c.version++
	if len(patch.Ops) > 0 {
		op := patch.Ops[0]
		c.eng.Tracer().Recovery(int64(c.eng.Now()), trace.RecoveryPatch, op.Switch, op.Port, op.Kind == topo.OpLinkUp, c.MAC(), packet.MAC{})
	}
	if c.OnTopologyChange != nil {
		c.OnTopologyChange(c.version)
	}
}

// floodPatch unicasts a versioned patch to every host in the master view.
func (c *Controller) floodPatch(patch *topo.Patch) {
	patch.Version = c.version
	body, err := packet.EncodeControl(packet.MsgTopoPatch, &packet.Blob{Body: patch.Marshal()})
	if err != nil {
		return
	}
	delay := sim.Time(0)
	for _, at := range c.master.Hosts() {
		if at.Host == c.MAC() {
			continue
		}
		tags, err := c.master.HostPath(c.MAC(), at.Host, c.rng)
		if err != nil {
			continue
		}
		dst := at.Host
		delay += c.cfg.PatchDelay
		c.stats.PatchesSent++
		c.eng.After(delay, func() {
			_ = c.Agent.SendFrame(dst, tags, packet.EtherTypeControl, body)
		})
	}
}

// Bootstrap sends every discovered host its hello patch: its own attachment
// point, the controller identity, and the tag path back to the controller.
// Call after discovery (or SetMaster).
func (c *Controller) Bootstrap() error {
	if c.master == nil {
		return ErrNoTopology
	}
	// The controller's own agent is its own client: it reaches the
	// controller process over the local loopback (empty tag path).
	if at, err := c.master.HostAt(c.MAC()); err == nil {
		c.Agent.SetBootstrap(at, c.MAC(), nil)
	}
	for _, at := range c.master.Hosts() {
		if at.Host == c.MAC() {
			continue
		}
		ctrlPath, err := c.master.HostPath(at.Host, c.MAC(), nil)
		if err != nil {
			continue // unreachable host; it will be patched in later
		}
		hello := &topo.Patch{
			Version: c.version,
			Ops: []topo.PatchOp{{
				Kind:     topo.OpHello,
				Attach:   at,
				Ctrl:     c.MAC(),
				CtrlPath: ctrlPath,
			}},
		}
		body, err := packet.EncodeControl(packet.MsgTopoPatch, &packet.Blob{Body: hello.Marshal()})
		if err != nil {
			return err
		}
		tags, err := c.master.HostPath(c.MAC(), at.Host, nil)
		if err != nil {
			continue
		}
		if err := c.Agent.SendFrame(at.Host, tags, packet.EtherTypeControl, body); err != nil {
			return err
		}
	}
	return nil
}

// AdvertiseReplicas unicasts the ordered controller replica list to every
// host in the master view (MsgCtrlList), including a per-host tag path to
// each replica so a host can still reach a backup after the primary dies.
// Replicas unreachable from a given host are omitted from that host's list.
func (c *Controller) AdvertiseReplicas(replicas []packet.MAC) error {
	if c.master == nil {
		return ErrNoTopology
	}
	c.ctrlListSeq++
	for _, at := range c.master.Hosts() {
		list := &packet.CtrlList{Seq: c.ctrlListSeq}
		for _, r := range replicas {
			var p packet.Path
			if r != at.Host {
				tags, err := c.master.HostPath(at.Host, r, nil)
				if err != nil {
					continue
				}
				p = tags
			}
			list.Replicas = append(list.Replicas, packet.CtrlReplica{MAC: r, Path: p})
		}
		if len(list.Replicas) == 0 {
			continue
		}
		body, err := packet.EncodeControl(packet.MsgCtrlList, list)
		if err != nil {
			return err
		}
		if at.Host == c.MAC() {
			_ = c.Agent.SendFrame(at.Host, nil, packet.EtherTypeControl, body)
			continue
		}
		tags, err := c.master.HostPath(c.MAC(), at.Host, nil)
		if err != nil {
			continue
		}
		_ = c.Agent.SendFrame(at.Host, tags, packet.EtherTypeControl, body)
	}
	return nil
}

// --- Replication ------------------------------------------------------

// logEntryKind discriminates replicated log entries.
const (
	logSnapshot byte = 1
	logPatch    byte = 2
)

func encodeLogSnapshot(t *topo.Topology) []byte {
	return append([]byte{logSnapshot}, t.Marshal()...)
}

func encodeLogPatch(p *topo.Patch) []byte {
	return append([]byte{logPatch}, p.Marshal()...)
}

// ReplicaGroup keeps several controllers' topology views consistent through
// one consensus cluster: every mutation is proposed to the log and applied
// by each replica on commit.
type ReplicaGroup struct {
	Cluster     *consensus.Cluster
	controllers []*Controller
}

// NewReplicaGroup wires controllers[i] to consensus node i. The cluster
// must be created with the group's Apply function; use BuildReplicaGroup
// for the common case.
func BuildReplicaGroup(eng *sim.Engine, controllers []*Controller, ccfg consensus.Config) *ReplicaGroup {
	g := &ReplicaGroup{controllers: controllers}
	g.Cluster = consensus.NewCluster(eng, len(controllers), ccfg, g.apply)
	for i, ctrl := range controllers {
		ctrl.replica = g.Cluster.Node(consensus.NodeID(i))
		ctrl.forward = func(data []byte) {
			if p := g.Primary(); p != nil {
				_, _ = p.replica.Propose(data)
			}
		}
	}
	return g
}

// Primary returns the controller whose consensus node currently leads, or
// nil during elections.
func (g *ReplicaGroup) Primary() *Controller {
	l := g.Cluster.Leader()
	if l == nil {
		return nil
	}
	return g.controllers[int(l.ID())]
}

// Controllers returns the group's members in consensus-node order.
func (g *ReplicaGroup) Controllers() []*Controller { return g.controllers }

// MACs lists the members' host identities in consensus-node order — the
// list AdvertiseReplicas pushes to hosts.
func (g *ReplicaGroup) MACs() []packet.MAC {
	out := make([]packet.MAC, 0, len(g.controllers))
	for _, c := range g.controllers {
		out = append(out, c.MAC())
	}
	return out
}

// ProposeSnapshot replicates a full topology snapshot (the discovery
// result) through the log. Must be called on the primary.
func (g *ReplicaGroup) ProposeSnapshot(from *Controller, t *topo.Topology) error {
	if from.replica == nil {
		return ErrNotPrimary
	}
	from.stats.Proposals++
	_, err := from.replica.Propose(encodeLogSnapshot(t))
	return err
}

// apply is the consensus commit callback: every replica applies entries in
// log order; the current primary additionally floods patches to hosts.
func (g *ReplicaGroup) apply(id consensus.NodeID, e consensus.Entry) {
	ctrl := g.controllers[int(id)]
	if len(e.Data) < 1 {
		return
	}
	switch e.Data[0] {
	case logSnapshot:
		t, err := topo.UnmarshalTopology(e.Data[1:])
		if err != nil {
			return
		}
		ctrl.master = t
		ctrl.version++
		if ctrl.OnTopologyChange != nil {
			ctrl.OnTopologyChange(ctrl.version)
		}
	case logPatch:
		p, err := topo.UnmarshalPatch(e.Data[1:])
		if err != nil || ctrl.master == nil {
			return
		}
		ctrl.applyPatchLocal(p)
		if ctrl.replica.Role() == consensus.Leader {
			ctrl.floodPatch(p)
		}
	}
}

// String renders a short status line.
func (c *Controller) String() string {
	n := 0
	if c.master != nil {
		n = c.master.NumSwitches()
	}
	return fmt.Sprintf("controller %v v%d (%d switches)", c.MAC(), c.version, n)
}
