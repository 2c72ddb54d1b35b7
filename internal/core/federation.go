package core

import (
	"fmt"

	"dumbnet/internal/controller"
	"dumbnet/internal/federation"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
)

// Metro/WAN federation: Federate interconnects independently specified
// DumbNet fabrics over high-latency WAN links into one deployment. Each
// member fabric is a full core.Network — its own switches, hosts, and
// authoritative local controller — living whole on one shard engine of a
// shared sim.ShardGroup; the WAN links are the only cross-shard links, so
// their propagation delay becomes the conservative lookahead and federated
// runs parallelize across fabrics. A federation.Regional resolver answers
// inter-fabric route queries by composing member answers with a WAN hop,
// and a federation.RegionalHub rolls member telemetry up under the
// WAN-link health plane.

// FabricSpec describes one member fabric to Federate.
type FabricSpec struct {
	// Name labels the member ("fab<i>" when empty).
	Name string
	// Topo is the member's physical topology. Federate relabels it with a
	// per-member switch-ID and MAC offset (topo.Offset) so members built
	// from the same generator do not collide; callers address hosts by the
	// relabeled MACs (Federation.Hosts / Network.Hosts).
	Topo *topo.Topology
	// Opts are passed through to core.New (WithFederation is appended).
	Opts []Option
}

// FederationConfig tunes Federate.
type FederationConfig struct {
	// Seed seeds the shared engine group.
	Seed int64
	// WAN configures every WAN link. PropDelay must be positive (it is the
	// cross-shard lookahead); the default models a metro interconnect:
	// 5 ms propagation, 10 Gb/s.
	WAN sim.LinkConfig
	// Gateways is how many border gateways each member designates — and
	// thus how many parallel WAN links each fabric pair gets (default 2,
	// so a WAN failure has an alternate).
	Gateways int
	// Telemetry, when set, enables per-member telemetry and rolls the
	// member hubs up into the regional hub.
	Telemetry *telemetry.Config
}

// DefaultFederationConfig returns the standard metro federation tuning.
func DefaultFederationConfig(seed int64) FederationConfig {
	return FederationConfig{
		Seed:     seed,
		WAN:      sim.LinkConfig{PropDelay: 5 * sim.Millisecond, BandwidthBps: 10e9},
		Gateways: 2,
	}
}

func (c FederationConfig) withDefaults() FederationConfig {
	if c.WAN.PropDelay <= 0 {
		c.WAN.PropDelay = 5 * sim.Millisecond
	}
	if c.WAN.BandwidthBps == 0 {
		c.WAN.BandwidthBps = 10e9
	}
	if c.Gateways <= 0 {
		c.Gateways = 2
	}
	return c
}

// fabricStride separates member switch-ID and MAC namespaces: member i's
// switches and host addresses are offset by i<<20, far above any single
// fabric's population.
const fabricStride = 1 << 20

// Federation is a deployed multi-fabric federation.
type Federation struct {
	cfg      FederationConfig
	group    *sim.ShardGroup
	nets     []*Network
	names    []string
	gateways [][]*federation.Gateway
	gwByHost map[MAC]*federation.Gateway
	wans     []*federation.WANLink
	regional *federation.Regional
	hub      *federation.RegionalHub

	perpetual bool
}

// Federate builds, interconnects, and bootstraps a federation of two or
// more member fabrics. Member i runs on shard i of a shared engine group;
// between every fabric pair, cfg.Gateways WAN links are wired gateway-to-
// gateway (the last cfg.Gateways hosts of each member, by MAC order, are
// its border gateways). The returned federation is booted and ready for
// traffic.
func Federate(cfg FederationConfig, specs ...FabricSpec) (*Federation, error) {
	cfg = cfg.withDefaults()
	if len(specs) < 2 {
		return nil, fmt.Errorf("core: a federation needs at least 2 member fabrics, got %d", len(specs))
	}
	if len(specs) > fabricStride {
		return nil, fmt.Errorf("core: too many member fabrics (%d)", len(specs))
	}
	group := sim.NewShardedEngine(cfg.Seed, sim.Shards(len(specs)))
	f := &Federation{
		cfg:      cfg,
		group:    group,
		gwByHost: make(map[MAC]*federation.Gateway),
	}

	// Build every member on its shard, with disjoint ID/MAC namespaces.
	for i, spec := range specs {
		if spec.Topo == nil {
			return nil, fmt.Errorf("core: member %d has no topology", i)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("fab%d", i)
		}
		t, err := topo.Offset(spec.Topo, packet.SwitchID(i)*fabricStride, uint64(i)*fabricStride)
		if err != nil {
			return nil, fmt.Errorf("core: relabel member %s: %w", name, err)
		}
		opts := append(append([]Option(nil), spec.Opts...), WithFederation(group.Shard(i)))
		n, err := New(t, opts...)
		if err != nil {
			return nil, fmt.Errorf("core: build member %s: %w", name, err)
		}
		if len(n.Hosts()) < cfg.Gateways+1 {
			return nil, fmt.Errorf("core: member %s has %d non-controller hosts, needs at least %d (gateways + 1)",
				name, len(n.Hosts()), cfg.Gateways+1)
		}
		f.nets = append(f.nets, n)
		f.names = append(f.names, name)
	}

	// Designate gateways and wire the WAN while the group is idle (the
	// cross-shard links must register before the first window runs).
	pairs := len(specs) * (len(specs) - 1) / 2
	f.hub = federation.NewRegionalHub(pairs * cfg.Gateways)
	for i, n := range f.nets {
		hosts := n.Hosts()
		gws := make([]*federation.Gateway, cfg.Gateways)
		for g := 0; g < cfg.Gateways; g++ {
			mac := hosts[len(hosts)-cfg.Gateways+g]
			gws[g] = federation.NewGateway(i, mac, f.hub)
			f.gwByHost[mac] = gws[g]
		}
		f.gateways = append(f.gateways, gws)
	}
	id := 0
	for i := range f.nets {
		for j := i + 1; j < len(f.nets); j++ {
			for g := 0; g < cfg.Gateways; g++ {
				w := federation.NewWANLink(id, f.gateways[i][g], f.gateways[j][g],
					group.Shard(i), group.Shard(j), cfg.WAN)
				f.hub.WatchWAN(w)
				f.wans = append(f.wans, w)
				id++
			}
		}
	}

	// Stand up the regional control plane and the datapath glue.
	f.regional = federation.NewRegional(f.hub, f.wans)
	for i, n := range f.nets {
		all := append([]MAC{n.Ctrl.MAC()}, n.Hosts()...)
		f.regional.AddMember(f.names[i], n.Ctrl, f.gateways[i], all)

		mem := n
		mem.mu.Lock()
		mem.fedRelay = func(at MAC, env []byte) {
			if gw := f.gwByHost[at]; gw != nil {
				gw.RelayOut(env)
			}
		}
		mem.fedDeliver = f.handleDeliver
		mem.mu.Unlock()
		for _, gw := range f.gateways[i] {
			gwAgent := mem.agents[gw.MAC()]
			gw.SetDeliver(func(dst MAC, env []byte) {
				_ = sendKind(gwAgent, dst, kindFedDeliver, env)
			})
		}
	}

	// Boot every member. Each Bootstrap drains the whole group; members
	// not yet booted just idle through it. Telemetry is enabled only after
	// the last bootstrap: its periodic flush timers keep the event queues
	// perpetually non-empty, and Bootstrap's quiescence-draining Run would
	// never return with one already armed on an earlier member's shard.
	for i, n := range f.nets {
		if err := n.Bootstrap(); err != nil {
			return nil, fmt.Errorf("core: bootstrap member %s: %w", f.names[i], err)
		}
	}
	for i, n := range f.nets {
		if cfg.Telemetry != nil {
			if _, err := n.EnableTelemetry(*cfg.Telemetry); err != nil {
				return nil, fmt.Errorf("core: telemetry for member %s: %w", f.names[i], err)
			}
			f.perpetual = true
		}
		f.hub.AddMember(f.names[i], n.hub)
	}
	return f, nil
}

// NumFabrics returns the member count.
func (f *Federation) NumFabrics() int { return len(f.nets) }

// Network returns member i's deployment.
func (f *Federation) Network(i int) *Network { return f.nets[i] }

// Name returns member i's label.
func (f *Federation) Name(i int) string { return f.names[i] }

// Regional returns the federation's root route resolver.
func (f *Federation) Regional() *federation.Regional { return f.regional }

// Hub returns the rolled-up federation telemetry/health hub.
func (f *Federation) Hub() *federation.RegionalHub { return f.hub }

// SimGroup returns the shared engine group (one shard per member fabric).
func (f *Federation) SimGroup() *sim.ShardGroup { return f.group }

// Engine returns the federation's home engine (member 0's shard); Run and
// RunFor on it advance the whole group.
func (f *Federation) Engine() *sim.Engine { return f.group.Shard(0) }

// WANLinks returns every WAN link in ID order.
func (f *Federation) WANLinks() []*federation.WANLink { return f.wans }

// Hosts lists member fab's non-controller hosts (relabeled MACs, gateway
// hosts included, at the tail) in deterministic order.
func (f *Federation) Hosts(fab int) []MAC { return f.nets[fab].Hosts() }

// GatewayMACs lists member fab's border gateway hosts.
func (f *Federation) GatewayMACs(fab int) []MAC {
	out := make([]MAC, len(f.gateways[fab]))
	for i, gw := range f.gateways[fab] {
		out[i] = gw.MAC()
	}
	return out
}

// FabricOf returns the member index owning a host.
func (f *Federation) FabricOf(m MAC) (int, bool) { return f.regional.FabricOf(m) }

// Resolve answers a route query at the regional plane (intra-fabric
// queries delegate to the owning member controller).
func (f *Federation) Resolve(q controller.RouteQuery) (federation.Route, error) {
	return f.regional.Resolve(q)
}

// FailWAN cuts a WAN link (both gateways observe the flip; the hub flags
// the link and cached inter-fabric routes through it go stale).
func (f *Federation) FailWAN(id int) error {
	if id < 0 || id >= len(f.wans) {
		return fmt.Errorf("core: no WAN link %d", id)
	}
	f.wans[id].Link.Fail()
	return nil
}

// RestoreWAN brings a failed WAN link back (the hub clears its flag).
func (f *Federation) RestoreWAN(id int) error {
	if id < 0 || id >= len(f.wans) {
		return fmt.Errorf("core: no WAN link %d", id)
	}
	f.wans[id].Link.Restore()
	return nil
}

// WANUp reports a WAN link's cable state.
func (f *Federation) WANUp(id int) bool {
	return id >= 0 && id < len(f.wans) && f.wans[id].Link.Up()
}

// NumWANs returns the WAN link count.
func (f *Federation) NumWANs() int { return len(f.wans) }

// WANEnds reports WAN link id's endpoints: the two member fabric indices
// and the gateway host on each side.
func (f *Federation) WANEnds(id int) (fabA, fabB int, gwA, gwB MAC) {
	w := f.wans[id]
	return w.A, w.B, w.GwA.MAC(), w.GwB.MAC()
}

// WANFlaggedCount counts currently flagged WAN links.
func (f *Federation) WANFlaggedCount() int { return f.hub.WANFlaggedCount() }

// RouteWAN resolves the inter-fabric route for (src, dst) and reports the
// WAN link and gateway pair it rides — the chaos battery's never-widen
// audit probe.
func (f *Federation) RouteWAN(src, dst MAC) (wan int, gwNear, gwFar MAC, err error) {
	r, rerr := f.regional.Resolve(controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeFabric})
	if rerr != nil {
		return 0, MAC{}, MAC{}, rerr
	}
	if r.Intra() {
		return 0, MAC{}, MAC{}, fmt.Errorf("core: %v and %v share a fabric", src, dst)
	}
	return r.WAN, r.Gateway, r.FarGateway, nil
}

// CrashGateway power-fails a border gateway: every federation envelope
// touching it is eaten until RestartGateway.
func (f *Federation) CrashGateway(m MAC) error {
	gw, ok := f.gwByHost[m]
	if !ok {
		return fmt.Errorf("core: %v is not a gateway", m)
	}
	gw.Crash()
	return nil
}

// RestartGateway brings a crashed gateway back.
func (f *Federation) RestartGateway(m MAC) error {
	gw, ok := f.gwByHost[m]
	if !ok {
		return fmt.Errorf("core: %v is not a gateway", m)
	}
	gw.Restart()
	return nil
}

// GatewayDown reports whether a gateway host is crashed.
func (f *Federation) GatewayDown(m MAC) bool {
	gw, ok := f.gwByHost[m]
	return ok && gw.Down()
}

// Run drains pending events across the whole federation (a bounded settle
// window when telemetry timers keep the queues perpetually non-empty).
func (f *Federation) Run() {
	if f.perpetual {
		f.group.RunFor(sim.Second)
		return
	}
	f.group.Run()
}

// RunFor advances the whole federation by d of virtual time.
func (f *Federation) RunFor(d sim.Time) { f.group.RunFor(d) }

// Now returns the federation's virtual clock.
func (f *Federation) Now() sim.Time { return f.group.Now() }

// Windows reports the engine group's parallel/solo window counts — the
// observable for WAN-lookahead scaling (see the federated shard bench).
func (f *Federation) Windows() (parallel, solo uint64) { return f.group.Windows() }

// OnReceive installs a data sink for federated envelopes arriving at h.
// Intra-fabric traffic sent through the member Network keeps using the
// member's own OnReceive. As there, the payload is valid only for the
// duration of the call: it aliases a receive buffer that is recycled when
// fn returns.
func (f *Federation) OnReceive(h MAC, fn func(src MAC, payload []byte)) error {
	fab, ok := f.regional.FabricOf(h)
	if !ok {
		return ErrNoSuchHost
	}
	n := f.nets[fab]
	n.mu.Lock()
	n.fedReceivers[h] = fn
	n.mu.Unlock()
	return nil
}

// Send delivers an application payload from src to dst anywhere in the
// federation: same-fabric pairs take the member's ordinary datapath,
// cross-fabric pairs ride a federation envelope through the border
// gateways. Run the federation to drain events.
func (f *Federation) Send(src, dst MAC, payload []byte) error {
	sf, ok := f.regional.FabricOf(src)
	if !ok {
		return ErrNoSuchHost
	}
	df, ok := f.regional.FabricOf(dst)
	if !ok {
		return ErrNoSuchHost
	}
	if sf == df {
		return f.nets[sf].Send(src, dst, payload)
	}
	return f.sendEnvelope(src, dst, federation.EnvData, 0, payload)
}

// Ping measures an application-level RTT anywhere in the federation; for
// cross-fabric pairs that includes both local legs and the WAN hop(s).
func (f *Federation) Ping(src, dst MAC, cb func(rtt sim.Time)) error {
	sf, ok := f.regional.FabricOf(src)
	if !ok {
		return ErrNoSuchHost
	}
	df, ok := f.regional.FabricOf(dst)
	if !ok {
		return ErrNoSuchHost
	}
	if sf == df {
		return f.nets[sf].Ping(src, dst, cb)
	}
	n := f.nets[sf]
	a := n.agents[src]
	sentAt := a.Engine().Now()
	n.mu.Lock()
	n.fedSeq++
	seq := n.fedSeq
	n.fedWait[seq] = func(at sim.Time) { cb(at - sentAt) }
	n.mu.Unlock()
	return f.sendEnvelope(src, dst, federation.EnvEchoReq, seq, nil)
}

// PingSync is Ping plus a federation drain, returning the measured RTT.
func (f *Federation) PingSync(src, dst MAC) (sim.Time, error) {
	var rtt sim.Time = -1
	if err := f.Ping(src, dst, func(r sim.Time) { rtt = r }); err != nil {
		return 0, err
	}
	if f.perpetual {
		for i := 0; i < 400 && rtt < 0; i++ {
			f.group.RunFor(10 * sim.Millisecond)
		}
	} else {
		f.group.Run()
	}
	if rtt < 0 {
		return 0, fmt.Errorf("core: federated ping %v->%v lost", src, dst)
	}
	return rtt, nil
}

// sendEnvelope resolves the regional route for (src, dst) and hands the
// envelope to src's agent addressed at the egress gateway. Also called
// from shard workers (the echo reply), so it only touches concurrency-safe
// state.
func (f *Federation) sendEnvelope(src, dst MAC, kind byte, seq uint64, payload []byte) error {
	r, err := f.regional.Resolve(controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeFabric})
	if err != nil {
		return err
	}
	// Head: the relay kind byte and the envelope header (32 bytes hold
	// both without growing); body: the caller's payload, untouched.
	head := append(make([]byte, 0, 32), kindFedRelay)
	head = federation.Envelope{
		Kind:      kind,
		SrcFabric: r.SrcFabric,
		DstFabric: r.DstFabric,
		TTL:       federation.DefaultTTL,
		Src:       src,
		Dst:       dst,
		Seq:       seq,
	}.AppendHeader(head)
	return f.nets[r.SrcFabric].agents[src].SendParts(r.Gateway, packet.EtherTypeIPv4, head, payload,
		host.FlowKey{Dst: r.Gateway})
}

// handleDeliver terminates federation envelopes at their destination host.
// Runs on the destination's shard worker.
func (f *Federation) handleDeliver(at MAC, env []byte) {
	e, ok := federation.DecodeEnvelope(env)
	if !ok || e.Dst != at {
		return
	}
	fab, ok := f.regional.FabricOf(at)
	if !ok {
		return
	}
	n := f.nets[fab]
	switch e.Kind {
	case federation.EnvData:
		n.mu.Lock()
		fn := n.fedReceivers[at]
		n.mu.Unlock()
		if fn != nil {
			fn(e.Src, e.Payload)
		}
	case federation.EnvEchoReq:
		_ = f.sendEnvelope(at, e.Src, federation.EnvEchoRep, e.Seq, nil)
	case federation.EnvEchoRep:
		n.mu.Lock()
		fn := n.fedWait[e.Seq]
		delete(n.fedWait, e.Seq)
		n.mu.Unlock()
		if fn != nil {
			fn(n.agents[at].Engine().Now())
		}
	}
}
