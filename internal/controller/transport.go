package controller

import (
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// Two ProbeTransport implementations share one cost model: probe issue is
// serialized through the controller CPU at ProbeSendCost per PM — the paper
// identifies the controller's packet processing rate as the discovery
// bottleneck (§7.2.1) — while replies add ReplyCost.

// cpuModel serializes work through a single virtual CPU.
type cpuModel struct {
	eng  *sim.Engine
	free sim.Time
}

// charge reserves d of CPU starting no earlier than now, returning the
// completion time.
func (c *cpuModel) charge(d sim.Time) sim.Time {
	now := c.eng.Now()
	if c.free < now {
		c.free = now
	}
	c.free += d
	return c.free
}

// --- FabricTransport ----------------------------------------------------

// FabricTransport sends real probe frames through the simulated fabric via
// the controller's host agent and matches replies by sequence number. It is
// the transport used on the testbed-scale fabrics and in tests.
type FabricTransport struct {
	c       *Controller
	cfg     DiscoveryConfig
	cpu     cpuModel
	seq     uint64
	pending map[uint64]func(ProbeResult)
	sent    uint64
}

// NewFabricTransport installs the transport's reply hook on the controller.
func NewFabricTransport(c *Controller) *FabricTransport {
	tr := &FabricTransport{
		c:       c,
		cfg:     c.cfg.Discovery,
		cpu:     cpuModel{eng: c.eng},
		pending: make(map[uint64]func(ProbeResult)),
	}
	c.probeSink = tr.sink
	return tr
}

// ProbesSent implements ProbeTransport.
func (tr *FabricTransport) ProbesSent() uint64 { return tr.sent }

// Probe implements ProbeTransport.
func (tr *FabricTransport) Probe(tags, ret packet.Path, cb func(ProbeResult)) {
	tr.seq++
	seq := tr.seq
	tr.sent++
	tr.pending[seq] = cb
	issueAt := tr.cpu.charge(tr.cfg.ProbeSendCost)
	eng := tr.c.eng
	eng.At(issueAt, func() {
		body, err := packet.EncodeControl(packet.MsgProbe, &packet.Probe{
			Origin: tr.c.MAC(),
			Seq:    seq,
			Path:   tags,
			Return: ret,
		})
		if err != nil {
			tr.resolve(seq, ProbeResult{Kind: ResultLost})
			return
		}
		_ = tr.c.Agent.SendFrame(packet.BroadcastMAC, tags, packet.EtherTypeControl, body)
	})
	eng.At(issueAt+tr.cfg.ProbeTimeout, func() {
		tr.resolve(seq, ProbeResult{Kind: ResultLost})
	})
}

func (tr *FabricTransport) resolve(seq uint64, r ProbeResult) {
	cb, ok := tr.pending[seq]
	if !ok {
		return
	}
	delete(tr.pending, seq)
	cb(r)
}

// sink intercepts discovery replies arriving at the controller's agent.
func (tr *FabricTransport) sink(t packet.MsgType, msg any) bool {
	switch t {
	case packet.MsgIDReply:
		m := msg.(*packet.IDReply)
		tr.cpu.charge(tr.cfg.ReplyCost)
		tr.resolve(m.Seq, ProbeResult{Kind: ResultID, Switch: m.ID})
		return true
	case packet.MsgProbeReply:
		m := msg.(*packet.ProbeReply)
		tr.cpu.charge(tr.cfg.ReplyCost)
		tr.resolve(m.Seq, ProbeResult{Kind: ResultHost, Host: m.Responder, KnowsCtrl: m.KnowsCtrl})
		return true
	case packet.MsgProbe:
		m := msg.(*packet.Probe)
		if m.Origin == tr.c.MAC() {
			// Our own probe bounced back to us.
			tr.cpu.charge(tr.cfg.ReplyCost)
			tr.resolve(m.Seq, ProbeResult{Kind: ResultBounce})
			return true
		}
	}
	return false
}

// --- OracleTransport ----------------------------------------------------

// OracleTransport resolves probes by walking a reference topology directly,
// charging the identical controller CPU cost per probe but skipping per-hop
// event simulation. It makes 10⁶-probe discovery sweeps (Fig 8) tractable
// while exercising the same discovery logic; §7.2.1's observation that the
// controller CPU, not the fabric, bounds discovery time justifies the
// shortcut. Losses resolve at reply latency rather than timeout, modelling
// the paper's fully pipelined prober.
type OracleTransport struct {
	eng     *sim.Engine
	t       *topo.Topology
	self    packet.MAC
	cfg     DiscoveryConfig
	cpu     cpuModel
	sent    uint64
	perHop  sim.Time
	baseRTT sim.Time
}

// NewOracleTransport creates an oracle over the reference topology for the
// prober identified by self (which must be attached in t).
func NewOracleTransport(eng *sim.Engine, t *topo.Topology, self packet.MAC, cfg DiscoveryConfig) *OracleTransport {
	return &OracleTransport{
		eng:     eng,
		t:       t,
		self:    self,
		cfg:     cfg,
		cpu:     cpuModel{eng: eng},
		perHop:  sim.Microsecond,
		baseRTT: 5 * sim.Microsecond,
	}
}

// ProbesSent implements ProbeTransport.
func (tr *OracleTransport) ProbesSent() uint64 { return tr.sent }

// Probe implements ProbeTransport.
func (tr *OracleTransport) Probe(tags, ret packet.Path, cb func(ProbeResult)) {
	tr.sent++
	issueAt := tr.cpu.charge(tr.cfg.ProbeSendCost)
	r, hops := tr.walk(tags, ret)
	if r.Kind != ResultLost {
		tr.cpu.charge(tr.cfg.ReplyCost)
	}
	latency := tr.baseRTT + sim.Time(hops)*tr.perHop
	tr.eng.At(issueAt+latency, func() { cb(r) })
}

// walk traces a probe's header tags through the reference topology,
// reproducing exactly what the dumb switches would do.
func (tr *OracleTransport) walk(tags, ret packet.Path) (ProbeResult, int) {
	at, err := tr.t.HostAt(tr.self)
	if err != nil {
		return ProbeResult{Kind: ResultLost}, 0
	}
	cur := at.Switch
	hops := 1
	zeros := 0
	var qID packet.SwitchID
	for i := 0; i < len(tags); i++ {
		tag := tags[i]
		if tag == packet.TagIDQuery {
			zeros++
			if zeros == 1 {
				qID = cur
			} else {
				// A second query switch cannot echo the probe seq; the
				// reply is unmatchable.
				return ProbeResult{Kind: ResultLost}, hops
			}
			continue
		}
		ep, err := tr.t.EndpointAt(cur, tag)
		if err != nil || ep.Kind == topo.EndpointNone {
			return ProbeResult{Kind: ResultLost}, hops
		}
		hops++
		switch ep.Kind {
		case topo.EndpointHost:
			if i != len(tags)-1 {
				// Host mid-path: the agent drops frames with residual tags.
				return ProbeResult{Kind: ResultLost}, hops
			}
			if ep.Host == tr.self {
				if zeros == 1 {
					return ProbeResult{Kind: ResultID, Switch: qID}, hops
				}
				return ProbeResult{Kind: ResultBounce}, hops
			}
			// Another host: it replies along ret iff that path is valid.
			if zeros != 0 || len(ret) == 0 {
				return ProbeResult{Kind: ResultLost}, hops
			}
			if _, _, err := topo.FollowTags(tr.t, ep.Host, tr.self, ret, nil); err == nil {
				return ProbeResult{Kind: ResultHost, Host: ep.Host}, hops + len(ret)
			}
			return ProbeResult{Kind: ResultLost}, hops
		case topo.EndpointSwitch:
			cur = ep.Switch
		}
	}
	// Tags exhausted at a switch: ø at a switch is a drop.
	return ProbeResult{Kind: ResultLost}, hops
}
