package controller

import (
	"errors"
	"fmt"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// Topology discovery (paper §4.1): a breadth-first search driven entirely by
// probe messages through the dumb switches. The controller discovers its
// own uplink port, the switch it attaches to, then scans every port pair of
// every frontier switch (O(N·P²) probes), resolving the switch-identity
// ambiguity with verification probes, and collecting host replies along the
// way.

// DiscoveryConfig tunes the prober.
type DiscoveryConfig struct {
	// MaxPorts bounds the per-switch port scan (paper: "we can pass the
	// maximum number of ports to the discovery process").
	MaxPorts int
	// ProbeSendCost is the controller CPU time consumed per probe sent —
	// the discovery bottleneck per §7.2.1.
	ProbeSendCost sim.Time
	// ReplyCost is the CPU time per reply processed.
	ReplyCost sim.Time
	// ProbeTimeout declares an unanswered probe lost.
	ProbeTimeout sim.Time
}

// DefaultDiscoveryConfig mirrors the testbed calibration.
func DefaultDiscoveryConfig() DiscoveryConfig {
	return DiscoveryConfig{
		MaxPorts:      64,
		ProbeSendCost: 33 * sim.Microsecond,
		ReplyCost:     2 * sim.Microsecond,
		ProbeTimeout:  2 * sim.Millisecond,
	}
}

// ProbeResultKind classifies how a probe resolved.
type ProbeResultKind uint8

// Probe outcomes (§3.3 challenge 1: lost, bounced back, or answered).
const (
	ResultLost ProbeResultKind = iota
	ResultBounce
	ResultID
	ResultHost
)

// ProbeResult is the resolution of one probe.
type ProbeResult struct {
	Kind      ProbeResultKind
	Switch    packet.SwitchID // ResultID
	Host      packet.MAC      // ResultHost
	KnowsCtrl bool            // ResultHost
}

// ProbeTransport sends probe messages and resolves them asynchronously in
// virtual time. Implementations: FabricTransport (real frames through the
// simulated fabric) and OracleTransport (direct topology walk with the same
// cost model, for large-scale discovery benchmarks).
type ProbeTransport interface {
	// Probe sends a PM with the given header tags; ret is the reverse
	// path embedded in the payload for host responders. cb fires exactly
	// once.
	Probe(tags, ret packet.Path, cb func(ProbeResult))
	// ProbesSent reports the total PM count so far.
	ProbesSent() uint64
}

// DiscoveryReport summarizes a finished discovery.
type DiscoveryReport struct {
	Switches int
	Links    int
	Hosts    int
	Probes   uint64
	Duration sim.Time
}

// String renders the report.
func (r DiscoveryReport) String() string {
	return fmt.Sprintf("discovered %d switches, %d links, %d hosts with %d probes in %v",
		r.Switches, r.Links, r.Hosts, r.Probes, r.Duration.Duration())
}

// ErrDiscoveryFailed reports that the controller could not even find its
// own uplink port.
var ErrDiscoveryFailed = errors.New("controller: discovery failed to find uplink")

// ErrOtherController reports that discovery stopped because another
// controller already completed it: a host answered a probe with
// KnowsCtrl set (§4.1: "other hosts just probe until they learn the
// location of the controller" and "we only allow a single controller to
// complete the discovery").
var ErrOtherController = errors.New("controller: another controller already owns the network")

type swInfo struct {
	fwd packet.Path // tags controller -> this switch (exclusive of scan port)
	ret packet.Path // tags this switch -> controller host
}

// discovery is one BFS session.
type discovery struct {
	c     *Controller
	tr    ProbeTransport
	cfg   DiscoveryConfig
	t     *topo.Topology
	info  map[packet.SwitchID]*swInfo
	queue []packet.SwitchID

	scanning  bool
	finished  bool
	startTime sim.Time
	done      func(DiscoveryReport, error)
}

// Discover runs topology discovery over the transport; done fires in
// virtual time when the BFS completes. The discovered topology becomes the
// controller's master view.
func (c *Controller) Discover(tr ProbeTransport, done func(DiscoveryReport, error)) {
	cfg := c.cfg.Discovery
	if cfg.MaxPorts <= 0 {
		cfg.MaxPorts = 64
	}
	d := &discovery{
		c:         c,
		tr:        tr,
		cfg:       cfg,
		t:         topo.New(),
		info:      make(map[packet.SwitchID]*swInfo),
		startTime: c.eng.Now(),
		done:      done,
	}
	d.findUplink()
}

// isWired reports whether (sw, p) is already known, a host or a confirmed
// link, so the scan skips it. A switch not yet found has no wired ports.
func (d *discovery) isWired(sw packet.SwitchID, p topo.Port) bool {
	ep, err := d.t.EndpointAt(sw, p)
	return err == nil && ep.Kind != topo.EndpointNone
}

// findUplink probes [0, p] for every p: the ID reply that makes it home
// reveals both the attach switch's ID and the controller's own port.
func (d *discovery) findUplink() {
	resolved := false
	outstanding := d.cfg.MaxPorts
	for p := 1; p <= d.cfg.MaxPorts; p++ {
		port := topo.Port(p)
		d.tr.Probe(packet.Path{packet.TagIDQuery, port}, nil, func(r ProbeResult) {
			outstanding--
			if r.Kind == ResultID && !resolved {
				resolved = true
				d.rootFound(r.Switch, port)
			}
			if outstanding == 0 && !resolved {
				d.finish(ErrDiscoveryFailed)
			}
		})
	}
}

func (d *discovery) rootFound(root packet.SwitchID, ownPort topo.Port) {
	if err := d.t.AddSwitch(root, d.cfg.MaxPorts); err != nil {
		d.finish(err)
		return
	}
	if err := d.t.AttachHost(d.c.MAC(), root, ownPort); err != nil {
		d.finish(err)
		return
	}
	d.info[root] = &swInfo{fwd: packet.Path{}, ret: packet.Path{ownPort}}
	d.queue = append(d.queue, root)
	d.scanNext()
}

// scanNext dequeues the next switch and scans all its unknown ports.
func (d *discovery) scanNext() {
	if d.scanning || d.finished {
		return
	}
	if len(d.queue) == 0 {
		d.finish(nil)
		return
	}
	sw := d.queue[0]
	d.queue = d.queue[1:]
	d.scanning = true
	d.scanSwitch(sw, 1)
}

// scanSwitch walks ports sequentially: port scans of one switch share the
// controller CPU anyway, and sequencing keeps the search deterministic.
func (d *discovery) scanSwitch(sw packet.SwitchID, port int) {
	if d.finished {
		return
	}
	if port > d.cfg.MaxPorts {
		d.scanning = false
		d.scanNext()
		return
	}
	next := func() { d.scanSwitch(sw, port+1) }
	p := topo.Port(port)
	if d.isWired(sw, p) {
		next()
		return
	}
	d.probePort(sw, p, next)
}

// probePort first checks for a host on (sw, p), then scans for a
// neighboring switch across all ingress-port guesses.
func (d *discovery) probePort(sw packet.SwitchID, p topo.Port, next func()) {
	inf := d.info[sw]
	hostTags := append(inf.fwd.Clone(), p)
	d.tr.Probe(hostTags, inf.ret, func(r ProbeResult) {
		switch r.Kind {
		case ResultHost:
			if r.KnowsCtrl && r.Host != d.c.MAC() {
				// Someone already finished bootstrapping this network:
				// yield and become a replica.
				d.finish(ErrOtherController)
				return
			}
			// A refused attach (the host is known on another port)
			// leaves the port unwired, as the scan found it.
			_ = d.t.AttachHost(r.Host, sw, p)
			next()
		case ResultBounce:
			// The probe returned to the controller itself: (sw, p) is
			// our own uplink (already recorded); skip.
			next()
		default:
			d.scanLink(sw, p, next)
		}
	})
}

// scanLink enumerates all ingress-port guesses i for the neighbor behind
// (sw, p): probe fwd+[p, 0, i]+ret (§4.1). Candidates that answer are then
// verified to resolve the switch-identity ambiguity.
func (d *discovery) scanLink(sw packet.SwitchID, p topo.Port, next func()) {
	inf := d.info[sw]
	type candidate struct {
		far packet.SwitchID
		in  topo.Port
	}
	var candidates []candidate
	outstanding := d.cfg.MaxPorts
	for i := 1; i <= d.cfg.MaxPorts; i++ {
		in := topo.Port(i)
		tags := append(inf.fwd.Clone(), p, packet.TagIDQuery, in)
		tags = append(tags, inf.ret...)
		d.tr.Probe(tags, nil, func(r ProbeResult) {
			outstanding--
			if r.Kind == ResultID {
				candidates = append(candidates, candidate{far: r.Switch, in: in})
			}
			if outstanding == 0 {
				if len(candidates) == 0 {
					next() // unwired port
					return
				}
				// Verify candidates in arrival order until one confirms.
				var verify func(idx int)
				verify = func(idx int) {
					if idx >= len(candidates) {
						next()
						return
					}
					cand := candidates[idx]
					if d.isWired(cand.far, cand.in) {
						// Parallel links: this ingress already belongs to
						// another confirmed link; the echo came back through
						// it coincidentally.
						verify(idx + 1)
						return
					}
					// fwd+[p, in, 0]+ret: exit the neighbor through the
					// guessed ingress port and ask the switch there for
					// its ID — it must be sw itself.
					vtags := append(inf.fwd.Clone(), p, cand.in, packet.TagIDQuery)
					vtags = append(vtags, inf.ret...)
					d.tr.Probe(vtags, nil, func(vr ProbeResult) {
						if vr.Kind == ResultID && vr.Switch == sw {
							d.linkConfirmed(sw, p, cand.far, cand.in)
							next()
							return
						}
						verify(idx + 1)
					})
				}
				verify(0)
			}
		})
	}
}

// linkConfirmed records the link and enqueues newly discovered switches.
func (d *discovery) linkConfirmed(sw packet.SwitchID, p topo.Port, far packet.SwitchID, in topo.Port) {
	inf := d.info[sw]
	if !d.t.HasSwitch(far) {
		if err := d.t.AddSwitch(far, d.cfg.MaxPorts); err != nil {
			return
		}
		fwd := append(inf.fwd.Clone(), p)
		ret := append(packet.Path{in}, inf.ret...)
		d.info[far] = &swInfo{fwd: fwd, ret: ret}
		d.queue = append(d.queue, far)
	}
	// A refused Connect (an end already wired) leaves both ports as the
	// topology has them.
	_ = d.t.Connect(sw, p, far, in)
}

func (d *discovery) finish(err error) {
	if d.finished {
		return
	}
	d.finished = true
	report := DiscoveryReport{
		Switches: d.t.NumSwitches(),
		Links:    d.t.NumLinks(),
		Hosts:    d.t.NumHosts(),
		Probes:   d.tr.ProbesSent(),
		Duration: d.c.eng.Now() - d.startTime,
	}
	if err == nil {
		d.c.master = d.t
		d.c.version++
		if d.c.OnTopologyChange != nil {
			d.c.OnTopologyChange(d.c.version)
		}
	}
	if d.done != nil {
		d.done(report, err)
	}
}
