package chaos

import (
	"fmt"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/trace"
)

// The federation battery: randomized WAN partitions and border-gateway
// crashes against a metro/WAN federation (core.Federate), with the two
// invariants the hierarchical control plane promises. Never-widen: the
// regional resolver must not answer an inter-fabric query with a route
// over a downed WAN link or a crashed gateway — when no live path exists
// it must refuse, not serve stale. Post-heal: once every WAN link and
// gateway is back, cross-fabric reachability re-converges and every
// WAN-health flag clears. Intra-fabric traffic is the blast-radius
// control: WAN chaos must never perturb it.

// FederationTarget is the deployment surface the WAN battery drives.
// core.Federation implements it; the indirection avoids a core import
// cycle, exactly like Target.
type FederationTarget interface {
	// clock: the home engine is member 0's shard.
	clock
	// NumFabrics counts member fabrics; Hosts lists member fab's
	// non-controller hosts; GatewayMACs lists its border gateways (a
	// subset of Hosts); FabricOf maps a host back to its member.
	NumFabrics() int
	Hosts(fab int) []packet.MAC
	GatewayMACs(fab int) []packet.MAC
	FabricOf(m packet.MAC) (int, bool)

	// WAN plane: links are addressed 0..NumWANs-1; WANEnds reports a
	// link's fabric and gateway endpoints; WANFlaggedCount counts raised
	// health flags.
	NumWANs() int
	WANEnds(id int) (fabA, fabB int, gwA, gwB packet.MAC)
	WANUp(id int) bool
	WANFlaggedCount() int
	FailWAN(id int) error
	RestoreWAN(id int) error

	CrashGateway(m packet.MAC) error
	RestartGateway(m packet.MAC) error
	GatewayDown(m packet.MAC) bool

	// RouteWAN is the never-widen audit probe: the WAN link and gateway
	// pair the regional resolver would answer with right now.
	RouteWAN(src, dst packet.MAC) (wan int, gwNear, gwFar packet.MAC, err error)

	Ping(src, dst packet.MAC, cb func(rtt sim.Time)) error
}

// DefaultFederationConfig is the standard WAN scenario. It sets the six
// fields the WAN battery reads — Seed, Events, MeanGap, Settle, Deadline
// and MaxPairChecks — and leaves every link-battery switch off.
func DefaultFederationConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Events:        16,
		MeanGap:       50 * sim.Millisecond,
		Settle:        2 * sim.Second,
		Deadline:      2 * sim.Second,
		MaxPairChecks: 8,
	}
}

// wanBattery injects WAN link cuts and gateway crashes into a federation.
type wanBattery struct {
	*runner
	t FederationTarget

	wanDown map[int]bool
	gwDown  map[packet.MAC]bool
	gwAll   []packet.MAC    // every gateway, deterministic order
	pairs   [][2]packet.MAC // sampled cross-fabric (src, dst) pairs, no gateway endpoints
	intra   [][2]packet.MAC // one intra-fabric control pair per member
}

// RunFederation executes a WAN chaos scenario against a booted federation
// on the same loop as Run: inject cfg.Events randomized WAN cuts and
// gateway crashes with the never-widen and blast-radius audits after every
// event, heal everything, settle, and check post-heal reachability and flag
// clearance. A cfg that turns on a link-battery switch is refused: the WAN
// battery injects none of them.
func RunFederation(t FederationTarget, cfg Config) (*Report, error) {
	for _, sw := range []struct {
		name string
		on   bool
	}{
		{"Loss", cfg.Loss != 0}, {"Corrupt", cfg.Corrupt != 0}, {"Jitter", cfg.Jitter != 0},
		{"Flap", cfg.Flap}, {"CrashSwitches", cfg.CrashSwitches}, {"CrashController", cfg.CrashController},
		{"TenantChurn", cfg.TenantChurn}, {"Mcast", cfg.Mcast},
	} {
		if sw.on {
			return nil, fmt.Errorf("chaos: the WAN battery does not inject %s", sw.name)
		}
	}
	if t.NumFabrics() < 2 {
		return nil, fmt.Errorf("chaos: federation battery needs >= 2 fabrics")
	}
	if t.NumWANs() == 0 {
		return nil, fmt.Errorf("chaos: federation has no WAN links")
	}
	r := &wanBattery{
		runner:  newRunner(t, cfg),
		t:       t,
		wanDown: make(map[int]bool),
		gwDown:  make(map[packet.MAC]bool),
	}
	for fab := 0; fab < t.NumFabrics(); fab++ {
		r.gwAll = append(r.gwAll, t.GatewayMACs(fab)...)
	}
	r.samplePairs()
	r.run(r)
	return r.rep, nil
}

// audit runs the mid-chaos invariants: never-widen and blast radius.
func (r *wanBattery) audit() {
	r.auditNeverWiden()
	r.auditBlastRadius()
}

// samplePairs picks up to MaxPairChecks cross-fabric pairs by deterministic
// stride over the host lists (gateway hosts excluded — a crashed gateway
// legitimately drops traffic addressed to itself), plus one intra-fabric
// control pair per member.
func (r *wanBattery) samplePairs() {
	isGw := make(map[packet.MAC]bool, len(r.gwAll))
	for _, m := range r.gwAll {
		isGw[m] = true
	}
	plain := make([][]packet.MAC, r.t.NumFabrics())
	for fab := range plain {
		for _, h := range r.t.Hosts(fab) {
			if !isGw[h] {
				plain[fab] = append(plain[fab], h)
			}
		}
		if len(plain[fab]) >= 2 {
			r.intra = append(r.intra, [2]packet.MAC{plain[fab][0], plain[fab][1]})
		}
	}
	var all [][2]packet.MAC
	for i := 0; i < len(plain); i++ {
		for j := i + 1; j < len(plain); j++ {
			for _, s := range plain[i] {
				for _, d := range plain[j] {
					all = append(all, [2]packet.MAC{s, d})
				}
			}
		}
	}
	if r.cfg.MaxPairChecks <= 0 || len(all) <= r.cfg.MaxPairChecks {
		r.pairs = all
		return
	}
	stride := len(all) / r.cfg.MaxPairChecks
	for i := 0; i < r.cfg.MaxPairChecks; i++ {
		r.pairs = append(r.pairs, all[i*stride])
	}
}

// inject fires one randomized event among the currently possible kinds.
func (r *wanBattery) inject(int) {
	var upWANs, downWANs []int
	for id := 0; id < r.t.NumWANs(); id++ {
		if r.wanDown[id] {
			downWANs = append(downWANs, id)
		} else {
			upWANs = append(upWANs, id)
		}
	}
	var liveGws, deadGws []packet.MAC
	for _, m := range r.gwAll {
		if r.gwDown[m] {
			deadGws = append(deadGws, m)
		} else {
			liveGws = append(liveGws, m)
		}
	}

	type choice struct {
		kind trace.ScenarioOp
		n    int
	}
	var kinds []choice
	if len(upWANs) > 0 {
		kinds = append(kinds, choice{trace.ScenarioFailWAN, len(upWANs)})
	}
	if len(downWANs) > 0 {
		kinds = append(kinds, choice{trace.ScenarioHealWAN, len(downWANs)})
	}
	if len(liveGws) > 0 {
		kinds = append(kinds, choice{trace.ScenarioCrashGateway, len(liveGws)})
	}
	if len(deadGws) > 0 {
		kinds = append(kinds, choice{trace.ScenarioRestartGateway, len(deadGws)})
	}
	if len(kinds) == 0 {
		return
	}
	c := kinds[r.rng.Intn(len(kinds))]
	pick := r.rng.Intn(c.n)
	switch c.kind {
	case trace.ScenarioFailWAN:
		id := upWANs[pick]
		_ = r.t.FailWAN(id)
		r.wanDown[id] = true
		r.record(Event{Kind: c.kind, A: packet.SwitchID(id)})
	case trace.ScenarioHealWAN:
		id := downWANs[pick]
		_ = r.t.RestoreWAN(id)
		delete(r.wanDown, id)
		r.record(Event{Kind: c.kind, A: packet.SwitchID(id)})
	case trace.ScenarioCrashGateway:
		m := liveGws[pick]
		_ = r.t.CrashGateway(m)
		r.gwDown[m] = true
		r.record(Event{Kind: c.kind, Host: m})
	case trace.ScenarioRestartGateway:
		m := deadGws[pick]
		_ = r.t.RestartGateway(m)
		delete(r.gwDown, m)
		r.record(Event{Kind: c.kind, Host: m})
	}
}

// liveWAN reports whether, per the battery's own fault bookkeeping, at
// least one WAN link between the two fabrics is usable: link up and both
// gateways alive.
func (r *wanBattery) liveWAN(fa, fb int) bool {
	for id := 0; id < r.t.NumWANs(); id++ {
		a, b, ga, gb := r.t.WANEnds(id)
		if (a != fa || b != fb) && (a != fb || b != fa) {
			continue
		}
		if !r.wanDown[id] && !r.gwDown[ga] && !r.gwDown[gb] {
			return true
		}
	}
	return false
}

// auditNeverWiden probes the regional resolver for every sampled pair
// while faults are live: an answer must never ride a downed WAN link or a
// crashed gateway, and when no live path exists the resolver must refuse.
func (r *wanBattery) auditNeverWiden() {
	for _, p := range r.pairs {
		fa, _ := r.t.FabricOf(p[0])
		fb, _ := r.t.FabricOf(p[1])
		wan, gwNear, gwFar, err := r.t.RouteWAN(p[0], p[1])
		if !r.liveWAN(fa, fb) {
			if err == nil {
				r.violate("never-widen", "no live WAN between fab%d and fab%d but resolver answered via wan%d", fa, fb, wan)
			}
			continue
		}
		if err != nil {
			r.violate("never-widen", "live WAN exists between fab%d and fab%d but resolver refused: %v", fa, fb, err)
			continue
		}
		if r.wanDown[wan] {
			r.violate("never-widen", "route %v->%v rides downed wan%d", p[0], p[1], wan)
		}
		if r.gwDown[gwNear] || r.gwDown[gwFar] {
			r.violate("never-widen", "route %v->%v rides crashed gateway (%v or %v)", p[0], p[1], gwNear, gwFar)
		}
	}
}

// auditBlastRadius verifies WAN chaos does not leak into member fabrics:
// one intra-fabric ping per member must keep succeeding mid-scenario.
func (r *wanBattery) auditBlastRadius() {
	for _, p := range r.intra {
		if !r.pingOK(p[0], p[1], r.cfg.Deadline) {
			fab, _ := r.t.FabricOf(p[0])
			r.violate("blast-radius", "intra-fabric ping %v->%v failed in fab%d during WAN chaos", p[0], p[1], fab)
		}
	}
}

func (r *wanBattery) healAll() {
	for id := 0; id < r.t.NumWANs(); id++ {
		if r.wanDown[id] {
			_ = r.t.RestoreWAN(id)
			delete(r.wanDown, id)
		}
	}
	for _, m := range r.gwAll {
		if r.gwDown[m] {
			_ = r.t.RestartGateway(m)
			delete(r.gwDown, m)
		}
	}
	r.record(Event{Kind: trace.ScenarioHealAllWAN})
}

// check runs the post-heal invariants: WAN flags all cleared, the resolver
// answers every sampled pair over live links, and every sampled pair is
// reachable end-to-end.
func (r *wanBattery) check() {
	if n := r.t.WANFlaggedCount(); n != 0 {
		r.violate("wan-flag-clear", "%d WAN health flags still raised after heal", n)
	}
	for _, m := range r.gwAll {
		if r.t.GatewayDown(m) {
			r.violate("post-heal", "gateway %v still down after heal", m)
		}
	}
	for id := 0; id < r.t.NumWANs(); id++ {
		if !r.t.WANUp(id) {
			r.violate("post-heal", "wan%d still down after heal", id)
		}
	}
	for _, p := range r.pairs {
		if _, _, _, err := r.t.RouteWAN(p[0], p[1]); err != nil {
			r.violate("federation-reachability", "post-heal resolve %v->%v: %v", p[0], p[1], err)
			continue
		}
		ok := false
		for attempt := 0; attempt < 3; attempt++ {
			if r.pingOK(p[0], p[1], r.cfg.Deadline) {
				ok = true
				break
			}
			r.rep.PingRetries++
		}
		if !ok {
			r.violate("federation-reachability", "post-heal ping %v->%v lost", p[0], p[1])
		}
	}
}

// pingOK fires one probe and drives the federation until the echo lands or
// the deadline passes.
func (r *wanBattery) pingOK(src, dst packet.MAC, deadline sim.Time) bool {
	done := false
	if err := r.t.Ping(src, dst, func(sim.Time) { done = true }); err != nil {
		return false
	}
	const step = 10 * sim.Millisecond
	for waited := sim.Time(0); !done && waited < deadline; waited += step {
		r.t.RunFor(step)
	}
	return done
}
