package chaos

import (
	"fmt"
	"math/rand"

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
	// Engine returns the federation's home engine (member 0's shard).
	Engine() *sim.Engine
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
	RunFor(d sim.Time)
}

// FederationConfig tunes a WAN chaos scenario.
type FederationConfig struct {
	// Seed drives every randomized choice.
	Seed int64
	// Events is how many randomized WAN/gateway fail-heal events to inject.
	Events int
	// MeanGap is the mean virtual-time gap between events.
	MeanGap sim.Time
	// Settle is how long the federation gets after the final heal before
	// the reachability check.
	Settle sim.Time
	// Deadline bounds, per probed pair, how long a connectivity probe may
	// take during the check phase.
	Deadline sim.Time
	// MaxPairChecks caps how many cross-fabric host pairs the audits and
	// the post-heal sweep probe (deterministic stride sampling).
	MaxPairChecks int
}

// DefaultFederationConfig is the standard WAN scenario.
func DefaultFederationConfig(seed int64) FederationConfig {
	return FederationConfig{
		Seed:          seed,
		Events:        16,
		MeanGap:       50 * sim.Millisecond,
		Settle:        2 * sim.Second,
		Deadline:      2 * sim.Second,
		MaxPairChecks: 8,
	}
}

func (c FederationConfig) withDefaults() FederationConfig {
	if c.Events <= 0 {
		c.Events = 16
	}
	if c.MeanGap <= 0 {
		c.MeanGap = 50 * sim.Millisecond
	}
	if c.Settle <= 0 {
		c.Settle = 2 * sim.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * sim.Second
	}
	if c.MaxPairChecks <= 0 {
		c.MaxPairChecks = 8
	}
	return c
}

// fedPair is one sampled cross-fabric probe pair.
type fedPair struct {
	src, dst packet.MAC
}

type fedRunner struct {
	t   FederationTarget
	cfg FederationConfig
	rng *rand.Rand

	wanDown map[int]bool
	gwDown  map[packet.MAC]bool
	gwAll   []packet.MAC // every gateway, deterministic order
	pairs   []fedPair    // sampled cross-fabric pairs (no gateway endpoints)
	intra   []fedPair    // one intra-fabric control pair per member

	rep *Report
}

// RunFederation executes a WAN chaos scenario against a booted federation:
// inject cfg.Events randomized WAN cuts and gateway crashes with the
// never-widen audit after every event, heal everything, settle, and check
// post-heal reachability and flag clearance.
func RunFederation(t FederationTarget, cfg FederationConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if t.NumFabrics() < 2 {
		return nil, fmt.Errorf("chaos: federation battery needs >= 2 fabrics")
	}
	if t.NumWANs() == 0 {
		return nil, fmt.Errorf("chaos: federation has no WAN links")
	}
	r := &fedRunner{
		t:       t,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		wanDown: make(map[int]bool),
		gwDown:  make(map[packet.MAC]bool),
		rep:     &Report{},
	}
	for fab := 0; fab < t.NumFabrics(); fab++ {
		r.gwAll = append(r.gwAll, t.GatewayMACs(fab)...)
	}
	r.samplePairs()

	for i := 0; i < cfg.Events; i++ {
		r.step()
		gap := cfg.MeanGap/2 + sim.Time(r.rng.Int63n(int64(cfg.MeanGap)))
		t.RunFor(gap)
		r.auditNeverWiden()
		r.auditBlastRadius()
	}

	r.healAll()
	t.RunFor(cfg.Settle)
	r.check()
	return r.rep, nil
}

// samplePairs picks up to MaxPairChecks cross-fabric pairs by deterministic
// stride over the host lists (gateway hosts excluded — a crashed gateway
// legitimately drops traffic addressed to itself), plus one intra-fabric
// control pair per member.
func (r *fedRunner) samplePairs() {
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
			r.intra = append(r.intra, fedPair{src: plain[fab][0], dst: plain[fab][1]})
		}
	}
	var all []fedPair
	for i := 0; i < len(plain); i++ {
		for j := i + 1; j < len(plain); j++ {
			for _, s := range plain[i] {
				for _, d := range plain[j] {
					all = append(all, fedPair{src: s, dst: d})
				}
			}
		}
	}
	if len(all) <= r.cfg.MaxPairChecks {
		r.pairs = all
		return
	}
	stride := len(all) / r.cfg.MaxPairChecks
	for i := 0; i < r.cfg.MaxPairChecks; i++ {
		r.pairs = append(r.pairs, all[i*stride])
	}
}

// record stamps e with the current time and appends it to the report
// trace. WAN events never reach a flight recorder.
func (r *fedRunner) record(e Event) {
	e.At = r.t.Engine().Now()
	r.rep.Trace = append(r.rep.Trace, e)
}

// step injects one randomized event among the currently possible kinds.
func (r *fedRunner) step() {
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

// liveWAN reports whether, per the runner's own fault bookkeeping, at
// least one WAN link between the two fabrics is usable: link up and both
// gateways alive.
func (r *fedRunner) liveWAN(fa, fb int) bool {
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
func (r *fedRunner) auditNeverWiden() {
	for _, p := range r.pairs {
		fa, _ := r.t.FabricOf(p.src)
		fb, _ := r.t.FabricOf(p.dst)
		wan, gwNear, gwFar, err := r.t.RouteWAN(p.src, p.dst)
		if !r.liveWAN(fa, fb) {
			if err == nil {
				r.violate("never-widen", fmt.Sprintf("no live WAN between fab%d and fab%d but resolver answered via wan%d", fa, fb, wan))
			}
			continue
		}
		if err != nil {
			r.violate("never-widen", fmt.Sprintf("live WAN exists between fab%d and fab%d but resolver refused: %v", fa, fb, err))
			continue
		}
		if r.wanDown[wan] {
			r.violate("never-widen", fmt.Sprintf("route %v->%v rides downed wan%d", p.src, p.dst, wan))
		}
		if r.gwDown[gwNear] || r.gwDown[gwFar] {
			r.violate("never-widen", fmt.Sprintf("route %v->%v rides crashed gateway (%v or %v)", p.src, p.dst, gwNear, gwFar))
		}
	}
}

// auditBlastRadius verifies WAN chaos does not leak into member fabrics:
// one intra-fabric ping per member must keep succeeding mid-scenario.
func (r *fedRunner) auditBlastRadius() {
	for _, p := range r.intra {
		if !r.pingOK(p.src, p.dst, r.cfg.Deadline) {
			fab, _ := r.t.FabricOf(p.src)
			r.violate("blast-radius", fmt.Sprintf("intra-fabric ping %v->%v failed in fab%d during WAN chaos", p.src, p.dst, fab))
		}
	}
}

func (r *fedRunner) healAll() {
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
func (r *fedRunner) check() {
	if n := r.t.WANFlaggedCount(); n != 0 {
		r.violate("wan-flag-clear", fmt.Sprintf("%d WAN health flags still raised after heal", n))
	}
	for _, m := range r.gwAll {
		if r.t.GatewayDown(m) {
			r.violate("post-heal", fmt.Sprintf("gateway %v still down after heal", m))
		}
	}
	for id := 0; id < r.t.NumWANs(); id++ {
		if !r.t.WANUp(id) {
			r.violate("post-heal", fmt.Sprintf("wan%d still down after heal", id))
		}
	}
	for _, p := range r.pairs {
		if _, _, _, err := r.t.RouteWAN(p.src, p.dst); err != nil {
			r.violate("federation-reachability", fmt.Sprintf("post-heal resolve %v->%v: %v", p.src, p.dst, err))
			continue
		}
		ok := false
		for attempt := 0; attempt < 3; attempt++ {
			if r.pingOK(p.src, p.dst, r.cfg.Deadline) {
				ok = true
				break
			}
			r.rep.PingRetries++
		}
		if !ok {
			r.violate("federation-reachability", fmt.Sprintf("post-heal ping %v->%v lost", p.src, p.dst))
		}
	}
}

// pingOK fires one probe and drives the federation until the echo lands or
// the deadline passes.
func (r *fedRunner) pingOK(src, dst packet.MAC, deadline sim.Time) bool {
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

func (r *fedRunner) violate(inv, detail string) {
	r.rep.Violations = append(r.rep.Violations, Violation{Invariant: inv, Detail: detail})
}
