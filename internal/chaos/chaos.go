// Package chaos is the fault-injection harness for a deployed DumbNet
// fabric: a seeded scenario driver that schedules randomized failure and
// heal sequences — lossy links, flapping, switch crashes, a dead primary
// controller — against a core.Network, plus an invariant checker that
// verifies the end-to-end recovery story the paper's §4 promises: full
// connectivity re-converges after heal, no cached route forwards in a
// loop, and every host's TopoCache agrees with the controller master.
//
// Determinism: the driver draws every choice from its own rand.Rand seeded
// by Config.Seed, and the network under test runs on the deterministic
// discrete-event engine — the same seed reproduces the identical event
// trace and the identical outcome.
package chaos

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"dumbnet/internal/controller"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
	"dumbnet/internal/vnet"
)

// Config tunes a chaos scenario. Both batteries read Seed, Events,
// MeanGap, Settle, Deadline and MaxPairChecks; the rest are the link
// battery's, and RunFederation refuses a config that turns one on.
type Config struct {
	// Seed drives every randomized choice the scenario makes.
	Seed int64
	// Events is how many randomized fail/heal events to inject.
	Events int
	// MeanGap is the mean virtual-time gap between events.
	MeanGap sim.Time
	// Loss is the per-frame loss probability installed on every
	// switch-to-switch link for the duration of the chaos phase.
	Loss float64
	// Corrupt is the per-frame single-bit corruption probability.
	Corrupt float64
	// Jitter is the maximum extra per-frame latency.
	Jitter sim.Time
	// Flap enables link-flap events (rapid down/up cycles inside the
	// switches' alarm-suppression window).
	Flap bool
	// CrashSwitches enables switch crash/restart events.
	CrashSwitches bool
	// CrashController crashes the bootstrap (primary) controller one
	// third of the way through the scenario; requires replication
	// (core.EnableReplicationAt) so hosts have somewhere to fail over.
	CrashController bool
	// Settle is how long the fabric gets after the final heal before
	// invariants are checked; must comfortably exceed the switches'
	// alarm-suppression window so trailing alarms drain.
	Settle sim.Time
	// Deadline bounds, per host pair, how long connectivity may take to
	// re-converge during the check phase.
	Deadline sim.Time
	// TenantChurn interleaves tenant-lifecycle events (create-tenant,
	// delete-tenant, migrate-host) with the fault kinds, and arms the
	// isolation invariants. Requires the target to have a vnet.Manager
	// (core.WithTenants — 0 is enough; churn creates tenants itself).
	TenantChurn bool
	// TenantSize is how many free hosts a churn-created tenant claims.
	TenantSize int
	// MaxPairChecks caps how many host pairs the post-heal connectivity and
	// route-service sweeps examine (deterministic stride sampling). 0 checks
	// every pair; large fabrics set a cap to bound check time.
	MaxPairChecks int
	// Mcast creates multicast groups before impairment, fires delivery
	// probes at them throughout the fault phase, and arms the multicast
	// invariants: no duplicate delivery ever, no non-member delivery ever,
	// and post-heal exactly-once delivery to every member over repaired
	// trees.
	Mcast bool
}

// DefaultConfig is the standard scenario: ~1% loss, flapping, switch
// crashes, and a primary-controller crash.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Loss:            0.01,
		Jitter:          20 * sim.Microsecond,
		Flap:            true,
		CrashSwitches:   true,
		CrashController: true,
	}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 24
	}
	if c.MeanGap <= 0 {
		c.MeanGap = 40 * sim.Millisecond
	}
	if c.Settle <= 0 {
		c.Settle = 5 * sim.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * sim.Second
	}
	if c.TenantSize <= 0 {
		c.TenantSize = 3
	}
	return c
}

// Event is one entry in the scenario trace. The struct stays comparable
// (==), so two traces compare with slices.Equal.
type Event struct {
	At     sim.Time
	Kind   trace.ScenarioOp
	A, B   packet.SwitchID // link events
	Sw     packet.SwitchID // switch events
	Tenant string          // tenant-lifecycle events
	Host   packet.MAC      // migrate-host: the host that moved in
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case trace.ScenarioFailLink, trace.ScenarioHealLink, trace.ScenarioFlapLink:
		return fmt.Sprintf("%v %s %d<->%d", e.At, e.Kind, e.A, e.B)
	case trace.ScenarioCrashSwitch, trace.ScenarioRestartSwitch:
		return fmt.Sprintf("%v %s %d", e.At, e.Kind, e.Sw)
	case trace.ScenarioCreateTenant, trace.ScenarioDeleteTenant, trace.ScenarioMcastGroup, trace.ScenarioMcastProbe:
		return fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Tenant)
	case trace.ScenarioMigrateHost:
		return fmt.Sprintf("%v %s %s -> %v", e.At, e.Kind, e.Tenant, e.Host)
	case trace.ScenarioFailWAN, trace.ScenarioHealWAN:
		return fmt.Sprintf("%v %s wan%d", e.At, e.Kind, e.A)
	case trace.ScenarioCrashGateway, trace.ScenarioRestartGateway:
		return fmt.Sprintf("%v %s %v", e.At, e.Kind, e.Host)
	default:
		return fmt.Sprintf("%v %s", e.At, e.Kind)
	}
}

// Violation is one failed invariant.
type Violation struct {
	Invariant string // "connectivity" | "no-loops" | "master-convergence" | "cache-convergence"
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report is the outcome of a scenario run.
type Report struct {
	Trace      []Event
	Violations []Violation
	// PingRetries counts connectivity probes that needed more than one
	// attempt during the check phase.
	PingRetries int
	// Timelines reconstructs one recovery story per injected fail-link /
	// crash-switch event, extracted from the engine's flight recorder.
	// Empty when the network runs without a tracer attached. Incomplete
	// timelines are informational, not violations: a link that flaps inside
	// the suppression window, or one healed before any host noticed,
	// legitimately produces a partial story.
	Timelines []trace.RecoveryTimeline
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Digest folds the event trace into one comparable value — the determinism
// golden: two same-seed runs must produce identical digests. It is FNV-1a
// over each event's line, from packet.FNVShortBasis, which the pinned chaos
// digests fix.
func (r *Report) Digest() uint64 {
	h := packet.FNVShortBasis
	for _, e := range r.Trace {
		h = packet.FNVMix(packet.FNV(h, e.String()), '\n')
	}
	return h
}

// TimelineSummary renders the recovery timelines as a human-readable block
// ("" when no tracer was attached).
func (r *Report) TimelineSummary() string {
	if len(r.Timelines) == 0 {
		return ""
	}
	var b strings.Builder
	complete := 0
	for i := range r.Timelines {
		if r.Timelines[i].Complete() {
			complete++
		}
	}
	fmt.Fprintf(&b, "recovery timelines: %d/%d complete\n", complete, len(r.Timelines))
	for i := range r.Timelines {
		b.WriteString(r.Timelines[i].String())
	}
	return b.String()
}

// runner is the one scenario loop every battery shares. It owns the
// config, the rng that draws every event, and the report; a battery
// supplies what it injects, audits, heals and checks.
type runner struct {
	target clock
	cfg    Config
	rng    *rand.Rand
	rep    *Report
}

// clock is the part of a target the loop drives: the home engine that
// stamps and traces events, and the run that advances it.
type clock interface {
	Engine() *sim.Engine
	RunFor(d sim.Time)
}

// battery is one family of faults: it injects event i (with any traffic
// that runs alongside), audits after each gap, heals every fault, and
// checks the post-heal invariants.
type battery interface {
	inject(i int)
	audit()
	healAll()
	check()
}

func newRunner(t clock, cfg Config) *runner {
	cfg = cfg.withDefaults()
	return &runner{target: t, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), rep: &Report{}}
}

// run drives b through the scenario: for each event, inject, draw the gap,
// run for it, and audit; after the last, heal everything, settle, and
// check.
func (r *runner) run(b battery) {
	for i := 0; i < r.cfg.Events; i++ {
		b.inject(i)
		gap := r.cfg.MeanGap/2 + sim.Time(r.rng.Int63n(int64(r.cfg.MeanGap)))
		r.target.RunFor(gap)
		b.audit()
	}
	b.healAll()
	r.target.RunFor(r.cfg.Settle)
	b.check()
}

// record stamps e with the current time, appends it to the report trace,
// and publishes it to the flight recorder. Multicast and WAN events stay
// out of the recorder, so enabling them does not shift what a traced run
// keeps.
func (r *runner) record(e Event) {
	e.At = r.target.Engine().Now()
	r.rep.Trace = append(r.rep.Trace, e)
	tr, at := r.target.Engine().Tracer(), int64(e.At)
	switch e.Kind {
	case trace.ScenarioMcastGroup, trace.ScenarioMcastProbe,
		trace.ScenarioFailWAN, trace.ScenarioHealWAN, trace.ScenarioCrashGateway,
		trace.ScenarioRestartGateway, trace.ScenarioHealAllWAN:
	case trace.ScenarioCreateTenant, trace.ScenarioDeleteTenant, trace.ScenarioMigrateHost:
		tr.ScenarioTenant(at, e.Kind, e.Host)
	case trace.ScenarioCrashSwitch, trace.ScenarioRestartSwitch:
		tr.Scenario(at, e.Kind, e.Sw, 0)
	default:
		tr.Scenario(at, e.Kind, e.A, e.B)
	}
}

func (r *runner) violate(inv, format string, args ...any) {
	r.rep.Violations = append(r.rep.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// linkBattery injects faults inside one fabric: lossy links, flaps, switch
// and controller crashes, tenant churn and multicast probes.
type linkBattery struct {
	*runner
	n Target
	// auditRng drives the mid-run route-cache audits. It is separate from
	// rng so auditing does not shift the event stream: the same Seed
	// produces the same scenario trace with or without audits enabled.
	auditRng *rand.Rand

	// The blueprint's cables and switches, fixed at Run: a cable is named by
	// its index in cables (its link is wires[c]), a switch by its dense
	// index, its position in ids.
	cables []topo.Link
	wires  []*sim.Link
	ids    []packet.SwitchID
	// The faults held, the lists Topology.Connected reads. cut is the
	// cables held down, ascending: failed ones, and flapping ones for the
	// whole phase (pessimistic, so a flap can never conspire with later
	// failures into a partition); flapping marks the flaps among them.
	// gone is the crashed switches, ascending.
	cut       []int
	flapping  []bool
	gone      []int32
	protected []int32 // switches under controller replicas
	ctrlDown  bool
	baseline  *topo.Topology // master view before any fault was injected

	// tenant churn state: the virtualization manager (nil disables all
	// tenancy invariants) and a counter naming churn-created tenants.
	mgr       *vnet.Manager
	tenantSeq int

	// multicast scenario state (Config.Mcast): the groups created before
	// impairment. probeMu guards in-flight probe delivery counts — probe
	// callbacks fire from per-shard dispatch workers in sharded runs.
	mcastGroups []mcastChaosGroup
	probeMu     sync.Mutex
}

// Run executes a chaos scenario against a bootstrapped network: impair,
// inject cfg.Events randomized fail/heal events (with background traffic),
// heal everything, settle, and check invariants. The network must be
// bootstrapped and warmed; CrashController additionally requires
// EnableReplicationAt to have run.
func Run(n Target, cfg Config) (*Report, error) {
	r, err := newLinkBattery(n, cfg)
	if err != nil {
		return nil, err
	}
	return r.runAs(r), nil
}

// newLinkBattery checks the target, builds the battery and impairs the
// fabric's links.
func newLinkBattery(n Target, cfg Config) (*linkBattery, error) {
	if cfg.CrashController && n.Group() == nil {
		return nil, fmt.Errorf("chaos: CrashController requires controller replication")
	}
	if cfg.TenantChurn && n.Vnet() == nil {
		return nil, fmt.Errorf("chaos: TenantChurn requires network virtualization (core.WithTenants)")
	}
	t := n.Topology()
	r := &linkBattery{
		runner:   newRunner(n, cfg),
		n:        n,
		auditRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		cables:   t.Links(),
		wires:    n.Fabric().Links(),
		ids:      t.SwitchIDs(),
		mgr:      n.Vnet(),
	}
	r.flapping = make([]bool, len(r.cables))
	// Never crash a switch that carries a controller replica: the
	// scenario tests failover between controllers, not the (hopeless)
	// case of every controller unreachable at once.
	ctrlMACs := []packet.MAC{n.Controller().MAC()}
	if g := n.Group(); g != nil {
		ctrlMACs = g.MACs()
	}
	for _, m := range ctrlMACs {
		if at, err := t.HostAt(m); err == nil {
			r.protected = append(r.protected, r.index(at.Switch))
		}
	}
	// The convergence invariant is "the master returns to its pre-chaos
	// state", not "the master equals the generator blueprint" — a
	// discovery-built master legitimately differs from the blueprint in
	// per-switch port counts (discovery caps them at the probe width).
	if mv := r.masterView(); mv != nil {
		r.baseline = mv.Clone()
	} else {
		return nil, fmt.Errorf("chaos: network has no master view (bootstrap it first)")
	}

	if r.cfg.Mcast {
		if err := r.setupMcastGroups(); err != nil {
			return nil, err
		}
	}

	r.n.Fabric().ImpairAllLinks(sim.Impairment{LossProb: r.cfg.Loss, CorruptProb: r.cfg.Corrupt, JitterMax: r.cfg.Jitter})
	r.record(Event{Kind: trace.ScenarioImpair})
	return r, nil
}

// runAs drives the scenario through b, which is r or a test's wrapper of
// it, and returns the report.
func (r *linkBattery) runAs(b battery) *Report {
	r.run(b)
	if tr := r.n.Engine().Tracer(); tr != nil {
		r.rep.Timelines = trace.ExtractTimelines(tr.Records())
	}
	return r.rep
}

// inject fires event i: the primary-controller crash one third of the way
// through when CrashController is set, otherwise a randomized step; then
// background traffic.
func (r *linkBattery) inject(i int) {
	if r.cfg.CrashController && i == r.cfg.Events/3 && !r.ctrlDown {
		r.n.Controller().Crash()
		r.ctrlDown = true
		r.record(Event{Kind: trace.ScenarioCrashCtrl})
	} else {
		r.step()
	}
	r.background()
}

// audit runs the mid-chaos invariants: route cache, tenant routes,
// multicast trees.
func (r *linkBattery) audit() {
	r.auditRouteCache()
	r.auditTenantRoutes()
	r.auditMcastTrees()
}

// index returns switch id's dense index.
func (r *linkBattery) index(id packet.SwitchID) int32 {
	i, _ := slices.BinarySearch(r.ids, id)
	return int32(i)
}

// crashed reports whether switch id is crashed.
func (r *linkBattery) crashed(id packet.SwitchID) bool {
	_, ok := slices.BinarySearch(r.gone, r.index(id))
	return ok
}

// severable reports whether the switch graph stays connected once cable c
// is cut on top of the faults held; crashable, once switch i crashes. The
// candidate goes past the end of the held list, which keeps any array the
// append grew for the next candidate.
func (r *linkBattery) severable(c int) bool {
	cut := append(r.cut, c)
	r.cut = cut[:len(cut)-1]
	return r.n.Topology().Connected(cut, r.gone)
}

func (r *linkBattery) crashable(i int32) bool {
	gone := append(r.gone, i)
	r.gone = gone[:len(gone)-1]
	return r.n.Topology().Connected(r.cut, gone)
}

// linkCandidates lists cables eligible for a new fail or flap: not held
// down, both ends alive, link up, and severable without partitioning.
func (r *linkBattery) linkCandidates() []int {
	var out []int
	for c, l := range r.cables {
		if _, held := slices.BinarySearch(r.cut, c); held || r.crashed(l.A) || r.crashed(l.B) || !r.wires[c].Up() {
			continue
		}
		if r.severable(c) {
			out = append(out, c)
		}
	}
	return out
}

// healCandidates lists the failed cables, ascending.
func (r *linkBattery) healCandidates() []int {
	var out []int
	for _, c := range r.cut {
		if !r.flapping[c] {
			out = append(out, c)
		}
	}
	return out
}

func (r *linkBattery) crashCandidates() []int32 {
	var out []int32
	for i := range int32(len(r.ids)) {
		if _, down := slices.BinarySearch(r.gone, i); down || slices.Contains(r.protected, i) {
			continue
		}
		if r.crashable(i) {
			out = append(out, i)
		}
	}
	return out
}

// insert adds x to the ascending list s; remove takes it out.
func insert[T cmp.Ordered](s []T, x T) []T {
	i, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, i, x)
}

func remove[T cmp.Ordered](s []T, x T) []T {
	i, _ := slices.BinarySearch(s, x)
	return slices.Delete(s, i, i+1)
}

// step injects one randomized event. The roll picks a preferred action;
// if that action has no eligible target the fixed fallback order keeps
// the event count honest.
func (r *linkBattery) step() {
	type action int
	const (
		actFail action = iota
		actHeal
		actFlap
		actCrash
		actRestart
		actCreateTenant
		actDeleteTenant
		actMigrateHost
	)
	// The roll widens only when churn is on, so existing seeds replay the
	// identical fault stream with tenancy disabled.
	var preferred action
	sides := 10
	if r.cfg.TenantChurn {
		sides = 13
	}
	switch roll := r.rng.Intn(sides); {
	case roll < 4:
		preferred = actFail
	case roll < 6:
		preferred = actHeal
	case roll < 8:
		preferred = actFlap
	case roll < 9:
		preferred = actCrash
	case roll < 10:
		preferred = actRestart
	case roll < 11:
		preferred = actCreateTenant
	case roll < 12:
		preferred = actDeleteTenant
	default:
		preferred = actMigrateHost
	}
	order := []action{preferred, actFail, actHeal, actFlap, actCrash, actRestart}
	if r.cfg.TenantChurn {
		order = append(order, actCreateTenant, actDeleteTenant, actMigrateHost)
	}
	for _, act := range order {
		switch act {
		case actFail:
			if c := r.linkCandidates(); len(c) > 0 {
				cb := c[r.rng.Intn(len(c))]
				r.wires[cb].Fail()
				r.cut = insert(r.cut, cb)
				r.record(Event{Kind: trace.ScenarioFailLink, A: r.cables[cb].A, B: r.cables[cb].B})
				return
			}
		case actHeal:
			if c := r.healCandidates(); len(c) > 0 {
				cb := c[r.rng.Intn(len(c))]
				r.wires[cb].Restore()
				r.cut = remove(r.cut, cb)
				r.record(Event{Kind: trace.ScenarioHealLink, A: r.cables[cb].A, B: r.cables[cb].B})
				return
			}
		case actFlap:
			if !r.cfg.Flap {
				continue
			}
			if c := r.linkCandidates(); len(c) > 0 {
				cb := c[r.rng.Intn(len(c))]
				downFor := 20*sim.Millisecond + sim.Time(r.rng.Int63n(int64(80*sim.Millisecond)))
				upFor := 20*sim.Millisecond + sim.Time(r.rng.Int63n(int64(80*sim.Millisecond)))
				cycles := 2 + r.rng.Intn(3)
				r.wires[cb].StartFlap(0, downFor, upFor, cycles)
				r.cut = insert(r.cut, cb)
				r.flapping[cb] = true
				r.record(Event{Kind: trace.ScenarioFlapLink, A: r.cables[cb].A, B: r.cables[cb].B})
				return
			}
		case actCrash:
			if !r.cfg.CrashSwitches {
				continue
			}
			if c := r.crashCandidates(); len(c) > 0 {
				i := c[r.rng.Intn(len(c))]
				_ = r.n.CrashSwitch(r.ids[i])
				r.gone = insert(r.gone, i)
				r.record(Event{Kind: trace.ScenarioCrashSwitch, Sw: r.ids[i]})
				return
			}
		case actRestart:
			if len(r.gone) > 0 {
				i := r.gone[r.rng.Intn(len(r.gone))]
				_ = r.n.RestartSwitch(r.ids[i])
				r.gone = remove(r.gone, i)
				r.record(Event{Kind: trace.ScenarioRestartSwitch, Sw: r.ids[i]})
				return
			}
		case actCreateTenant:
			if r.createTenant() {
				return
			}
		case actDeleteTenant:
			if r.deleteTenant() {
				return
			}
		case actMigrateHost:
			if r.migrateHost() {
				return
			}
		}
	}
	r.record(Event{Kind: trace.ScenarioIdle})
}

// freeHosts lists non-controller hosts not owned by any tenant, in the
// target's deterministic order.
func (r *linkBattery) freeHosts() []packet.MAC {
	var out []packet.MAC
	for _, m := range r.n.Hosts() {
		if _, owned := r.mgr.TenantOf(m); !owned {
			out = append(out, m)
		}
	}
	return out
}

// createTenant carves a fresh tenant out of a contiguous run of free hosts.
func (r *linkBattery) createTenant() bool {
	if r.mgr == nil {
		return false
	}
	free := r.freeHosts()
	size := r.cfg.TenantSize
	if len(free) < size {
		return false
	}
	start := r.rng.Intn(len(free) - size + 1)
	id := vnet.TenantID(fmt.Sprintf("chaos-%d", r.tenantSeq))
	if _, err := r.mgr.CreateTenant(r.masterView(), id, free[start:start+size]); err != nil {
		return false
	}
	r.tenantSeq++
	r.record(Event{Kind: trace.ScenarioCreateTenant, Tenant: string(id)})
	return true
}

// deleteTenant tears a random tenant down, asserting zero blast radius on
// every other tenant's routes.
func (r *linkBattery) deleteTenant() bool {
	if r.mgr == nil {
		return false
	}
	ids := r.mgr.Tenants()
	if len(ids) == 0 {
		return false
	}
	id := ids[r.rng.Intn(len(ids))]
	before := r.snapshotOthers(id)
	if err := r.mgr.DeleteTenant(id); err != nil {
		return false
	}
	r.assertOthersStable(id, "delete-tenant", before)
	r.record(Event{Kind: trace.ScenarioDeleteTenant, Tenant: string(id)})
	return true
}

// migrateHost swaps a random member of a random tenant for a free host,
// asserting zero blast radius on every other tenant's routes.
func (r *linkBattery) migrateHost() bool {
	if r.mgr == nil {
		return false
	}
	ids := r.mgr.Tenants()
	free := r.freeHosts()
	if len(ids) == 0 || len(free) == 0 {
		return false
	}
	id := ids[r.rng.Intn(len(ids))]
	members, err := r.mgr.Members(id)
	if err != nil || len(members) == 0 {
		return false
	}
	from := members[r.rng.Intn(len(members))]
	to := free[r.rng.Intn(len(free))]
	before := r.snapshotOthers(id)
	if err := r.mgr.MigrateHost(r.masterView(), id, from, to); err != nil {
		return false
	}
	r.assertOthersStable(id, "migrate-host", before)
	r.record(Event{Kind: trace.ScenarioMigrateHost, Tenant: string(id), Host: to})
	return true
}

// stableProbe is one other-tenant route answer captured before a mutation.
type stableProbe struct {
	tenant   vnet.TenantID
	src, dst packet.MAC
	wire     []byte
	ok       bool
}

// snapshotOthers records, for every tenant except exclude, the controller's
// wire answer for that tenant's first member pair. Because mutating one
// tenant bumps neither other tenants' generations nor the master topology
// generation, these answers must come back byte-identical afterwards.
func (r *linkBattery) snapshotOthers(exclude vnet.TenantID) []stableProbe {
	ctrl := r.activeCtrl()
	if ctrl == nil {
		return nil
	}
	var out []stableProbe
	for _, id := range r.mgr.Tenants() {
		if id == exclude {
			continue
		}
		members, err := r.mgr.Members(id)
		if err != nil || len(members) < 2 {
			continue
		}
		p := stableProbe{tenant: id, src: members[0], dst: members[1]}
		if ans, err := ctrl.Resolve(controller.RouteQuery{Src: p.src, Dst: p.dst,
			Tenant: string(id), Scope: controller.ScopeTenant}); err == nil {
			p.wire = append([]byte(nil), ans.Wire...)
			p.ok = true
		}
		out = append(out, p)
	}
	return out
}

// assertOthersStable re-probes every snapshot and flags any drift as a
// tenant-blast-radius violation: mutating one tenant must not perturb
// another tenant's routes.
func (r *linkBattery) assertOthersStable(mutated vnet.TenantID, kind string, before []stableProbe) {
	ctrl := r.activeCtrl()
	if ctrl == nil {
		return
	}
	for _, p := range before {
		ans, err := ctrl.Resolve(controller.RouteQuery{Src: p.src, Dst: p.dst,
			Tenant: string(p.tenant), Scope: controller.ScopeTenant})
		if p.ok {
			if err != nil {
				r.violate("tenant-blast-radius", "%s of %s broke tenant %s route %v->%v: %v",
					kind, mutated, p.tenant, p.src, p.dst, err)
				continue
			}
			if !bytes.Equal(p.wire, ans.Wire) {
				r.violate("tenant-blast-radius", "%s of %s changed tenant %s route %v->%v",
					kind, mutated, p.tenant, p.src, p.dst)
			}
		} else if err == nil {
			r.violate("tenant-blast-radius", "%s of %s made tenant %s route %v->%v appear",
				kind, mutated, p.tenant, p.src, p.dst)
		}
	}
}

// background fires a little best-effort traffic between events so the
// datapath, retry and blackhole machinery actually run under impairment.
// With virtualization installed, a pair that crosses an isolation boundary
// at send time arms a sensor: if such a ping ever completes, a tenant
// boundary leaked a packet. (Armed at send time only — membership may
// legally change while a frame is in flight, but a ping issued across a
// boundary must be refused before any payload reaches the far host.)
func (r *linkBattery) background() {
	hosts := r.n.Hosts()
	if len(hosts) < 2 {
		return
	}
	for i := 0; i < 2; i++ {
		src := hosts[r.rng.Intn(len(hosts))]
		dst := hosts[r.rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		if r.mgr.CrossDomain(src, dst) {
			s, d := src, dst
			_ = r.n.Ping(s, d, func(sim.Time) {
				r.violate("tenant-isolation", "cross-tenant ping %v -> %v completed", s, d)
			})
			continue
		}
		_ = r.n.Ping(src, dst, func(sim.Time) {})
	}
	// One multicast probe per gap keeps trees forwarding — and the
	// at-most-once / blast-radius sensors armed — while faults land.
	// (Flag-gated rng draw: seeds without Mcast replay identically.)
	if r.cfg.Mcast && len(r.mcastGroups) > 0 {
		r.probeMcast(r.mcastGroups[r.rng.Intn(len(r.mcastGroups))], false)
	}
	// Keep at least one intra-tenant flow alive so slice routing itself is
	// exercised under faults, not just refused at the boundary.
	if r.cfg.TenantChurn && r.mgr != nil {
		ids := r.mgr.Tenants()
		if len(ids) > 0 {
			id := ids[r.rng.Intn(len(ids))]
			if members, err := r.mgr.Members(id); err == nil && len(members) >= 2 {
				_ = r.n.Ping(members[0], members[1], func(sim.Time) {})
			}
		}
	}
}

// healAll reverses every injected fault: flaps stopped and links raised,
// failed links restored, crashed switches and the controller restarted,
// impairments cleared.
func (r *linkBattery) healAll() {
	for _, c := range r.cut {
		if r.flapping[c] {
			r.wires[c].StopFlap()
			r.flapping[c] = false
		}
		r.wires[c].Restore()
	}
	r.cut = r.cut[:0]
	for _, i := range r.gone {
		_ = r.n.RestartSwitch(r.ids[i])
	}
	r.gone = r.gone[:0]
	if r.ctrlDown {
		r.n.Controller().Restart()
		r.ctrlDown = false
		r.record(Event{Kind: trace.ScenarioRestartCtrl})
	}
	r.n.Fabric().ImpairAllLinks(sim.Impairment{})
	r.record(Event{Kind: trace.ScenarioHealAll})
}
