package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dumbnet/internal/chaos"
	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/mcast"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// chaos-soak: the robustness path. Every round builds a fresh leaf-spine
// deployment (untimed; its time is the workload's set-up) with three
// controller replicas, three static tenants, telemetry and the flight
// recorder on, and runs one chaos scenario over it: 1 % loss, link failures,
// flaps, switch crashes, the primary controller's crash, multicast probes,
// then heal and the full invariant sweep. The scenarios are the chaos seeds in
// chaosScripts, each on a fabric seeded with the same number, so a scenario
// plays out the same way in every run; --seed draws the order they cycle in.
// With a script of its own per (seed, round), the slowest and the hungriest
// scenario a run happened to meet set its median and its peak RSS, and both
// moved by 10-20 % from seed to seed.

const (
	chaosSpines, chaosLeaves, chaosHostsPerLeaf = 2, 8, 4
	chaosTenants                                = 3
	chaosEvents                                 = 32
)

// chaosScripts are the scenarios: chaos seeds 1-16, all of which hold every
// invariant with the controller crash on, at the full and the smoke size. Of
// seeds 1-40, 24 and 34 do not: a primary crash with static tenants leaves
// the new primary's master short of links after heal (README, "Found while
// building the workloads"). That is for a correctness issue; a benchmark's
// operations must not fail, so the set is fixed to seeds that pass.
var chaosScripts = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

type chaosRound struct {
	timelines []int64 // complete recovery timelines, virtual ns
	virtual   sim.Time
	digest    uint64
}

type chaosSoak struct {
	cfg   runConfig
	tr    *tracer
	order []int64 // chaosScripts in this run's order

	n      *core.Network // this round's deployment
	rec    *trace.Recorder
	rounds []chaosRound
	digest uint64
	totals metricSet // counters summed over measured rounds (traced runs)
}

func setupChaos(cfg runConfig, tr *tracer) (instance, error) {
	c := &chaosSoak{cfg: cfg, tr: tr, digest: fnvBasis, totals: metricSet{}}
	for _, j := range rand.New(rand.NewSource(cfg.Seed)).Perm(len(chaosScripts)) {
		c.order = append(c.order, chaosScripts[j])
	}
	return c, nil
}

// script is round i's chaos seed. The warm round, i = -1, takes the same one
// on every seed: heap_live_mib is read while its deployment is still held.
func (c *chaosSoak) script(i int) int64 {
	if i < 0 {
		return chaosScripts[0]
	}
	return c.order[i%len(c.order)]
}

// prepare builds, boots and warms round i's deployment.
func (c *chaosSoak) prepare(i int) (time.Duration, error) {
	// Collect the previous round's deployment first, outside the timed
	// build, so the heap a round starts from does not depend on when the
	// collector last happened to run.
	c.n, c.rec = nil, nil
	runtime.GC()
	t0 := time.Now()
	leaves, perLeaf, events := chaosLeaves, chaosHostsPerLeaf, chaosEvents
	if c.cfg.Smoke {
		leaves, perLeaf, events = 4, 3, 8
	}
	var tp *topo.Topology
	if err := c.tr.do("topo.generate", func() (err error) {
		tp, err = topo.LeafSpine(chaosSpines, leaves, perLeaf, 0)
		return err
	}); err != nil {
		return 0, err
	}
	script := c.script(i)
	ccfg := chaos.DefaultConfig(script)
	ccfg.Events = events
	ccfg.Loss = 0.01
	ccfg.Mcast = true
	ccfg.CrashController = true
	c.rec = trace.NewRecorder(trace.DefaultConfig())
	if err := c.tr.do("fabric.build", func() (err error) {
		c.n, err = core.New(tp,
			core.WithSeed(script),
			core.WithTracer(c.rec),
			core.WithTenants(chaosTenants),
			core.WithTelemetry(telemetry.DefaultConfig()),
			core.WithChaos(ccfg))
		return err
	}); err != nil {
		return 0, err
	}
	if err := c.tr.do("controller.bootstrap", c.n.Bootstrap); err != nil {
		return 0, err
	}
	// Warm, then promote two fabric-attached hosts to controller replicas —
	// the order of the emulator's `-chaos -ctrl-crash` recipe.
	if err := c.tr.do("controller.warm", func() error {
		c.n.WarmAll()
		hosts := c.n.Hosts()
		_, err := c.n.EnableReplicationAt([]core.MAC{hosts[len(hosts)/3], hosts[2*len(hosts)/3]})
		return err
	}); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (c *chaosSoak) round(i int, rec *roundRec) error {
	var before metricSet
	if c.cfg.Trace {
		before = c.counters()
	}
	recv0 := received(c.n)
	t0 := c.n.Eng.Now()
	rep, err := c.n.RunChaos()
	if err != nil {
		return err
	}
	rec.work = int64(received(c.n) - recv0)
	rec.attempted = 1
	if !rep.Ok() {
		rec.failed = 1
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "chaos-soak round %d (chaos and fabric seed %d): %v\n", i, c.script(i), v)
		}
	}
	if i < 0 {
		return nil
	}
	r := chaosRound{virtual: c.n.Eng.Now() - t0}
	for j := range rep.Timelines {
		if tl := &rep.Timelines[j]; tl.Complete() {
			r.timelines = append(r.timelines, tl.Duration())
		}
	}
	c.digest = fnv(c.digest, rep.Digest())
	r.digest = c.digest
	c.rounds = append(c.rounds, r)
	if c.cfg.Trace {
		c.counters().minus(before).into(c.totals)
		c.totals["chaos.events"] += float64(len(rep.Trace))
		c.totals["chaos.violations"] += float64(len(rep.Violations))
		c.totals["chaos.ping_retries"] += float64(rep.PingRetries)
	}
	return nil
}

// received sums the data frames every agent has delivered.
func received(n *core.Network) uint64 {
	total := n.Agent(n.Ctrl.MAC()).Stats().Received
	for _, h := range n.Hosts() {
		total += n.Agent(h).Stats().Received
	}
	return total
}

func (c *chaosSoak) counters() metricSet {
	m := netCounters(c.n, c.rec)
	if hub := c.n.Telemetry(); hub != nil {
		m["telemetry.flushes"] = float64(hub.Flushes())
		m["telemetry.tap_dropped"] = float64(hub.TapDropped())
		m["telemetry.raised"] = float64(hub.Raised())
	}
	return m
}

func (c *chaosSoak) simStats(pin int) simStats {
	if pin > len(c.rounds) {
		pin = len(c.rounds)
	}
	var st simStats
	for _, r := range c.rounds[:pin] {
		for _, d := range r.timelines {
			st.latencyUs = append(st.latencyUs, float64(d)/1e3)
		}
		st.completionS += r.virtual.Seconds()
	}
	if pin > 0 {
		st.digest = c.rounds[pin-1].digest
	}
	return st
}

func (c *chaosSoak) collect(m metricSet) {
	c.totals.into(m)
	netGauges(c.n, m)
	// The replicated log of the last round's deployment, as the leader the
	// replicas elected after the primary's crash holds it.
	if g := c.n.Group(); g != nil {
		if l := g.Cluster.Leader(); l != nil {
			m["consensus.commit_index"] = float64(l.CommitIndex())
			m["consensus.term"] = float64(l.Term())
		}
	}
}

func (c *chaosSoak) kernels(k *kernelSet) {
	k.traceKernel()
	k.telemetryKernels(c.n.Topo.NumSwitches(), chaosLeaves+chaosHostsPerLeaf)
	// The two caches no other workload reads: a tenant-scoped route and a
	// multicast tree, both warm, on the last round's surviving controller.
	ctrl := c.n.Ctrl
	if g := c.n.Group(); g != nil {
		if p := g.Primary(); p != nil {
			ctrl = p
		}
	}
	if v := c.n.Vnet(); v != nil && v.Count() > 0 {
		id := v.Tenants()[0]
		if members, err := v.Members(id); err == nil && len(members) >= 2 {
			q := controller.RouteQuery{Src: members[0], Dst: members[len(members)-1], Tenant: string(id), Scope: controller.ScopeTenant}
			if _, err := ctrl.Resolve(q); err == nil {
				k.time("vnet.lookup_warm_ns", 1, func() {
					a, _ := ctrl.Resolve(q)
					kernelSink += len(a.Wire)
				}, nil)
			}
		}
	}
	svc := c.n.Ctrl.Mcast() // groups are registered at the bootstrap controller
	if groups := svc.Groups(); len(groups) > 0 {
		if members, ok := svc.Members(groups[0]); ok && len(members) > 0 {
			q := controller.RouteQuery{Src: members[0], Group: mcast.GroupID(groups[0]), Scope: controller.ScopeTree}
			if _, err := c.n.Ctrl.Resolve(q); err == nil {
				k.time("mcast.tree_warm_ns", 1, func() {
					a, _ := c.n.Ctrl.Resolve(q)
					kernelSink += len(a.Wire)
				}, nil)
			}
		}
	}
}

func (c *chaosSoak) close() {}
