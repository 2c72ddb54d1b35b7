package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// route-churn: the controller's route service under cold caches. A round
// sends the first data frame of churnPairs never-seen host pairs (a path
// miss, a controller round trip, then delivery). Every churnFailEvery-th
// round also fails the aggregation–core link under a live probe stream,
// restores it and re-requests churnPairs already-resolved pairs (the
// post-invalidation path). Every churnBlock rounds the deployment is rebuilt
// (untimed, counted as set-up): a host that has been a source many times
// carries an ever larger cached topology, and without the rebuild a round
// costs more the longer the run lasts — 48 ms in a 5 s run, 71 ms in a 15 s
// one — so the median would measure the run length.

const (
	churnPairs     = 48
	churnFailEvery = 8
	churnBlock     = 16 // rounds per deployment
	churnProbes    = 100
	churnProbeGap  = 20 * sim.Microsecond
	churnFailAfter = 10 // probes sent before the link is cut
)

type churnRound struct {
	latencies []sim.Time // first-frame latency of each fresh pair
	virtual   sim.Time
	digest    uint64
}

type routeChurn struct {
	cfg runConfig
	tr  *tracer

	n      *core.Network // the current block's deployment
	rec    *trace.Recorder
	hosts  []core.MAC
	rng    *rand.Rand
	used   map[[2]int]bool
	done   [][2]int // pairs resolved on this deployment, in resolution order
	probe  [2]core.MAC
	frame  []byte
	sentAt sim.Time

	cur      *churnRound
	digest   uint64
	rounds   []churnRound
	failover []float64 // virtual µs from link cut to first answered probe
	base     metricSet // counters when this deployment's measured rounds began
	totals   metricSet // counters of earlier deployments (traced runs)
	heapBase float64
}

func setupRouteChurn(cfg runConfig, tr *tracer) (instance, error) {
	c := &routeChurn{
		cfg: cfg, tr: tr, rng: rand.New(rand.NewSource(cfg.Seed)), used: map[[2]int]bool{},
		frame: make([]byte, 64), digest: fnvBasis, totals: metricSet{},
	}
	return c, c.build()
}

// build deploys a cold fabric: nothing is warmed but the probe pair.
func (c *routeChurn) build() error {
	c.rec, c.done = newTracedRecorder(c.cfg.Trace), nil
	k, hpe := fatTreeSize(c.cfg.Smoke)
	var tp *topo.Topology
	if err := c.tr.do("topo.generate", func() (err error) {
		tp, err = topo.FatTree(k, hpe, 0)
		return err
	}); err != nil {
		return err
	}
	opts := []core.Option{core.WithSeed(c.cfg.Seed), core.WithHostFlood(false)}
	if c.rec != nil {
		opts = append(opts, core.WithTracer(c.rec))
	}
	if err := c.tr.do("fabric.build", func() (err error) {
		c.n, err = core.New(tp, opts...)
		return err
	}); err != nil {
		return err
	}
	if err := c.tr.do("controller.bootstrap", c.n.Bootstrap); err != nil {
		return err
	}
	c.hosts = c.n.Hosts()
	for i, h := range c.hosts {
		i := i
		if err := c.n.OnReceive(h, func(src core.MAC, _ []byte) {
			lat := c.n.Eng.Now() - c.sentAt
			c.cur.latencies = append(c.cur.latencies, lat)
			c.digest = fnv(fnv(fnv(c.digest, macBits(src)), uint64(i)), uint64(lat))
		}); err != nil {
			return err
		}
	}
	// The probe pair spans the fabric (first host to last, different pods)
	// and is the only route warmed before the rounds start.
	last := len(c.hosts) - 1
	c.probe = [2]core.MAC{c.hosts[0], c.hosts[last]}
	c.used[[2]int{0, last}], c.used[[2]int{last, 0}] = true, true
	return c.tr.do("controller.warm", func() error {
		if err := c.n.Agent(c.probe[0]).WarmUp(c.probe[1]); err != nil {
			return err
		}
		if err := c.n.Agent(c.probe[1]).WarmUp(c.probe[0]); err != nil {
			return err
		}
		c.n.Run()
		return nil
	})
}

// prepare rebuilds the deployment at every block boundary.
func (c *routeChurn) prepare(i int) (time.Duration, error) {
	var took time.Duration
	if i > 0 && i%churnBlock == 0 {
		if c.cfg.Trace {
			c.flush()
		}
		c.n = nil
		runtime.GC()
		t0 := time.Now()
		if err := c.build(); err != nil {
			return 0, err
		}
		took = time.Since(t0)
	}
	if i >= 0 && i%churnBlock == 0 && c.cfg.Trace {
		c.base = netCounters(c.n, c.rec)
		c.heapBase = heapAfterGC()
	}
	return took, nil
}

// flush adds the current deployment's measured counters to the totals.
func (c *routeChurn) flush() {
	netCounters(c.n, c.rec).minus(c.base).into(c.totals)
}

// fresh draws a host pair no earlier round has used.
func (c *routeChurn) fresh() ([2]int, error) {
	if n := len(c.hosts); len(c.used) >= n*(n-1) {
		return [2]int{}, fmt.Errorf("all %d host pairs have been used", n*(n-1))
	}
	for {
		p := [2]int{c.rng.Intn(len(c.hosts)), c.rng.Intn(len(c.hosts))}
		if p[0] != p[1] && !c.used[p] {
			c.used[p] = true
			return p, nil
		}
	}
}

func (c *routeChurn) round(i int, rec *roundRec) error {
	c.cur = &churnRound{}
	c.sentAt = c.n.Eng.Now()
	failing := i >= 0 && (i+1)%churnFailEvery == 0
	t0 := time.Now()
	pairs := make([][2]int, churnPairs)
	for j := range pairs {
		var err error
		if pairs[j], err = c.fresh(); err != nil {
			return err
		}
		if err := c.n.Send(c.hosts[pairs[j][0]], c.hosts[pairs[j][1]], c.frame); err != nil {
			return err
		}
	}
	rec.injectNs = time.Since(t0).Nanoseconds()
	rec.pending = c.n.Eng.Pending()
	c.n.Run()

	requested := pairs
	if failing {
		// Cut the link under the probe stream, let the fabric converge, and
		// restore it. Requests are held back until the link is back: a host
		// whose (static) controller path crosses the dead link cannot reach
		// the controller at all, and would abandon its query.
		probes, err := c.startProbes()
		if err != nil {
			return err
		}
		c.n.Run()
		if err := c.n.RestoreLink(probes.a, probes.b); err != nil {
			return err
		}
		c.n.Run()
		// Cut and restore each bumped the master's generation, so every
		// cached answer is stale: asking again for resolved pairs walks the
		// invalidation path.
		again := make([][2]int, 0, churnPairs)
		for _, j := range c.rng.Perm(len(c.done)) {
			if len(again) == churnPairs {
				break
			}
			again = append(again, c.done[j])
		}
		for _, p := range again {
			a := c.n.Agent(c.hosts[p[0]])
			a.Table().Invalidate(c.hosts[p[1]])
			if err := a.WarmUp(c.hosts[p[1]]); err != nil {
				return err
			}
		}
		c.n.Run()
		requested = append(requested, again...)
		rec.attempted++
		if us, ok := probes.failover(); ok {
			c.failover = append(c.failover, us)
		} else {
			rec.failed++ // the stream never recovered
		}
	}

	answered := int64(0)
	for _, p := range requested {
		if c.n.Agent(c.hosts[p[0]]).RoutesReady(c.hosts[p[1]]) {
			answered++
		}
	}
	c.done = append(c.done, pairs...)
	delivered := int64(len(c.cur.latencies))
	rec.work = answered
	rec.attempted += int64(len(requested)) + churnPairs
	rec.failed += (int64(len(requested)) - answered) + (churnPairs - delivered)
	if i >= 0 {
		c.cur.virtual, c.cur.digest = c.n.Eng.Now()-c.sentAt, c.digest
		c.rounds = append(c.rounds, *c.cur)
	}
	return nil
}

// probeStream is a train of pings across a link that is cut mid-train.
type probeStream struct {
	a, b   core.SwitchID // the link that fails
	failAt sim.Time
	sent   []sim.Time
	rtt    []sim.Time
}

// startProbes schedules the train on the probe pair's current path and the
// cut of that path's aggregation–core link.
func (c *routeChurn) startProbes() (*probeStream, error) {
	src := c.n.Agent(c.probe[0])
	entry := src.Table().Lookup(c.probe[1])
	if entry == nil || len(entry.Paths) == 0 {
		return nil, fmt.Errorf("probe pair has no route")
	}
	idx := src.Chooser.Choose(c.n.Eng.Now(), host.FlowKey{Dst: c.probe[1]}, len(entry.Paths))
	if idx < 0 || idx >= len(entry.Paths) {
		idx = 0
	}
	hops := entry.Paths[idx].Hops
	if len(hops) < 3 {
		return nil, fmt.Errorf("probe path has %d hops, want a cross-pod path", len(hops))
	}
	up := hops[1] // edge -> aggregation is hop 0, aggregation -> core hop 1
	ep, err := c.n.Topo.EndpointAt(up.Switch, up.Port)
	if err != nil || ep.Kind != topo.EndpointSwitch {
		return nil, fmt.Errorf("probe path hop 1 is not a switch link")
	}
	now := c.n.Eng.Now()
	ps := &probeStream{
		a: up.Switch, b: ep.Switch,
		failAt: now + churnFailAfter*churnProbeGap,
		sent:   make([]sim.Time, churnProbes), rtt: make([]sim.Time, churnProbes),
	}
	for j := 0; j < churnProbes; j++ {
		j := j
		ps.rtt[j] = -1
		c.n.Eng.At(now+sim.Time(j)*churnProbeGap, func() {
			ps.sent[j] = c.n.Eng.Now()
			_ = c.n.Ping(c.probe[0], c.probe[1], func(rtt sim.Time) { ps.rtt[j] = rtt })
		})
	}
	c.n.Eng.At(ps.failAt, func() { _ = c.n.FailLink(ps.a, ps.b) })
	return ps, nil
}

// failover is the virtual time from the cut to the first reply to a probe
// sent after it.
func (ps *probeStream) failover() (us float64, ok bool) {
	for j, rtt := range ps.rtt {
		if rtt >= 0 && ps.sent[j] >= ps.failAt {
			return float64(ps.sent[j]+rtt-ps.failAt) / 1e3, true
		}
	}
	return 0, false
}

func (c *routeChurn) simStats(pin int) simStats {
	if pin > len(c.rounds) {
		pin = len(c.rounds)
	}
	var st simStats
	for _, r := range c.rounds[:pin] {
		for _, l := range r.latencies {
			st.latencyUs = append(st.latencyUs, float64(l)/1e3)
		}
		st.completionS += r.virtual.Seconds()
	}
	if pin > 0 {
		st.digest = c.rounds[pin-1].digest
	}
	return st
}

func (c *routeChurn) collect(m metricSet) {
	c.flush()
	c.totals.into(m)
	netGauges(c.n, m)
	if len(c.failover) > 0 {
		s := append([]float64(nil), c.failover...)
		sort.Float64s(s)
		m["host.failover_virtual_us_p50"] = quantile(s, 0.5)
	}
	// Heap held per cached route: since this deployment's first measured
	// round the service grew from the probe pair to every resolved pair.
	if entries := c.n.Ctrl.Routes().Len(); entries > 0 && c.heapBase > 0 {
		m["controller.bytes_per_entry"] = (heapAfterGC() - c.heapBase) / float64(entries)
	}
}

func (c *routeChurn) kernels(k *kernelSet) {
	k.simKernels()
	k.routeKernels(c.n, true)
}

func (c *routeChurn) close() {}
