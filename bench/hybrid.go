package main

import (
	"math/rand"
	"time"

	"dumbnet/internal/core"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
	jobs "dumbnet/internal/workload"
)

// hybrid-hibench: the HiBench job suite on the hybrid packet/fluid engine.
// A round is one pass of the five jobs with every shuffle bounded to
// hibenchWidth peers. The width is pinned because cost is a cliff in it
// (4 -> 0.4 s, 5 -> 1.3 s, 6 -> 6.7 s, 8 -> 41 s per pass at k=16).

const (
	hibenchWidth   = 5
	hibenchInputGB = 0.25
)

type hybridRound struct {
	durs   []sim.Time
	now    sim.Time
	digest uint64
}

type hybridBench struct {
	n       *core.Network
	rec     *trace.Recorder
	tr      *tracer
	cluster *jobs.Cluster
	suite   []jobs.Job

	start    sim.Time
	rounds   []hybridRound
	base     metricSet
	bytesPer float64
}

func setupHybrid(cfg runConfig, tr *tracer) (instance, error) {
	h := &hybridBench{rec: newTracedRecorder(cfg.Trace), tr: tr}
	k, hpe := fatTreeSize(cfg.Smoke)
	var tp *topo.Topology
	if err := tr.do("topo.generate", func() (err error) {
		tp, err = topo.FatTree(k, hpe, 0)
		return err
	}); err != nil {
		return nil, err
	}
	opts := []core.Option{core.WithSeed(cfg.Seed), core.WithHybridFlows(hybrid.Config{})}
	if h.rec != nil {
		opts = append(opts, core.WithTracer(h.rec))
	}
	if err := tr.do("fabric.build", func() (err error) {
		h.n, err = core.New(tp, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("controller.bootstrap", h.n.Bootstrap); err != nil {
		return nil, err
	}

	// Workers sit on the hosts in address order, so a worker's shuffle peers
	// are its neighbours on the same edge switch and the next. The seed picks
	// the order the five jobs run in, not the placement: which few flows
	// share a core link decides how large the coupled max-min components
	// get, and a seeded placement moved the cost of a pass by +-20% (a
	// uniformly random one by 20x), which would drown any change under test.
	h.cluster = &jobs.Cluster{Layer: h.n.Hybrid()}
	for _, m := range h.n.Hosts() {
		h.cluster.Agents = append(h.cluster.Agents, h.n.Agent(m))
		h.cluster.MACs = append(h.cluster.MACs, m)
	}
	workers := h.cluster.Workers()
	suite := jobs.HiBenchSuiteWidth(workers, hibenchWidth, hibenchInputGB)
	for _, j := range rand.New(rand.NewSource(cfg.Seed)).Perm(len(suite)) {
		h.suite = append(h.suite, suite[j])
	}

	// Warm every pair the shuffles use, so a stage admits its whole batch
	// of flows on one engine tick.
	var err error
	h.bytesPer, err = bytesPerEntry(cfg.Trace, h.n, tr, func() error {
		for s := 0; s < workers; s++ {
			for i := 1; i <= hibenchWidth && i < workers; i++ {
				if err := h.cluster.Agents[s].WarmUp(h.cluster.MACs[(s+i)%workers]); err != nil {
					return err
				}
			}
		}
		h.n.Run()
		return nil
	})
	return h, err
}

func (h *hybridBench) prepare(i int) (time.Duration, error) {
	if i == 0 {
		h.start = h.n.Eng.Now()
		h.base = h.counters()
	}
	return 0, nil
}

func (h *hybridBench) round(i int, rec *roundRec) error {
	before := h.n.Hybrid().Stats()
	durs := make([]sim.Time, 0, len(h.suite))
	for _, job := range h.suite {
		id := h.tr.begin("workload.job")
		d, err := jobs.RunJobOnFabric(job, h.cluster)
		h.tr.end(id)
		if err != nil {
			return err
		}
		durs = append(durs, d)
	}
	after := h.n.Hybrid().Stats()
	rec.work = int64(after.Completed - before.Completed)
	rec.attempted = int64(after.Opened - before.Opened)
	rec.failed = int64(after.Failed-before.Failed) + int64(after.Active)
	if i >= 0 {
		h.rounds = append(h.rounds, hybridRound{durs: durs, now: h.n.Eng.Now(), digest: h.n.Hybrid().Digest()})
	}
	return nil
}

func (h *hybridBench) simStats(pin int) simStats {
	if pin > len(h.rounds) {
		pin = len(h.rounds)
	}
	var st simStats
	for _, r := range h.rounds[:pin] {
		for _, d := range r.durs {
			st.latencyUs = append(st.latencyUs, float64(d)/1e3)
		}
	}
	if pin > 0 {
		st.completionS = (h.rounds[pin-1].now - h.start).Seconds()
		st.digest = h.rounds[pin-1].digest
	}
	return st
}

func (h *hybridBench) counters() metricSet {
	m := netCounters(h.n, h.rec)
	st := h.n.Hybrid().Stats()
	settles, rerates := h.n.Hybrid().FluidDebug()
	m["hybrid.flows_completed"] = float64(st.Completed)
	m["hybrid.flows_failed"] = float64(st.Failed)
	m["hybrid.rerouted"] = float64(st.Rerouted)
	m["hybrid.settles"] = float64(settles)
	m["hybrid.rerates"] = float64(rerates)
	return m
}

func (h *hybridBench) collect(m metricSet) {
	h.counters().minus(h.base).into(m)
	netGauges(h.n, m)
	if done := m["hybrid.flows_completed"]; done > 0 {
		m["hybrid.rerates_per_flow"] = m["hybrid.rerates"] / done
	}
	m["controller.bytes_per_entry"] = h.bytesPer
}

func (h *hybridBench) kernels(k *kernelSet) {
	k.flowsimKernel()
	k.routeKernels(h.n, false)
	// One warmed transfer through the layer: route reservation, fluid
	// admission, completion event.
	c := h.cluster
	i := 0
	k.time("hybrid.open_ns", 64, func() {
		for j := 0; j < 64; j++ {
			s := (i + j) % c.Workers()
			_, _ = h.n.OpenFlow(c.MACs[s], c.MACs[(s+1)%c.Workers()], 1<<20, nil)
		}
		i += 64
		h.n.Run()
	}, nil)
}

func (h *hybridBench) close() {}
