package main

import (
	"fmt"
	"math/rand"
	"time"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// fed-wave: two fat-tree fabrics federated over WAN links, one fabric per
// engine shard. A round sends fedFramesPerHost frames from every host —
// every fedCrossEvery-th host to its twin in the other fabric through the
// border gateways, the rest to a cross-pod partner at home — plus fedPings
// cross-fabric pings, then advances four WAN delays of virtual time.

const (
	fedFramesPerHost = 8
	fedCrossEvery    = 5
	fedPings         = 16
	fedWANDelay      = sim.Millisecond
)

type fedSender struct{ src, dst core.MAC }

type fedWave struct {
	fed     *core.Federation
	recs    []*trace.Recorder
	senders []fedSender
	pings   [][2]core.MAC
	payload [2][]byte

	sinks  waveSinks
	start  sim.Time
	rounds []waveRound
	base   metricSet
}

func setupFedWave(cfg runConfig, tr *tracer) (instance, error) {
	f := &fedWave{payload: [2][]byte{make([]byte, 64), make([]byte, 1400)}}
	k, hpe := 8, 4
	if cfg.Smoke {
		k, hpe = 4, 2
	}
	specs := make([]core.FabricSpec, 2)
	if err := tr.do("topo.generate", func() error {
		for i := range specs {
			tp, err := topo.FatTree(k, hpe, 0)
			if err != nil {
				return err
			}
			specs[i] = core.FabricSpec{Name: fmt.Sprintf("fab%d", i), Topo: tp, Opts: []core.Option{core.WithHostFlood(false)}}
			if cfg.Trace {
				rec := trace.NewRecorder(trace.DefaultConfig())
				f.recs = append(f.recs, rec)
				specs[i].Opts = append(specs[i].Opts, core.WithTracer(rec))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	fcfg := core.DefaultFederationConfig(cfg.Seed)
	fcfg.WAN.PropDelay = fedWANDelay
	// Federate builds the members, wires the WAN and boots every fabric in
	// one call, so build and bootstrap share a span.
	if err := tr.do("fabric.build", func() (err error) {
		f.fed, err = core.Federate(fcfg, specs...)
		return err
	}); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	offset := rng.Intn(fedCrossEvery)
	index := map[core.MAC]int{}
	var all [2][]core.MAC
	for fab := 0; fab < 2; fab++ {
		all[fab] = append([]core.MAC{f.fed.Network(fab).Ctrl.MAC()}, f.fed.Hosts(fab)...)
		for _, m := range all[fab] {
			index[m] = len(index)
		}
	}
	f.sinks = newWaveSinks(len(index))
	for fab := 0; fab < 2; fab++ {
		partner := crossPodPartners(rng, len(all[fab]), k)
		for i, m := range all[fab] {
			// A host's intra-fabric and federated deliveries both arrive on
			// its own fabric's shard: still one writer per slot.
			sink := f.sinks.sink(index[m])
			if err := f.fed.Network(fab).OnReceive(m, sink); err != nil {
				return nil, err
			}
			if err := f.fed.OnReceive(m, sink); err != nil {
				return nil, err
			}
			switch {
			case i == 0: // the controller's host sends nothing
			case i%fedCrossEvery == offset:
				f.senders = append(f.senders, fedSender{src: m, dst: all[1-fab][i]})
			case partner[i] >= 0:
				f.senders = append(f.senders, fedSender{src: m, dst: all[fab][partner[i]]})
			}
		}
	}
	for len(f.pings) < fedPings {
		fab := len(f.pings) % 2
		i := 1 + rng.Intn(len(all[fab])-1)
		f.pings = append(f.pings, [2]core.MAC{all[fab][i], all[1-fab][1+rng.Intn(len(all[1-fab])-1)]})
	}

	// Two unrecorded rounds resolve every route the wave uses: local path
	// graphs, regional compositions and gateway legs. The echo return routes
	// are composed here first, while the group is idle: an echo reply resolves
	// its route on the far fabric's shard worker, and a regional miss there
	// would walk the near fabric's route service from the wrong goroutine.
	if err := tr.do("controller.warm", func() error {
		for _, p := range f.pings {
			if _, err := f.fed.Resolve(controller.RouteQuery{Src: p[1], Dst: p[0], Scope: controller.ScopeFabric}); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			var rec roundRec
			if err := f.round(-1, &rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fedWave) prepare(i int) (time.Duration, error) {
	if i == 0 {
		f.start = f.fed.Now()
		f.base = f.counters()
	}
	return 0, nil
}

func (f *fedWave) round(i int, rec *roundRec) error {
	t0 := time.Now()
	sent := int64(0)
	for _, s := range f.senders {
		for n := 0; n < fedFramesPerHost; n++ {
			if err := f.fed.Send(s.src, s.dst, f.payload[n&1]); err != nil {
				return err
			}
			sent++
		}
	}
	rtts := make([]sim.Time, len(f.pings))
	for j, p := range f.pings {
		j := j
		rtts[j] = -1
		if err := f.fed.Ping(p[0], p[1], func(rtt sim.Time) { rtts[j] = rtt }); err != nil {
			return err
		}
	}
	rec.injectNs = time.Since(t0).Nanoseconds()
	rec.pending = f.fed.SimGroup().Pending()
	f.fed.RunFor(4 * fedWANDelay)

	digest := f.sinks.tally(sent, rtts, rec)
	if i >= 0 {
		f.rounds = append(f.rounds, waveRound{rtts: rtts, now: f.fed.Now(), digest: digest})
	}
	return nil
}

func (f *fedWave) simStats(pin int) simStats { return waveSimStats(f.rounds, f.start, pin) }

func (f *fedWave) counters() metricSet {
	m := metricSet{}
	for fab := 0; fab < f.fed.NumFabrics(); fab++ {
		var rec *trace.Recorder
		if fab < len(f.recs) {
			rec = f.recs[fab]
		}
		netCounters(f.fed.Network(fab), rec).into(m)
	}
	par, solo := f.fed.Windows()
	m["sim.windows_parallel"], m["sim.windows_solo"] = float64(par), float64(solo)
	st := f.fed.Regional().Stats()
	m["federation.regional_hits"] = float64(st.Hits)
	m["federation.regional_misses"] = float64(st.Misses)
	m["federation.regional_invalidated"] = float64(st.Invalidated)
	for _, mem := range f.fed.Regional().Members() {
		for _, gw := range mem.Gateways {
			gs := gw.Stats()
			m["federation.gateway_relayed"] += float64(gs.Relayed)
			m["federation.gateway_drops"] += float64(gs.DropDown + gs.DropNoPath + gs.DropBad)
		}
	}
	return m
}

func (f *fedWave) collect(m metricSet) {
	f.counters().minus(f.base).into(m)
	for fab := 0; fab < f.fed.NumFabrics(); fab++ {
		m["controller.route_entries"] += float64(f.fed.Network(fab).Ctrl.Routes().Len())
	}
	if looked := m["controller.route_hits"] + m["controller.route_misses"]; looked > 0 {
		m["controller.hit_ratio"] = m["controller.route_hits"] / looked
	}
	m["sim.lookahead_ns"] = float64(f.fed.SimGroup().Lookahead())
	if w := m["sim.windows_parallel"] + m["sim.windows_solo"]; w > 0 {
		m["sim.events_per_window"] = m["sim.events"] / w
	}
}

func (f *fedWave) kernels(k *kernelSet) {
	k.packetKernels()
	k.simKernels()
	k.switchKernel()
	// The regional resolver on this federation: a warm inter-fabric answer,
	// and one recomposed after the regional cache is dropped (the member
	// controllers' own caches stay warm underneath).
	q := controller.RouteQuery{Src: f.pings[0][0], Dst: f.pings[0][1], Scope: controller.ScopeFabric}
	if _, err := f.fed.Resolve(q); err != nil {
		return
	}
	k.time("federation.resolve_warm_ns", 1, func() {
		r, _ := f.fed.Resolve(q)
		kernelSink += r.WAN
	}, nil)
	k.time("federation.resolve_cold_ns", 1, func() {
		f.fed.Regional().Invalidate()
		r, _ := f.fed.Resolve(q)
		kernelSink += r.WAN
	}, nil)
}

func (f *fedWave) close() {
	if f.fed != nil {
		f.fed.SimGroup().Close()
	}
}
