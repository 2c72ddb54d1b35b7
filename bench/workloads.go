package main

import (
	"math/rand"
	"runtime"
	"time"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// workloads lists the six pinned scenarios in suite order. The names are
// fixed: BENCHMARK.json and later issues cite them.
var workloads = []workload{
	{name: "pkt-wave", workUnit: "frames", pin: 20, shards: 1, setups: 3, setup: setupPktWave(1)},
	{name: "pkt-wave-s2", workUnit: "frames", pin: 20, shards: 2, setups: 3, setup: setupPktWave(2)},
	// route-churn and chaos-soak set up again between rounds; those builds are
	// their setup_s samples. chaos-soak pins one full cycle of its scenarios.
	{name: "route-churn", workUnit: "path-requests", pin: 16, shards: 1, setups: 1, setup: setupRouteChurn},
	{name: "hybrid-hibench", workUnit: "flows", pin: 2, shards: 1, setups: 3, setup: setupHybrid},
	{name: "chaos-soak", workUnit: "frames", pin: len(chaosScripts), shards: 1, setups: 1, setup: setupChaos},
	{name: "fed-wave", workUnit: "frames", pin: 20, shards: 2, setups: 9, setup: setupFedWave},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fnv mixes v into an FNV-1a style running hash.
func fnv(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const fnvBasis = 14695981039346656037

func macBits(m core.MAC) uint64 {
	var v uint64
	for _, b := range m {
		v = v<<8 | uint64(b)
	}
	return v
}

// fatTreeSize picks the fabric: k=16 with 8 hosts per edge switch (1,024
// hosts, 320 switches), or k=4 with 2 for smoke runs.
func fatTreeSize(smoke bool) (k, hostsPerEdge int) {
	if smoke {
		return 4, 2
	}
	return 16, 8
}

// newTracedRecorder returns the flight recorder a traced run attaches where
// the workload does not already carry one.
func newTracedRecorder(on bool) *trace.Recorder {
	if !on {
		return nil
	}
	return trace.NewRecorder(trace.DefaultConfig())
}

// heapAfterGC is the live heap in bytes, for the bytes-per-entry figure.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// bytesPerEntry runs the route warm-up as a span and, in traced runs,
// returns the live heap it added per controller route entry (host path
// tables included: they are what a warmed route costs).
func bytesPerEntry(traced bool, n *core.Network, tr *tracer, warm func() error) (float64, error) {
	var heap0 float64
	if traced {
		heap0 = heapAfterGC()
	}
	if err := tr.do("controller.warm", warm); err != nil {
		return 0, err
	}
	if entries := n.Ctrl.Routes().Len(); traced && entries > 0 {
		return (heapAfterGC() - heap0) / float64(entries), nil
	}
	return 0, nil
}

// crossPodPartners draws the seeded traffic permutation of the packet
// workloads: host (pod, j) sends to ((pod+shift[j]) mod pods, perm[j]), a
// bijection in which every partner sits in another pod. Index 0 is the
// controller's host and takes no part: it sends nothing, and the one host
// mapped onto it sits the wave out.
func crossPodPartners(rng *rand.Rand, hosts, pods int) []int {
	per := hosts / pods
	perm := rng.Perm(per)
	shift := make([]int, per)
	for j := range shift {
		shift[j] = 1 + rng.Intn(pods-1)
	}
	out := make([]int, hosts)
	for i := range out {
		pod, j := i/per, i%per
		out[i] = ((pod+shift[j])%pods)*per + perm[j]
	}
	out[0] = -1
	for i, p := range out {
		if p == 0 {
			out[i] = -1
		}
	}
	return out
}

// ---------------------------------------------------------------------
// pkt-wave / pkt-wave-s2

const (
	waveFramesPerHost = 6
	wavePings         = 64
)

type waveRound struct {
	rtts   []sim.Time
	now    sim.Time
	digest uint64
}

type pktWave struct {
	n        *core.Network
	rec      *trace.Recorder
	all      []core.MAC // index 0 is the controller's host
	partner  []int
	pings    [][2]int
	payloads [2][]byte

	sinks    waveSinks
	start    sim.Time
	rounds   []waveRound
	base     metricSet
	bytesPer float64
}

// waveSinks counts and digests deliveries per destination host. Each host
// lives on one shard, so each slot has a single writer even in sharded runs.
type waveSinks struct {
	recv    []uint64 // frames delivered
	digests []uint64 // FNV over (source, length) in arrival order
	seen    uint64   // total at the end of the previous round
}

func newWaveSinks(hosts int) waveSinks {
	w := waveSinks{recv: make([]uint64, hosts), digests: make([]uint64, hosts)}
	for i := range w.digests {
		w.digests[i] = fnvBasis
	}
	return w
}

// sink is the receive callback for one host's slot.
func (w *waveSinks) sink(slot int) func(core.MAC, []byte) {
	return func(src core.MAC, payload []byte) {
		w.recv[slot]++
		w.digests[slot] = fnv(fnv(w.digests[slot], macBits(src)), uint64(len(payload)))
	}
}

// tally closes a wave round: deliveries since the last one, pings answered,
// and the combined digest (per-host digests folded in host order, so it does
// not depend on how the shards interleaved).
func (w *waveSinks) tally(sent int64, rtts []sim.Time, rec *roundRec) (digest uint64) {
	var total uint64
	digest = fnvBasis
	for h := range w.recv {
		total += w.recv[h]
		digest = fnv(digest, w.digests[h])
	}
	delivered := int64(total - w.seen)
	w.seen = total
	answered := int64(0)
	for _, r := range rtts {
		if r >= 0 {
			answered++
		}
	}
	rec.work = delivered
	rec.attempted = sent + int64(len(rtts))
	rec.failed = (sent - delivered) + (int64(len(rtts)) - answered)
	return digest
}

func setupPktWave(shards int) func(runConfig, *tracer) (instance, error) {
	return func(cfg runConfig, tr *tracer) (instance, error) {
		p := &pktWave{rec: newTracedRecorder(cfg.Trace)}
		k, hpe := fatTreeSize(cfg.Smoke)
		var tp *topo.Topology
		if err := tr.do("topo.generate", func() (err error) {
			tp, err = topo.FatTree(k, hpe, 0)
			return err
		}); err != nil {
			return nil, err
		}
		opts := []core.Option{core.WithSeed(cfg.Seed), core.WithHostFlood(false)}
		if shards > 1 {
			opts = append(opts, core.WithShards(shards))
		}
		if p.rec != nil {
			opts = append(opts, core.WithTracer(p.rec))
		}
		if err := tr.do("fabric.build", func() (err error) {
			p.n, err = core.New(tp, opts...)
			return err
		}); err != nil {
			return nil, err
		}
		if err := tr.do("controller.bootstrap", p.n.Bootstrap); err != nil {
			p.close()
			return nil, err
		}

		rng := rand.New(rand.NewSource(cfg.Seed))
		p.all = append([]core.MAC{p.n.Ctrl.MAC()}, p.n.Hosts()...)
		p.partner = crossPodPartners(rng, len(p.all), k)
		var senders []int
		for i, d := range p.partner {
			if d >= 0 {
				senders = append(senders, i)
			}
		}
		for _, j := range rng.Perm(len(senders)) {
			if len(p.pings) == wavePings {
				break
			}
			p.pings = append(p.pings, [2]int{senders[j], p.partner[senders[j]]})
		}
		p.payloads = [2][]byte{make([]byte, 64), make([]byte, 1400)}
		p.sinks = newWaveSinks(len(p.all))
		for i := range p.all {
			if err := p.n.OnReceive(p.all[i], p.sinks.sink(i)); err != nil {
				p.close()
				return nil, err
			}
		}

		var err error
		p.bytesPer, err = bytesPerEntry(cfg.Trace, p.n, tr, func() error {
			for i, d := range p.partner {
				if d < 0 {
					continue
				}
				if err := p.n.Agent(p.all[i]).WarmUp(p.all[d]); err != nil {
					return err
				}
			}
			for _, pr := range p.pings {
				if err := p.n.Agent(p.all[pr[1]]).WarmUp(p.all[pr[0]]); err != nil {
					return err
				}
			}
			p.n.Run()
			return nil
		})
		if err != nil {
			p.close()
			return nil, err
		}
		return p, nil
	}
}

func (p *pktWave) prepare(i int) (time.Duration, error) {
	if i == 0 {
		p.start = p.now()
		p.base = netCounters(p.n, p.rec)
	}
	return 0, nil
}

func (p *pktWave) now() sim.Time {
	if g := p.n.SimGroup(); g != nil {
		return g.Now()
	}
	return p.n.Eng.Now()
}

func (p *pktWave) round(i int, rec *roundRec) error {
	t0 := time.Now()
	sent := int64(0)
	for s, d := range p.partner {
		if d < 0 {
			continue
		}
		for f := 0; f < waveFramesPerHost; f++ {
			if err := p.n.Send(p.all[s], p.all[d], p.payloads[f&1]); err != nil {
				return err
			}
			sent++
		}
	}
	rtts := make([]sim.Time, len(p.pings))
	for j, pr := range p.pings {
		j := j
		rtts[j] = -1
		// The reply lands on the pinging host's shard; one writer per slot.
		if err := p.n.Ping(p.all[pr[0]], p.all[pr[1]], func(rtt sim.Time) { rtts[j] = rtt }); err != nil {
			return err
		}
	}
	rec.injectNs = time.Since(t0).Nanoseconds()
	rec.pending = pendingEvents(p.n)
	p.n.Run()

	digest := p.sinks.tally(sent, rtts, rec)
	if i >= 0 {
		p.rounds = append(p.rounds, waveRound{rtts: rtts, now: p.now(), digest: digest})
	}
	return nil
}

func waveSimStats(rounds []waveRound, start sim.Time, pin int) simStats {
	if pin > len(rounds) {
		pin = len(rounds)
	}
	var st simStats
	for _, r := range rounds[:pin] {
		for _, rtt := range r.rtts {
			if rtt >= 0 {
				st.latencyUs = append(st.latencyUs, float64(rtt)/1e3)
			}
		}
	}
	if pin > 0 {
		st.completionS = (rounds[pin-1].now - start).Seconds()
		st.digest = rounds[pin-1].digest
	}
	return st
}

func (p *pktWave) simStats(pin int) simStats { return waveSimStats(p.rounds, p.start, pin) }

func (p *pktWave) collect(m metricSet) {
	netCounters(p.n, p.rec).minus(p.base).into(m)
	netGauges(p.n, m)
	m["controller.bytes_per_entry"] = p.bytesPer
}

func (p *pktWave) kernels(k *kernelSet) {
	k.packetKernels()
	k.simKernels()
	k.switchKernel()
	k.traceKernel()
	k.routeKernels(p.n, false)
	k.sendKernel(p.n, p.all, p.partner, p.payloads)
}

func (p *pktWave) close() {
	if p.n != nil && p.n.SimGroup() != nil {
		p.n.SimGroup().Close()
	}
}

// sendKernel times host.Agent's send path on the workload's own warmed
// fabric: every sender emits one frame to its partner (alternating sizes),
// timed; the engine drains untimed.
func (k *kernelSet) sendKernel(n *core.Network, all []core.MAC, partner []int, payloads [2][]byte) {
	type pair struct {
		a   *host.Agent
		dst core.MAC
	}
	var pairs []pair
	for s, d := range partner {
		if d >= 0 {
			pairs = append(pairs, pair{n.Agent(all[s]), all[d]})
		}
	}
	if len(pairs) == 0 {
		return
	}
	k.time("host.send_ns", len(pairs), func() {
		for i, p := range pairs {
			_ = p.a.SendData(p.dst, payloads[i&1])
		}
	}, n.Run)
}

// pendingEvents is the engine backlog right after injection.
func pendingEvents(n *core.Network) int {
	if g := n.SimGroup(); g != nil {
		return g.Pending()
	}
	return n.Eng.Pending()
}

// ---------------------------------------------------------------------
// counters read from public Stats()/registry surfaces

func (a metricSet) minus(b metricSet) metricSet {
	out := metricSet{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func (a metricSet) into(dst metricSet) {
	for k, v := range a {
		dst[k] += v
	}
}

// netCounters snapshots the monotonic counters of one deployment.
func netCounters(n *core.Network, rec *trace.Recorder) metricSet {
	m := metricSet{}
	for _, sw := range n.Fab.Switches() {
		s := sw.Stats()
		m["dswitch.forwarded"] += float64(s.Forwarded)
		m["dswitch.drops"] += float64(s.DropBadMcast + s.DropNoPort + s.DropLinkDown + s.DropBadFrame + s.DropEndOfPath + s.DropSwitchDown)
		m["dswitch.floods"] += float64(s.FloodsOut)
		m["dswitch.mcast_fanout"] += float64(s.McastFanout)
	}
	links := n.Fab.Links()
	all := append([]core.MAC{n.Ctrl.MAC()}, n.Hosts()...)
	for _, h := range all {
		if l := n.Fab.HostLink(h); l != nil {
			links = append(links, l)
		}
		s := n.Agent(h).Stats()
		m["host.sent"] += float64(s.Sent)
		m["host.received"] += float64(s.Received)
		m["host.path_queries"] += float64(s.PathQueries)
		m["host.query_retries"] += float64(s.QueryRetries)
		m["host.failover_hits"] += float64(s.FailoverHits)
		m["host.drops"] += float64(s.PendingDrops + s.NoRouteDrops)
	}
	for _, l := range links {
		for _, s := range []sim.LinkStats{l.StatsFrom(true), l.StatsFrom(false)} {
			m["sim.link_frames"] += float64(s.Frames)
			m["sim.link_drops"] += float64(s.Drops + s.DownTx + s.ImpairLost)
		}
	}
	if g := n.SimGroup(); g != nil {
		m["sim.events"] = float64(g.Processed())
		par, solo := g.Windows()
		m["sim.windows_parallel"], m["sim.windows_solo"] = float64(par), float64(solo)
	} else {
		m["sim.events"] = float64(n.Eng.Processed())
	}
	reg := n.Eng.Metrics()
	m["controller.route_hits"] = float64(reg.Counter("ctrl.route.hit").Value())
	m["controller.route_misses"] = float64(reg.Counter("ctrl.route.miss").Value())
	m["controller.route_invalidated"] = float64(reg.Counter("ctrl.route.invalidated").Value())
	if rec != nil {
		m["trace.records"] = float64(rec.Total())
		m["trace.overwritten"] = float64(rec.Overwritten())
	}
	return m
}

// netGauges reads the point-in-time values and the ratios derived from the
// counters already in m.
func netGauges(n *core.Network, m metricSet) {
	m["controller.route_entries"] = float64(n.Ctrl.Routes().Len())
	m["topo.pathgraph_size_mean"] = n.Eng.Metrics().ValueHistogram("ctrl.route.pgsize").Mean()
	if looked := m["controller.route_hits"] + m["controller.route_misses"]; looked > 0 {
		m["controller.hit_ratio"] = m["controller.route_hits"] / looked
	}
	if g := n.SimGroup(); g != nil {
		m["sim.lookahead_ns"] = float64(g.Lookahead())
		if w := m["sim.windows_parallel"] + m["sim.windows_solo"]; w > 0 {
			m["sim.events_per_window"] = m["sim.events"] / w
		}
	}
}
