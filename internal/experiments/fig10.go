package experiments

import (
	"fmt"

	"dumbnet/internal/core"
	"dumbnet/internal/metrics"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/stp"
	"dumbnet/internal/topo"
)

// Figure 10 — round-trip latency CDF on the testbed topology, comparing
// native Ethernet (kernel stack + learning switches), the no-op DPDK
// software path, and full DumbNet. The paper's observations:
//
//  1. the DPDK/KNI software path costs milliseconds where the native stack
//     costs fractions of one;
//  2. DumbNet adds nothing measurable over no-op DPDK in steady state;
//  3. ~0.5% of packets sit at 20–30 ms — the first packet of each pair
//     pays the controller path query.
//
// Host-stack costs are calibrated constants (native 60 µs/packet, DPDK/KNI
// 1 ms/packet); everything else — switching, queueing, the cold-start
// controller round trip — is simulated behaviour.

// Fig10Config tunes the experiment.
type Fig10Config struct {
	PingsPerPair int
	NativeCost   sim.Time // kernel per-packet processing
	DPDKCost     sim.Time // DPDK/KNI per-packet processing
	Pairs        int      // number of host pairs to sample (0 = all)
}

// DefaultFig10Config mirrors the paper's setup (100 packets per pair).
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		PingsPerPair: 100,
		NativeCost:   60 * sim.Microsecond,
		DPDKCost:     1 * sim.Millisecond,
	}
}

// rawEchoHost is a native-Ethernet endpoint: it echoes frames addressed to
// it after the kernel-stack delay and timestamps replies to its own probes.
// The link spends the stack's receive cost (ReceiveDelay).
type rawEchoHost struct {
	eng   *sim.Engine
	mac   packet.MAC
	link  *sim.Link
	cost  sim.Time
	waits map[uint64]func(at sim.Time)
}

func (h *rawEchoHost) Receive(port int, frame []byte) {
	if len(frame) < packet.EthernetHeaderLen+9 {
		return
	}
	var dst, src packet.MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	if dst != h.mac {
		return
	}
	var seq uint64
	for i := 0; i < 8; i++ {
		seq = seq<<8 | uint64(frame[packet.EthernetHeaderLen+1+i])
	}
	switch frame[packet.EthernetHeaderLen] {
	case 1: // request: echo back
		reply := append([]byte(nil), frame...)
		copy(reply[0:6], src[:])
		copy(reply[6:12], h.mac[:])
		reply[packet.EthernetHeaderLen] = 2
		h.link.SendFromAfter(h, reply, h.cost)
	case 2: // reply: resolve the waiter
		if fn, ok := h.waits[seq]; ok {
			delete(h.waits, seq)
			fn(h.eng.Now())
		}
	}
}

// ReceiveDelay implements sim.ReceiveDelayer.
func (h *rawEchoHost) ReceiveDelay() sim.Time { return h.cost }

func (h *rawEchoHost) ping(dst packet.MAC, seq uint64, cb func(rtt sim.Time)) {
	frame := make([]byte, packet.EthernetHeaderLen+9+64)
	copy(frame[0:6], dst[:])
	copy(frame[6:12], h.mac[:])
	frame[12], frame[13] = 0x08, 0x00
	frame[packet.EthernetHeaderLen] = 1
	for i := 0; i < 8; i++ {
		frame[packet.EthernetHeaderLen+1+i] = byte(seq >> (56 - 8*i))
	}
	sent := h.eng.Now()
	h.waits[seq] = func(at sim.Time) { cb(at - sent) }
	h.link.SendFromAfter(h, frame, h.cost)
}

// nativeRTTs measures all-pairs RTTs on a learning-switch deployment.
func nativeRTTs(t *topo.Topology, cfg Fig10Config, pairs [][2]packet.MAC) (*metrics.Dist, error) {
	eng := sim.NewEngine(1)
	ef, err := stp.BuildEthernet(eng, t,
		sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9},
		sim.Microsecond)
	if err != nil {
		return nil, err
	}
	hosts := make(map[packet.MAC]*rawEchoHost)
	for _, at := range t.Hosts() {
		h := &rawEchoHost{eng: eng, mac: at.Host, cost: cfg.NativeCost, waits: make(map[uint64]func(sim.Time))}
		l, err := ef.AttachHost(at.Host, h, sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9})
		if err != nil {
			return nil, err
		}
		h.link = l
		hosts[at.Host] = h
	}
	eng.RunFor(2 * sim.Second) // let spanning tree converge
	dist := &metrics.Dist{}
	seq := uint64(0)
	for _, pr := range pairs {
		for i := 0; i < cfg.PingsPerPair; i++ {
			seq++
			hosts[pr[0]].ping(pr[1], seq, func(rtt sim.Time) { dist.AddDuration(rtt.Duration()) })
			// Bounded drain: the spanning-tree hello timers keep the
			// event queue non-empty forever.
			eng.RunFor(10 * sim.Millisecond)
		}
	}
	return dist, nil
}

// dumbnetRTTs measures all-pairs RTTs on a DumbNet deployment. Warm
// pre-fetches all paths first (the "no-op DPDK" steady-state series);
// cold leaves caches empty so first pings pay the controller query.
func dumbnetRTTs(t *topo.Topology, cfg Fig10Config, pairs [][2]packet.MAC, warm bool) (*metrics.Dist, error) {
	ncfg := core.DefaultConfig()
	ncfg.Host.ProcessDelay = cfg.DPDKCost
	n, err := core.New(t.Clone(), core.WithConfig(ncfg))
	if err != nil {
		return nil, err
	}
	if err := n.Bootstrap(); err != nil {
		return nil, err
	}
	if warm {
		n.WarmAll()
	}
	dist := &metrics.Dist{}
	for _, pr := range pairs {
		for i := 0; i < cfg.PingsPerPair; i++ {
			rtt, err := n.PingSync(pr[0], pr[1])
			if err != nil {
				return nil, err
			}
			dist.AddDuration(rtt.Duration())
		}
	}
	return dist, nil
}

// fig10Pairs picks the measured host pairs.
func fig10Pairs(t *topo.Topology, limit int) [][2]packet.MAC {
	hosts := t.Hosts()
	var pairs [][2]packet.MAC
	for i := range hosts {
		for j := range hosts {
			if i != j {
				pairs = append(pairs, [2]packet.MAC{hosts[i].Host, hosts[j].Host})
			}
		}
	}
	if limit > 0 && limit < len(pairs) {
		// Deterministic stride-sample for quick runs.
		stride := len(pairs) / limit
		var out [][2]packet.MAC
		for i := 0; i < len(pairs) && len(out) < limit; i += stride {
			out = append(out, pairs[i])
		}
		pairs = out
	}
	return pairs
}

// Fig10 runs the three deployments and reports CDF landmarks.
func Fig10(cfg Fig10Config) (*Result, error) {
	t, err := topo.Testbed()
	if err != nil {
		return nil, err
	}
	pairs := fig10Pairs(t, cfg.Pairs)
	native, err := nativeRTTs(t, cfg, pairs)
	if err != nil {
		return nil, err
	}
	noop, err := dumbnetRTTs(t, cfg, pairs, true)
	if err != nil {
		return nil, err
	}
	dumb, err := dumbnetRTTs(t, cfg, pairs, false)
	if err != nil {
		return nil, err
	}

	ms := 1e3 // seconds -> ms
	tbl := metrics.NewTable("Figure 10: RTT distribution (ms)",
		"series", "p10", "p50", "p90", "p99", "p99.9", "max")
	for _, s := range []struct {
		name string
		d    *metrics.Dist
	}{{"Native Ethernet", native}, {"No-op DPDK", noop}, {"DumbNet", dumb}} {
		tbl.AddRow(s.name,
			s.d.Percentile(10)*ms, s.d.Percentile(50)*ms, s.d.Percentile(90)*ms,
			s.d.Percentile(99)*ms, s.d.Percentile(99.9)*ms, s.d.Max()*ms)
	}

	res := &Result{
		Name:  "Figure 10 — round-trip latency CDF",
		Table: tbl,
		Notes: []string{fmt.Sprintf("%d pairs × %d pings; host costs: native %v/pkt, DPDK %v/pkt",
			len(pairs), cfg.PingsPerPair, cfg.NativeCost.Duration(), cfg.DPDKCost.Duration())},
	}
	tailFrac := 1 - dumb.FracBelow(noop.Percentile(99.9))
	res.Checks = append(res.Checks,
		Check{
			Claim: "software DPDK path significantly slower than native Ethernet",
			Pass:  noop.Median() > native.Median()*3,
			Got:   fmt.Sprintf("medians: native %.2fms vs dpdk %.2fms", native.Median()*ms, noop.Median()*ms),
		},
		Check{
			Claim: "DumbNet steady-state ≈ no-op DPDK (medians within 10%)",
			Pass:  dumb.Median() < noop.Median()*1.1 && dumb.Median() > noop.Median()*0.9,
			Got:   fmt.Sprintf("dpdk %.2fms vs dumbnet %.2fms", noop.Median()*ms, dumb.Median()*ms),
		},
		Check{
			Claim: "~1% of DumbNet packets pay the first-packet controller query tail",
			Pass:  tailFrac > 0.001 && tailFrac < 0.05 && dumb.Max() > noop.Max(),
			Got:   fmt.Sprintf("tail fraction %.2f%%, max %.2fms", tailFrac*100, dumb.Max()*ms),
		},
	)
	return res, nil
}
