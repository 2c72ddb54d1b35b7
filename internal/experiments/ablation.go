package experiments

import (
	"fmt"
	"math/rand"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/metrics"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// Ablations of DumbNet's design choices — experiments beyond the paper's
// figures that isolate the effect of each mechanism DESIGN.md calls out.

// AblationPathGraph compares the paper's path-graph caching (§4.3) against
// plain k-shortest-path caching: how much the host stores, and whether a
// random single-link failure on the primary path is survivable from the
// cache alone (no controller round trip).
func AblationPathGraph(trials int, seed int64) (*Result, error) {
	if trials <= 0 {
		trials = 30
	}
	cube, err := topo.Cube(6, 1, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	hosts := cube.Hosts()

	type strat struct {
		name      string
		switches  float64
		survived  int
		attempted int
	}
	strategies := []*strat{{name: "path graph (s=2, ε=1)"}, {name: "k-shortest (k=4)"}}

	for i := 0; i < trials; i++ {
		src := hosts[rng.Intn(len(hosts))].Host
		dst := hosts[rng.Intn(len(hosts))].Host
		if src == dst {
			continue
		}
		pg, err := topo.BuildPathGraph(cube, src, dst, topo.PathGraphOptions{S: 2, Epsilon: 1}, rng)
		if err != nil {
			return nil, err
		}
		if len(pg.Primary) < 3 {
			continue // too short to cut interior links meaningfully
		}
		// Strategy A: the path graph itself.
		strategies[0].switches += float64(pg.Graph.NumSwitches())
		// Strategy B: k-shortest paths stored as a bare subgraph.
		sat, _ := cube.HostAt(src)
		dat, _ := cube.HostAt(dst)
		kpaths, err := topo.KShortestPaths(cube, sat.Switch, dat.Switch, 4)
		if err != nil {
			return nil, err
		}
		ksub := topo.NewSubgraph()
		ksub.AddHost(sat)
		ksub.AddHost(dat)
		for _, p := range kpaths {
			for j := 0; j+1 < len(p); j++ {
				far, _ := cube.EndpointAt(p[j].Switch, p[j].Port)
				ksub.AddEdge(p[j].Switch, p[j].Port, p[j+1].Switch, far.Port)
			}
		}
		strategies[1].switches += float64(ksub.NumSwitches())

		// Fail one random interior primary-path link; can each cache still
		// route?
		cut := 1 + rng.Intn(len(pg.Primary)-2)
		primary, err := pg.RouteOf(pg.Primary)
		if err != nil {
			return nil, err
		}
		for si, sub := range []*topo.Subgraph{pg.Graph.Clone(), ksub.Clone()} {
			sub.RemoveEdgeByPort(primary[cut].Switch, primary[cut].Port)
			strategies[si].attempted++
			if _, err := sub.HostPath(src, dst, nil); err == nil {
				strategies[si].survived++
			}
		}
	}

	tbl := metrics.NewTable("Ablation: path-graph vs k-shortest caching (6-cube, random pairs)",
		"strategy", "avg switches cached", "single-failure survival")
	for _, s := range strategies {
		rate := 0.0
		if s.attempted > 0 {
			rate = float64(s.survived) / float64(s.attempted)
		}
		tbl.AddRow(s.name, s.switches/float64(trials), fmt.Sprintf("%.0f%%", rate*100))
	}
	res := &Result{Name: "Ablation — path-graph caching", Table: tbl}
	pgRate := float64(strategies[0].survived) / float64(max1(strategies[0].attempted))
	kRate := float64(strategies[1].survived) / float64(max1(strategies[1].attempted))
	res.Checks = append(res.Checks, Check{
		Claim: "path graphs survive single failures at least as often as k-shortest sets",
		Pass:  pgRate >= kRate && pgRate > 0.9,
		Got:   fmt.Sprintf("path-graph %.0f%% vs k-shortest %.0f%%", pgRate*100, kRate*100),
	})
	return res, nil
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// AblationFlowletTimeout sweeps the flowlet idle threshold (§6.2): tiny
// timeouts split every burst across paths; huge ones degenerate to per-flow
// binding. Load balance is measured as the frame-count ratio between the
// two spines under bursty traffic.
func AblationFlowletTimeout() (*Result, error) {
	timeouts := []sim.Time{10 * sim.Microsecond, 100 * sim.Microsecond,
		500 * sim.Microsecond, 2 * sim.Millisecond, 100 * sim.Millisecond}
	tbl := metrics.NewTable("Ablation: flowlet timeout vs spine load balance (40 bursts, 1ms gaps)",
		"timeout", "spine1 frames", "spine2 frames", "imbalance")
	var imbalances []float64
	for _, to := range timeouts {
		t, err := topo.LeafSpine(2, 2, 2, 16)
		if err != nil {
			return nil, err
		}
		n, err := core.New(t)
		if err != nil {
			return nil, err
		}
		if err := n.Bootstrap(); err != nil {
			return nil, err
		}
		n.WarmAll()
		hosts := n.Hosts()
		src, dst := hosts[0], hosts[len(hosts)-1]
		n.Agent(src).SetPolicy(host.NewFlowletChooser(to))
		payload := make([]byte, 1000)
		for burst := 0; burst < 40; burst++ {
			for p := 0; p < 20; p++ {
				_ = n.Send(src, dst, payload)
			}
			n.RunFor(sim.Millisecond)
		}
		n.Run()
		s1 := float64(n.Fab.Switch(1).Stats().Forwarded)
		s2 := float64(n.Fab.Switch(2).Stats().Forwarded)
		hi, lo := s1, s2
		if s2 > s1 {
			hi, lo = s2, s1
		}
		imb := hi / (lo + 1)
		imbalances = append(imbalances, imb)
		tbl.AddRow(to.Duration().String(), s1, s2, imb)
	}
	res := &Result{Name: "Ablation — flowlet timeout", Table: tbl}
	res.Checks = append(res.Checks, Check{
		Claim: "timeouts below the burst gap balance load; timeouts above it degenerate toward one path",
		Pass:  imbalances[0] < 3 && imbalances[len(imbalances)-1] > 10,
		Got: fmt.Sprintf("imbalance %.1fx at %v vs %.1fx at %v",
			imbalances[0], timeouts[0].Duration(), imbalances[len(imbalances)-1],
			timeouts[len(timeouts)-1].Duration()),
	})
	return res, nil
}

// AblationHopLimit sweeps the switch broadcast hop limit (§4.2) on a long
// line with host flooding disabled: the hardware flood alone reaches only
// hop-limit switches, which is why stage 1 needs the host flood.
func AblationHopLimit() (*Result, error) {
	hopValues := []uint8{1, 2, 5, 8}
	const lineLen = 10
	tbl := metrics.NewTable(
		fmt.Sprintf("Ablation: failure-broadcast hop limit (line of %d switches, host flooding off)", lineLen),
		"hop limit", "hosts notified (of 9 reachable)")
	var notifiedCounts []int
	for _, hops := range hopValues {
		t := topo.New()
		for i := 1; i <= lineLen; i++ {
			if err := t.AddSwitch(topo.SwitchID(i), 8); err != nil {
				return nil, err
			}
		}
		for i := 1; i < lineLen; i++ {
			if err := t.Connect(topo.SwitchID(i), 2, topo.SwitchID(i+1), 1); err != nil {
				return nil, err
			}
		}
		// One host per switch.
		for i := 1; i <= lineLen; i++ {
			if err := t.AttachHost(packet.MACFromUint64(uint64(i)), topo.SwitchID(i), 3); err != nil {
				return nil, err
			}
		}
		cfg := core.DefaultConfig()
		cfg.Fabric.Switch.NotifyHops = hops
		cfg.Host.DisableHostFlood = true
		n, err := core.New(t, core.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		if err := n.Bootstrap(); err != nil {
			return nil, err
		}
		notified := 0
		for _, m := range n.Hosts() {
			n.Agent(m).OnLinkEvent = func(ev *packet.LinkEvent) { notified++ }
		}
		// Fail the first link: the broadcast walks down the line.
		if err := n.FailLink(1, 2); err != nil {
			return nil, err
		}
		n.Run()
		notifiedCounts = append(notifiedCounts, notified)
		tbl.AddRow(int(hops), notified)
	}
	res := &Result{Name: "Ablation — failure broadcast hop limit", Table: tbl}
	mono := true
	for i := 1; i < len(notifiedCounts); i++ {
		if notifiedCounts[i] < notifiedCounts[i-1] {
			mono = false
		}
	}
	res.Checks = append(res.Checks,
		Check{
			Claim: "coverage grows with the hop limit and stays partial on a long line",
			Pass:  mono && notifiedCounts[0] < notifiedCounts[len(notifiedCounts)-1],
			Got:   fmt.Sprintf("counts %v", notifiedCounts),
		},
		Check{
			Claim: "the paper's 5-hop default does not cover a 10-switch diameter alone (host flooding is required)",
			Pass:  notifiedCounts[2] < lineLen-1,
			Got:   fmt.Sprintf("5 hops notified %d of %d", notifiedCounts[2], lineLen-1),
		},
	)
	return res, nil
}

// AblationSuppression sweeps the alarm suppression window (§4.2) against a
// flapping link.
func AblationSuppression() (*Result, error) {
	windows := []sim.Time{10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second}
	const flaps = 10
	const flapGap = 50 * sim.Millisecond
	tbl := metrics.NewTable(
		fmt.Sprintf("Ablation: alarm suppression window (%d flaps, %v apart)", flaps, flapGap.Duration()),
		"window", "alarms sent", "suppressed")
	var alarms []uint64
	for _, w := range windows {
		t, err := topo.Line(3, 4)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Fabric.Switch.SuppressWindow = w
		n, err := core.New(t, core.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		if err := n.Bootstrap(); err != nil {
			return nil, err
		}
		l, err := n.Fab.LinkBetween(1, 2)
		if err != nil {
			return nil, err
		}
		for i := 0; i < flaps; i++ {
			l.Fail()
			n.RunFor(flapGap / 2)
			l.Restore()
			n.RunFor(flapGap / 2)
		}
		n.Run()
		st := n.Fab.Switch(1).Stats()
		alarms = append(alarms, st.AlarmsSent)
		tbl.AddRow(w.Duration().String(), int(st.AlarmsSent), int(st.AlarmsSquelch))
	}
	res := &Result{Name: "Ablation — alarm suppression window", Table: tbl}
	res.Checks = append(res.Checks, Check{
		Claim: "wider windows squelch more of a flapping link's alarms",
		Pass:  alarms[0] > alarms[1] && alarms[1] > alarms[2],
		Got:   fmt.Sprintf("alarms %v", alarms),
	})
	return res, nil
}

// AblationECN measures congestion-avoiding rerouting (the §8 extension):
// with one spine congested by pinned background traffic, an ECN-aware
// sender moves its flow to the clean spine while a sticky sender stays
// stuck behind the queue.
func AblationECN() (*Result, error) {
	run := func(ecn bool) (fgDone float64, err error) {
		t, err := topo.LeafSpine(2, 2, 3, 16)
		if err != nil {
			return 0, err
		}
		cfg := core.DefaultConfig()
		cfg.Fabric.Switch.ECNThreshold = 300 * sim.Microsecond // ~4 frames at 100 Mbps: transient bursts do not mark
		cfg.Fabric.SwitchLink.BandwidthBps = 100e6
		cfg.Fabric.SwitchLink.MaxBacklog = 500 * sim.Millisecond
		cfg.Host.ProcessDelay = 0
		n, err := core.New(t, core.WithConfig(cfg))
		if err != nil {
			return 0, err
		}
		if err := n.Bootstrap(); err != nil {
			return 0, err
		}
		n.WarmAll()
		hosts := n.Hosts()
		bgSrc, bgDst := hosts[0], hosts[3] // cross-leaf background pair
		fgSrc, fgDst := hosts[1], hosts[4]
		// Deterministic routes (nil rng) put both pairs behind the same
		// spine; pin each flow to that congested path initially.
		bgTags, err := n.Topo.HostPath(bgSrc, bgDst, nil)
		if err != nil {
			return 0, err
		}
		fgTags, err := n.Topo.HostPath(fgSrc, fgDst, nil)
		if err != nil {
			return 0, err
		}
		if err := n.Agent(bgSrc).InstallRoute(bgDst, bgTags); err != nil {
			return 0, err
		}
		if err := n.Agent(fgSrc).InstallRoute(fgDst, fgTags); err != nil {
			return 0, err
		}
		if err := n.SetPolicy(bgSrc, "single"); err != nil {
			return 0, err
		}
		if ecn {
			// The cooldown must exceed the feedback horizon (queueing +
			// echo RTT) or stale marks from packets sent before a reroute
			// bounce the chooser straight back.
			ch := host.NewECNChooser(3*sim.Millisecond, nil)
			n.Agent(fgSrc).SetPolicy(ch)
			// Start on the congested path (index 0, the installed route)
			// so the measurement shows rerouting, not initial luck.
			flow := host.FlowKey{Dst: fgDst}
			for e := uint64(0); e < 4 && ch.Choose(0, flow, 2) != 0; e++ {
				ch.SetEpoch(fgDst, ch.Epoch(fgDst)+1)
			}
		} else {
			if err := n.SetPolicy(fgSrc, "single"); err != nil {
				return 0, err
			}
		}
		const fgPackets = 40
		received := 0
		var lastAt sim.Time
		n.Agent(fgDst).OnData = func(from packet.MAC, it uint16, p []byte) {
			received++
			lastAt = n.Eng.Now()
		}
		payload := make([]byte, 1000)
		// Saturating background bursts interleaved with foreground packets.
		sent := 0
		var pump func()
		pump = func() {
			if sent >= fgPackets {
				return
			}
			for i := 0; i < 8; i++ {
				_ = n.Agent(bgSrc).SendData(bgDst, payload)
			}
			for i := 0; i < 2 && sent < fgPackets; i++ {
				_ = n.Agent(fgSrc).Send(fgDst, packet.EtherTypeIPv4, payload,
					hostFlowKey(fgDst))
				sent++
			}
			n.Eng.After(500*sim.Microsecond, pump)
		}
		pump()
		n.Run()
		if received < fgPackets {
			return 0, fmt.Errorf("experiments: only %d of %d foreground packets arrived", received, fgPackets)
		}
		return lastAt.Seconds() * 1e3, nil
	}
	sticky, err := run(false)
	if err != nil {
		return nil, err
	}
	ecn, err := run(true)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Ablation: ECN congestion-avoiding rerouting (one spine congested)",
		"foreground routing", "40-packet completion (ms)")
	tbl.AddRow("pinned behind congestion (no ECN)", sticky)
	tbl.AddRow("ECN-aware", ecn)
	res := &Result{Name: "Ablation — ECN rerouting (§8 extension)", Table: tbl}
	res.Checks = append(res.Checks, Check{
		Claim: "ECN feedback finishes the foreground transfer faster by escaping the congested spine",
		Pass:  ecn < sticky*0.8,
		Got:   fmt.Sprintf("%.1fms with ECN vs %.1fms without", ecn, sticky),
	})
	return res, nil
}

// hostFlowKey builds the default flow key for a destination.
func hostFlowKey(dst packet.MAC) (k host.FlowKey) {
	k.Dst = dst
	return k
}
