package experiments

// Experiment is one entry of the dumbnet-bench table: its name, a one-line
// description, and a run at full or -quick size.
type Experiment struct {
	Name string
	Desc string
	Run  func(quick bool) (*Result, error)
}

// Registry lists every experiment in the order `dumbnet-bench -run all`
// runs them. Table1 counts the Go lines under repoRoot.
func Registry(repoRoot string) []Experiment {
	fixed := func(run func() (*Result, error)) func(bool) (*Result, error) {
		return func(bool) (*Result, error) { return run() }
	}
	return []Experiment{
		{"table1", "implementation complexity (LoC breakdown)", func(bool) (*Result, error) { return Table1(repoRoot) }},
		{"table2", "kernel-module function latencies", func(quick bool) (*Result, error) {
			sz := DefaultTable2Sizes()
			if quick {
				sz.FatTreeK, sz.Reps = 16, 200
			}
			return Table2(sz)
		}},
		{"fig7", "FPGA resource utilization vs ports", func(bool) (*Result, error) { return Fig7(), nil }},
		{"fig8a", "discovery time vs network size", Fig8a},
		{"fig8b", "discovery time vs port density", Fig8b},
		{"fig9", "single-host throughput", func(quick bool) (*Result, error) { return Fig9(pick(quick, 5000, 50000)) }},
		{"fig10", "round-trip latency CDF", func(quick bool) (*Result, error) {
			cfg := DefaultFig10Config()
			if quick {
				cfg.PingsPerPair, cfg.Pairs = 20, 60
			}
			return Fig10(cfg)
		}},
		{"fig11a", "failure notification delays", func(bool) (*Result, error) { return Fig11a(DefaultFig11aConfig()) }},
		{"fig11b", "failover vs spanning tree", func(bool) (*Result, error) { return Fig11b(DefaultFig11bConfig()) }},
		{"fig12", "path graph size vs ε", func(quick bool) (*Result, error) { return Fig12(pick(quick, 6, 10), pick(quick, 2, 5), 1) }},
		{"fig13", "HiBench macro-benchmark", func(bool) (*Result, error) { return Fig13(DefaultFig13Config()) }},
		{"aggregate", "aggregate leaf-to-leaf throughput", fixed(AggregateLeafThroughput)},
		{"testbed-discovery", "testbed discovery time", fixed(TestbedDiscovery)},
		{"ablation-pathgraph", "path-graph vs k-shortest caching", func(quick bool) (*Result, error) {
			return AblationPathGraph(pick(quick, 15, 50), 1)
		}},
		{"ablation-flowlet", "flowlet timeout sweep", fixed(AblationFlowletTimeout)},
		{"ablation-hoplimit", "failure broadcast hop-limit sweep", fixed(AblationHopLimit)},
		{"ablation-suppression", "alarm suppression window sweep", fixed(AblationSuppression)},
		{"ablation-ecn", "ECN congestion-avoiding rerouting", fixed(AblationECN)},
		{"ablation-phost", "pHost receiver-driven transport under incast", fixed(AblationPHostIncast)},
		{"storage", "host cache storage overhead (§7.3)", func(quick bool) (*Result, error) {
			return StorageOverhead(pick(quick, 8, 32), pick(quick, 40, 200), 1)
		}},
		{"fct", "flow completion times under realistic traffic", func(quick bool) (*Result, error) {
			return FlowCompletionTimes(0.5, pick(quick, 0.5, 1.0), nil, 1)
		}},
	}
}

// pick returns the -quick size when quick is set, the full size otherwise.
func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}
