// Command dumbnet-bench regenerates the tables and figures of the DumbNet
// paper's evaluation (§7). Run one experiment by name or all of them:
//
//	dumbnet-bench -list
//	dumbnet-bench -run fig8a
//	dumbnet-bench -run all -quick
//
// Each experiment prints the paper's layout plus PASS/FAIL shape checks for
// the claims it reproduces.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"dumbnet/internal/experiments"
)

type experiment struct {
	name string
	desc string
	run  func(quick bool) (*experiments.Result, error)
}

func registry(repoRoot string) []experiment {
	return []experiment{
		{"table1", "implementation complexity (LoC breakdown)", func(bool) (*experiments.Result, error) {
			return experiments.Table1(repoRoot)
		}},
		{"table2", "kernel-module function latencies", func(quick bool) (*experiments.Result, error) {
			sz := experiments.DefaultTable2Sizes()
			if quick {
				sz.FatTreeK = 16
				sz.Reps = 200
			}
			return experiments.Table2(sz)
		}},
		{"fig7", "FPGA resource utilization vs ports", func(bool) (*experiments.Result, error) {
			return experiments.Fig7(), nil
		}},
		{"fig8a", "discovery time vs network size", func(quick bool) (*experiments.Result, error) {
			return experiments.Fig8a(quick)
		}},
		{"fig8b", "discovery time vs port density", func(quick bool) (*experiments.Result, error) {
			return experiments.Fig8b(quick)
		}},
		{"fig9", "single-host throughput", func(quick bool) (*experiments.Result, error) {
			reps := 50000
			if quick {
				reps = 5000
			}
			return experiments.Fig9(reps)
		}},
		{"fig10", "round-trip latency CDF", func(quick bool) (*experiments.Result, error) {
			cfg := experiments.DefaultFig10Config()
			if quick {
				cfg.PingsPerPair = 20
				cfg.Pairs = 60
			}
			return experiments.Fig10(cfg)
		}},
		{"fig11a", "failure notification delays", func(bool) (*experiments.Result, error) {
			return experiments.Fig11a(experiments.DefaultFig11aConfig())
		}},
		{"fig11b", "failover vs spanning tree", func(bool) (*experiments.Result, error) {
			return experiments.Fig11b(experiments.DefaultFig11bConfig())
		}},
		{"fig12", "path graph size vs ε", func(quick bool) (*experiments.Result, error) {
			if quick {
				return experiments.Fig12(6, 2, 1)
			}
			return experiments.Fig12(10, 5, 1)
		}},
		{"fig13", "HiBench macro-benchmark", func(bool) (*experiments.Result, error) {
			return experiments.Fig13(experiments.DefaultFig13Config())
		}},
		{"aggregate", "aggregate leaf-to-leaf throughput", func(bool) (*experiments.Result, error) {
			return experiments.AggregateLeafThroughput()
		}},
		{"testbed-discovery", "testbed discovery time", func(bool) (*experiments.Result, error) {
			return experiments.TestbedDiscovery()
		}},
		{"ablation-pathgraph", "path-graph vs k-shortest caching", func(quick bool) (*experiments.Result, error) {
			trials := 50
			if quick {
				trials = 15
			}
			return experiments.AblationPathGraph(trials, 1)
		}},
		{"ablation-flowlet", "flowlet timeout sweep", func(bool) (*experiments.Result, error) {
			return experiments.AblationFlowletTimeout()
		}},
		{"ablation-hoplimit", "failure broadcast hop-limit sweep", func(bool) (*experiments.Result, error) {
			return experiments.AblationHopLimit()
		}},
		{"ablation-suppression", "alarm suppression window sweep", func(bool) (*experiments.Result, error) {
			return experiments.AblationSuppression()
		}},
		{"ablation-ecn", "ECN congestion-avoiding rerouting", func(bool) (*experiments.Result, error) {
			return experiments.AblationECN()
		}},
		{"ablation-phost", "pHost receiver-driven transport under incast", func(bool) (*experiments.Result, error) {
			return experiments.AblationPHostIncast()
		}},
		{"storage", "host cache storage overhead (§7.3)", func(quick bool) (*experiments.Result, error) {
			if quick {
				return experiments.StorageOverhead(8, 40, 1)
			}
			return experiments.StorageOverhead(32, 200, 1)
		}},
		{"fct", "flow completion times under realistic traffic", func(quick bool) (*experiments.Result, error) {
			horizon := 1.0
			if quick {
				horizon = 0.5
			}
			return experiments.FlowCompletionTimes(0.5, horizon, nil, 1)
		}},
	}
}

// The flags are package-level so the tests can check the docs against them.
var (
	runName     = flag.String("run", "all", "experiment to run (or 'all')")
	quick       = flag.Bool("quick", false, "smaller sweeps for fast runs")
	list        = flag.Bool("list", false, "list experiments")
	root        = flag.String("repo", ".", "repository root (for table1)")
	hybridK     = flag.Int("hybrid-scale", 0, "run the HiBench suite on a k-ary fat-tree (k/2 hosts per edge) through the hybrid fluid layer and print durations, events/sec, the completion digest and peak RSS to stderr")
	hybridWidth = flag.Int("hybrid-width", 8, "shuffle width (peers per worker) for -hybrid-scale")
	hybridGB    = flag.Float64("hybrid-gb", 0.5, "per-job input size in GB for -hybrid-scale")
	pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

func main() {
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *hybridK > 0 {
		if _, _, err := runHybridScale(os.Stderr, *hybridK, *hybridWidth, *hybridGB); err != nil {
			fmt.Fprintf(os.Stderr, "hybrid-scale: %v\n", err)
			os.Exit(1)
		}
		return
	}

	exps := registry(*root)
	if *list {
		names := make([]string, 0, len(exps))
		for _, e := range exps {
			names = append(names, fmt.Sprintf("  %-18s %s", e.name, e.desc))
		}
		sort.Strings(names)
		fmt.Println("experiments:")
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	failed := 0
	ran := 0
	for _, e := range exps {
		if *runName != "all" && e.name != *runName {
			continue
		}
		ran++
		res, err := e.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", e.name, err)
			failed++
			continue
		}
		fmt.Println(res.String())
		if !res.AllPass() {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *runName)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) had failing checks\n", failed)
		os.Exit(1)
	}
}
