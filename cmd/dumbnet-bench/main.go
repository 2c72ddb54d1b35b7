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

	exps := experiments.Registry(*root)
	if *list {
		names := make([]string, 0, len(exps))
		for _, e := range exps {
			names = append(names, fmt.Sprintf("  %-18s %s", e.Name, e.Desc))
		}
		sort.Strings(names)
		fmt.Println("experiments:")
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	failed := 0
	ran := 0
	for _, e := range exps {
		if *runName != "all" && e.Name != *runName {
			continue
		}
		ran++
		res, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", e.Name, err)
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
