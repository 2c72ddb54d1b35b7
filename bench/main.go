// Command bench is the repository's end-to-end benchmark: six pinned
// workloads, each a closed loop of rounds (inject a fixed batch, drain the
// engine) on a deployment built through the public core API, measured from
// outside. BENCHMARK.json at the repository root declares it; README.md in
// this directory says why each workload exists and how the per-layer
// numbers are meant to explain the end-to-end ones.
//
//	go run ./bench --workload pkt-wave --seed 1 --seconds 10 --trace 0   one run, one JSON line
//	go run ./bench                                                      every workload, untraced then traced
//	go run ./bench -sets 2                                              two full sets + stability comparison
//	go run ./bench -compare A.json B.json                               compare two recorded sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process and print one JSON result line (empty: run the whole suite)")
		seed    = flag.Int64("seed", 1, "input seed: traffic permutations, failed links, chaos script order")
		seconds = flag.Float64("seconds", 0, "measure rounds for this many seconds, after set-up and one unmeasured round (0: run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "1: traced run (spans, CPU profile, counters, kernels) printing per-layer metrics; 0: end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "tiny fabrics, one set-up and 3 rounds: the shape of every workload in about a second")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for suite JSON, span dumps and CPU profiles")
		sets    = flag.Int("sets", 1, "suite mode: run the whole suite this many times and compare consecutive sets")
		compare = flag.Bool("compare", false, "compare two suite JSON files given as arguments; exit 1 on any 'worse'")
	)
	flag.Parse()

	if err := run(*name, *compare, runConfig{
		Seed: *seed, Seconds: *seconds, Trace: *traced != 0, Smoke: *smoke, OutDir: *outDir,
	}, *sets); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, compare bool, cfg runConfig, sets int) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = float64(spec.RunSeconds)
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two suite JSON files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	case name != "":
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := res.checkAgainst(spec, cfg.Trace); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := res.writeDetail(cfg); err != nil {
			return err
		}
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	default:
		return runSuite(spec, cfg, sets)
	}
}
