package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Suite mode: every workload in its own child process (so peak RSS is per
// workload), suiteSamples untraced runs on consecutive seeds for the
// end-to-end metrics, then one traced run for the per-layer metrics. The
// set is written to <out>/suite-<n>.json; -compare reads two of them.

const (
	suiteSchema  = "dumbnet-bench/v3"
	suiteSamples = 3
	// simBound is how far a virtual-time result may move, in either
	// direction, between two sets on the same seed before -compare calls the
	// model changed.
	simBound = 0.01
)

// simMetrics are the virtual-time results -compare checks seed by seed.
var simMetrics = []string{"sim_latency_us_p50", "sim_latency_us_p99", "sim_completion_s"}

type suiteFile struct {
	Schema    string                   `json:"schema"`
	Meta      runMeta                  `json:"meta"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*suiteResults `json:"workloads"`
	// ShardingS2 is pkt-wave-s2 against pkt-wave on identical inputs: whether
	// every sim_* value and the digest agree, and the 2-shard ÷ 1-shard ratio
	// of round_ms_p50.
	ShardingS2 *shardCheck `json:"sharding_s2,omitempty"`
}

type shardCheck struct {
	SimEqual     bool    `json:"sim_equal"`
	RoundMsRatio float64 `json:"round_ms_ratio"`
	GoMaxProcs   int     `json:"gomaxprocs"`
}

type suiteResults struct {
	WorkUnit string               `json:"work_unit"`
	Seeds    []int64              `json:"seeds"`
	EndToEnd map[string][]float64 `json:"end_to_end"` // one value per untraced run
	PerLayer map[string]float64   `json:"per_layer"`  // from the traced run
	Kernels  map[string]kernel    `json:"kernels,omitempty"`
	Notes    []string             `json:"notes,omitempty"`
	// Sim, SimDigest and FailShare are per untraced run, in the order of
	// Seeds: exact for a seed, so -compare matches them seed by seed.
	Sim       []map[string]float64 `json:"sim"`
	SimDigest []string             `json:"sim_digest"`
	FailShare []float64            `json:"fail_share"`
	// TracedAgrees is the output check between the two kinds of run: the
	// traced run saw the same virtual-time results as the untraced run on
	// the same seed.
	TracedAgrees bool `json:"traced_agrees"`
}

// runChild runs one workload in a child process and returns its result,
// read back from the detail file the child wrote.
func runChild(w workload, cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-out", cfg.OutDir,
	}
	kind := "e2e"
	if cfg.Trace {
		args, kind = append(args, "-trace", "1"), "traced"
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, %s): %w", w.name, cfg.Seed, kind, err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.OutDir, w.name+"."+kind+".json"))
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func sameSim(a, b *result) bool {
	if a.SimDigest != b.SimDigest || len(a.Sim) != len(b.Sim) {
		return false
	}
	for k, v := range a.Sim {
		if b.Sim[k] != v {
			return false
		}
	}
	return true
}

func runSuite(s *spec, cfg runConfig, sets int) error {
	var files []string
	for set := 1; set <= sets; set++ {
		out := suiteFile{Schema: suiteSchema, Meta: collectMeta(cfg), Seconds: cfg.Seconds, Workloads: map[string]*suiteResults{}}
		first := map[string]*result{}
		for _, w := range workloads {
			sr := &suiteResults{WorkUnit: w.workUnit, EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
			for i := 0; i < suiteSamples; i++ {
				c := cfg
				c.Trace, c.Seed = false, cfg.Seed+int64(i)
				res, err := runChild(w, c)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s (seed %d): %d of %d operations failed", w.name, c.Seed, res.Failed, res.Attempted)
				}
				if i == 0 {
					first[w.name] = res
				}
				sr.Seeds = append(sr.Seeds, c.Seed)
				sr.Sim = append(sr.Sim, res.Sim)
				sr.SimDigest = append(sr.SimDigest, res.SimDigest)
				sr.FailShare = append(sr.FailShare, float64(res.Failed)/float64(res.Attempted))
				for name, m := range res.Metrics {
					sr.EndToEnd[name] = append(sr.EndToEnd[name], m.Value)
				}
			}
			c := cfg
			c.Trace = true
			traced, err := runChild(w, c)
			if err != nil {
				return err
			}
			for name, m := range traced.Metrics {
				sr.PerLayer[name] = m.Value
			}
			if base := first[w.name].Metrics["round_ms_p50"].Value; base > 0 {
				sr.PerLayer["trace.overhead_ratio"] = traced.Metrics["trace.round_ms_p50"].Value / base
			}
			sr.Kernels, sr.Notes = traced.Kernels, traced.Notes
			sr.TracedAgrees = sameSim(first[w.name], traced)
			if !sr.TracedAgrees {
				return fmt.Errorf("%s: traced run disagrees with the untraced run on the same seed: %v/%s vs %v/%s",
					w.name, first[w.name].Sim, first[w.name].SimDigest, traced.Sim, traced.SimDigest)
			}
			out.Workloads[w.name] = sr
			printWorkload(s, w.name, sr)
		}
		if a, b := first["pkt-wave"], first["pkt-wave-s2"]; a != nil && b != nil {
			out.ShardingS2 = &shardCheck{
				SimEqual:     sameSim(a, b),
				RoundMsRatio: median(out.Workloads["pkt-wave-s2"].EndToEnd["round_ms_p50"]) / median(out.Workloads["pkt-wave"].EndToEnd["round_ms_p50"]),
				GoMaxProcs:   out.Meta.GoMaxProcs,
			}
			fmt.Printf("pkt-wave-s2 vs pkt-wave: sim_* equal %v, round_ms_p50 ratio (2 shards / 1) %.3f at gomaxprocs %d\n",
				out.ShardingS2.SimEqual, out.ShardingS2.RoundMsRatio, out.ShardingS2.GoMaxProcs)
		}
		out.Meta.Load1End = loadAvg1()
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("suite-%d.json", set))
		data, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		files = append(files, path)
	}
	for i := 1; i < len(files); i++ {
		if err := compareFiles(s, files[i-1], files[i]); err != nil {
			return err
		}
	}
	return nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4) gives
// them; 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func printWorkload(s *spec, name string, sr *suiteResults) {
	fmt.Printf("\n%s (work unit: %s, seeds %v, sim_digest %v)\n", name, sr.WorkUnit, sr.Seeds, sr.SimDigest)
	for _, m := range s.EndToEnd {
		v := sr.EndToEnd[m.Name]
		fmt.Printf("  %-22s %14.6g %-6s spread %5.1f%%  bound %4.1f%%\n", m.Name, median(v), m.Unit, 100*spread(v), 100*m.Bound)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, m := range s.PerLayer {
		if v := sr.PerLayer[m.Name]; v != 0 {
			fmt.Fprintf(w, "    %-42s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, n := range sr.Notes {
		fmt.Fprintf(w, "    note: %s\n", n)
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// recorded sets: both medians, the change in the worse direction, the bound
// and a verdict. Under them it prints the rows BENCHMARK.json cannot carry
// as end-to-end metrics (the driver wants those never 0 and judges them
// across seeds): fail_share, where any increase is worse, and the sim_*
// values, which are exact for a seed and so are matched seed by seed, where
// a move past simBound in either direction means the model changed. It
// returns an error when any pair is worse or changed.
func compareFiles(s *spec, pathA, pathB string) error {
	var a, b suiteFile
	for _, f := range []struct {
		path string
		into *suiteFile
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
		if f.into.Schema != suiteSchema {
			return fmt.Errorf("%s: schema %q, want %q", f.path, f.into.Schema, suiteSchema)
		}
	}
	fmt.Printf("\ncompare %s -> %s\n", pathA, pathB)
	fmt.Printf("%-15s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	worse := 0
	for _, w := range s.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range s.EndToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
				if m.Better == "higher" {
					change = -change
				}
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-18s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n", w.Name, m.Name, ma, mb, 100*change, 100*m.Bound, verdict)
		}
		worse += compareSeedwise(w.Name, ra, rb)
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than their bound or changed", worse)
	}
	return nil
}

// compareSeedwise prints the fail_share and sim_* rows of one workload,
// taken on the seeds both sets ran, and returns how many of them moved the
// wrong way. Each row shows the seed that moved most.
func compareSeedwise(name string, ra, rb *suiteResults) (bad int) {
	type pair struct{ ia, ib int }
	var common []pair
	for ia, seed := range ra.Seeds {
		for ib, other := range rb.Seeds {
			if seed == other && ia < len(ra.Sim) && ib < len(rb.Sim) {
				common = append(common, pair{ia, ib})
			}
		}
	}
	row := func(metric string, bound float64, rel bool, get func(r *suiteResults, i int) float64) {
		if len(common) == 0 {
			fmt.Printf("%-15s %-18s %14s %14s %8s %6.1f%%  unresolved (no seed in common)\n", name, metric, "-", "-", "-", 100*bound)
			return
		}
		var va, vb, most float64
		for i, p := range common {
			x, y := get(ra, p.ia), get(rb, p.ib)
			d := y - x
			if rel {
				d = math.Abs(d)
				if x != 0 {
					d /= math.Abs(x)
				}
			}
			if i == 0 || d > most {
				va, vb, most = x, y, d
			}
		}
		verdict := "ok"
		if most > bound {
			verdict = "worse"
			if rel {
				verdict = "changed"
			}
			bad++
		}
		fmt.Printf("%-15s %-18s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n", name, metric, va, vb, 100*most, 100*bound, verdict)
	}
	row("fail_share", 0, false, func(r *suiteResults, i int) float64 { return r.FailShare[i] })
	for _, m := range simMetrics {
		m := m
		row(m, simBound, true, func(r *suiteResults, i int) float64 { return r.Sim[i][m] })
	}
	return bad
}
