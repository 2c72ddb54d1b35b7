package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run's settings. Seed is the only thing the workload
// generators see besides the size class.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Smoke   bool
	OutDir  string
}

// roundRec is what one measured round reports.
type roundRec struct {
	work      int64 // work units completed (the workload's own unit)
	attempted int64 // operations attempted
	failed    int64 // operations that did not complete
	injectNs  int64 // host time spent injecting, before the drain
	pending   int   // engine events pending after injection

	wallNs int64
	cpuNs  int64
}

// instance is one set-up deployment of a workload, ready to run rounds.
type instance interface {
	// prepare is per-round work that is not part of the round (chaos-soak
	// builds a fresh network here); its time is returned and accounted as
	// set-up.
	prepare(i int) (time.Duration, error)
	// round injects one batch and drains the engine.
	round(i int, rec *roundRec) error
	// simStats reports the virtual-time results of the first `pin` rounds.
	simStats(pin int) simStats
	// collect reads public counters into per-layer metrics.
	collect(m metricSet)
	// kernels runs this workload's isolated timing loops on its own fabric.
	kernels(k *kernelSet)
	close()
}

// simStats are the deterministic-per-seed outputs of a run: virtual time
// only, taken over a fixed prefix of rounds so they do not depend on how
// many rounds the host had time for.
type simStats struct {
	latencyUs   []float64 // virtual latencies, one per probe/flow/timeline
	completionS float64   // virtual seconds the pinned rounds took
	digest      uint64
}

// workload is one pinned benchmark scenario.
type workload struct {
	name     string
	workUnit string
	// pin is how many leading rounds the sim_* values and the digest cover;
	// every run measures at least this many.
	pin int
	// shards is the engine count, for sim.busy_ratio.
	shards int
	// setups is how many times a run sets the workload up; setup_s is their
	// median and the last one is measured. Cheap set-ups repeat more, so that
	// every workload spends about as long on them. Fixed per workload, not
	// derived from the measured time: the count feeds peak_rss_mib.
	setups int
	setup  func(cfg runConfig, tr *tracer) (instance, error)
}

// metricSet collects named values; units come from BENCHMARK.json.
type metricSet map[string]float64

// result is everything one run produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Rounds    int                `json:"rounds"`
	WorkUnit  string             `json:"work_unit"`
	SimDigest string             `json:"sim_digest"`
	Metrics   map[string]metric  `json:"metrics"`
	Kernels   map[string]kernel  `json:"kernels,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Meta      runMeta            `json:"meta"`
	Spans     []span             `json:"-"`
	Sim       map[string]float64 `json:"sim"`
	// RoundMs and RoundCPUMs are every measured round, in order.
	RoundMs    []float64 `json:"round_ms"`
	RoundCPUMs []float64 `json:"round_cpu_ms"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract is the single line the driver reads.
type contract struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) contractLine() contract {
	return contract{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// checkAgainst gives every emitted metric its declared unit and refuses a
// run that misses a declared metric or emits an undeclared one.
func (r *result) checkAgainst(s *spec, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			if !traced {
				return fmt.Errorf("end-to-end metric %s not produced", m.Name)
			}
			v = metric{} // a layer this workload does not touch
		}
		v.Unit = m.Unit
		out[m.Name] = v
	}
	for name := range r.Metrics {
		if _, ok := out[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	r.Metrics = out
	return nil
}

// writeDetail saves the full result (and, for traced runs, the spans) next
// to the CPU profile.
func (r *result) writeDetail(cfg runConfig) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if cfg.Trace {
		kind = "traced"
		data, err := json.Marshal(r.Spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.OutDir, r.Workload+".spans.json"), data, 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, r.Workload+"."+kind+".json"), append(data, '\n'), 0o644)
}

// smokeRounds is how many rounds a smoke run measures (after one set-up).
const smokeRounds = 3

// runWorkload performs one complete run: w.setups set-ups (the last is kept),
// one unmeasured round, a GC, then measured rounds for cfg.Seconds (smoke:
// exactly smokeRounds after a single set-up), then output checks.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	setups, rounds, pin := w.setups, 0, w.pin
	if cfg.Smoke {
		setups, rounds, pin = 1, smokeRounds, smokeRounds
	}
	meta := collectMeta(cfg)
	tr := newTracer(cfg.Trace)

	var (
		inst   instance
		setupS []float64
	)
	for len(setupS) < setups {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		id := tr.begin("setup")
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.end(id)
	}
	defer inst.close()

	// One unmeasured round lets pools, path tables and lazily built state
	// settle; sim_* and the digest start after it.
	var warm roundRec
	prepWarm, err := inst.prepare(-1)
	if err != nil {
		return nil, err
	}
	if err := inst.round(-1, &warm); err != nil {
		return nil, fmt.Errorf("warm round: %w", err)
	}
	// Two collections: the second drops what sync.Pools kept through the first,
	// which moved heap_live_mib by 5 % between runs of one seed.
	runtime.GC()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heapLive := float64(ms0.HeapAlloc) / (1 << 20)

	var profPath string
	if cfg.Trace {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		profPath = filepath.Join(cfg.OutDir, w.name+".cpu.pprof")
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer f.Close()
	}

	var (
		recs     []roundRec
		prepS    []float64
		deadline = time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
		cpuStart = cpuTime()
	)
	if prepWarm > 0 {
		prepS = append(prepS, prepWarm.Seconds())
	}
	for i := 0; ; i++ {
		if rounds > 0 {
			if i >= rounds {
				break
			}
		} else if i >= pin && !time.Now().Before(deadline) {
			break
		}
		d, err := inst.prepare(i)
		if err != nil {
			return nil, err
		}
		if d > 0 {
			prepS = append(prepS, d.Seconds())
		}
		var rec roundRec
		id := tr.begin("round")
		c0 := cpuTime()
		t0 := time.Now()
		if err := inst.round(i, &rec); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rec.wallNs = time.Since(t0).Nanoseconds()
		rec.cpuNs = cpuTime() - c0
		tr.end(id)
		recs = append(recs, rec)
	}
	measuredCPU := float64(cpuTime()-cpuStart) / 1e9
	if cfg.Trace {
		pprof.StopCPUProfile()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	res := &result{
		Workload: w.name, Seed: cfg.Seed, Traced: cfg.Trace, Rounds: len(recs),
		WorkUnit: w.workUnit, Metrics: map[string]metric{}, Meta: meta,
	}
	var work, wallNs int64
	walls := make([]float64, len(recs))
	cpus := make([]float64, len(recs))
	rates := make([]float64, len(recs))
	for i, r := range recs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		work += r.work
		wallNs += r.wallNs
		walls[i] = float64(r.wallNs) / 1e6
		cpus[i] = float64(r.cpuNs) / 1e6
		rates[i] = float64(r.work) / (float64(r.wallNs) / 1e9)
	}
	res.RoundMs, res.RoundCPUMs = walls, cpus
	// A chaos round's set-up is per round; everywhere else it is per run.
	if len(prepS) > 0 {
		setupS = prepS
	}
	st := inst.simStats(pin)
	res.SimDigest = fmt.Sprintf("%016x", st.digest)
	sort.Float64s(st.latencyUs)
	res.Sim = map[string]float64{
		"sim_latency_us_p50": quantile(st.latencyUs, 0.50),
		"sim_latency_us_p99": quantile(st.latencyUs, 0.99),
		"sim_completion_s":   st.completionS,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && work > 0
	if work == 0 {
		return nil, fmt.Errorf("no work completed in %d rounds", len(recs))
	}

	roundMs := median(walls)
	roundCPUMs := median(cpus)

	set := metricSet{}
	if !cfg.Trace {
		set["setup_s"] = median(setupS)
		set["round_ms_p50"] = roundMs
		set["round_cpu_ms_p50"] = roundCPUMs
		set["work_per_s"] = median(rates)
		set["peak_rss_mib"] = float64(peakRSSBytes()) / (1 << 20)
		set["heap_live_mib"] = heapLive
		set["allocs_per_work"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(work)
	} else {
		for k, v := range res.Sim {
			set[k] = v
		}
		set["fail_share"] = float64(res.Failed) / float64(res.Attempted)
		set["trace.round_ms_p50"] = roundMs
		set["sim.busy_ratio"] = roundCPUMs / (float64(w.shards) * roundMs)
		if len(recs) >= 200 {
			sorted := append([]float64(nil), walls...)
			sort.Float64s(sorted)
			set["sim.round_ms_p95"] = quantile(sorted, 0.95)
		}
		var inject, drain []float64
		peak := 0
		for _, r := range recs {
			inject = append(inject, float64(r.injectNs)/1e6)
			drain = append(drain, float64(r.wallNs-r.injectNs)/1e6)
			if r.pending > peak {
				peak = r.pending
			}
		}
		set["host.inject_ms_p50"] = median(inject)
		set["sim.drain_ms_p50"] = median(drain)
		set["sim.pending_peak"] = float64(peak)
		set["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		set["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		tr.spanMedians(set)
		inst.collect(set)
		if ev := set["sim.events"]; ev > 0 {
			set["sim.events_per_s"] = ev / (float64(wallNs) / 1e9)
		}

		runtime.GC() // the loops start from a settled heap
		ks := &kernelSet{smoke: cfg.Smoke}
		inst.kernels(ks)
		res.Kernels = ks.out
		for name, k := range ks.out {
			if k.Unresolved {
				res.Notes = append(res.Notes, fmt.Sprintf("%s unresolved: cv %.1f%% over %d samples", name, 100*k.CV, k.Samples))
				continue
			}
			set[name] = k.MedianNs
		}
		sort.Strings(res.Notes)
		shares, err := profileShares(profPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		attribute(set, shares, measuredCPU)
		set["trace.overhead_ratio"] = overheadRatio(cfg, w.name, roundMs)
		res.Spans = tr.spans
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, n)
		}
	}
	res.Meta.Load1End = loadAvg1()
	for k, v := range set {
		res.Metrics[k] = metric{Value: v}
	}
	return res, nil
}

// overheadRatio is the traced run's median round over that of the latest
// untraced run of the same workload found in the out directory (a round
// costs the same on every seed, by construction); 0 when there is none. The
// suite overwrites it with the ratio to its own same-seed untraced run.
func overheadRatio(cfg runConfig, name string, tracedRoundMs float64) float64 {
	data, err := os.ReadFile(filepath.Join(cfg.OutDir, name+".e2e.json"))
	if err != nil {
		return 0
	}
	var prev result
	if json.Unmarshal(data, &prev) != nil {
		return 0
	}
	if base := prev.Metrics["round_ms_p50"].Value; base > 0 {
		return tracedRoundMs / base
	}
	return 0
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSBytes reads the process high-water RSS (VmHWM).
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 {
			if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// runMeta records the machine and settings a result was taken under.
type runMeta struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	GoMemLimit string  `json:"gomemlimit"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func collectMeta(cfg runConfig) runMeta {
	m := runMeta{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: envOr("GOGC", "100"), GoMemLimit: envOr("GOMEMLIMIT", "off"),
		GitSHA: "unknown", Seed: cfg.Seed, Load1Start: loadAvg1(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					m.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	// `go run` stamps the binary with the checkout's revision when there is
	// one; the driver's checkout is not a repository, so "unknown" is normal.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.GitSHA = s.Value
			}
		}
	}
	return m
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// median of an unsorted sample (0 when empty); the mean of the middle two
// for an even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile of a sorted sample by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
