package main

import (
	"math"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeRun(t *testing.T, w workload, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, runConfig{Seed: seed, Smoke: true, Trace: traced, OutDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", w.name, seed, traced, err)
	}
	return res
}

func sameNames(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, m.Name)
			continue
		}
		if v.Unit == "" || v.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, want %q", what, m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s is %v", what, m.Name, v.Value)
		}
	}
}

// TestSmokeSuite runs the smoke size of every workload the way the suite
// does — untraced twice on one seed, traced on the same seed, untraced on
// another — and checks the benchmark's contract with BENCHMARK.json.
func TestSmokeSuite(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(s.Workloads), len(workloads))
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		hasSetup = hasSetup || m.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks the setup_s metric")
	}
	for _, ws := range s.Workloads {
		w, ok := workloadByName(ws.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness lacks", ws.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			a := smokeRun(t, w, 1, false)
			b := smokeRun(t, w, 1, false)
			tr := smokeRun(t, w, 1, true)
			other := smokeRun(t, w, 2, false)

			if err := a.checkAgainst(s, false); err != nil {
				t.Fatal(err)
			}
			if err := tr.checkAgainst(s, true); err != nil {
				t.Fatal(err)
			}
			sameNames(t, "end-to-end", a.Metrics, s.EndToEnd)
			sameNames(t, "per-layer", tr.Metrics, s.PerLayer)
			for name, v := range a.Metrics {
				// A smoke round is shorter than the tick some kernels account
				// CPU time in, so only its sign is checked here.
				if v.Value < 0 || (v.Value == 0 && name != "round_cpu_ms_p50") {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, v.Value)
				}
			}
			for _, r := range []*result{a, b, tr, other} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("seed %d traced %v: correct %v, %d of %d failed", r.Seed, r.Traced, r.Correct, r.Failed, r.Attempted)
				}
			}
			if v := tr.Metrics["fail_share"].Value; v != 0 {
				t.Errorf("fail_share = %v, want 0", v)
			}
			if !sameSim(a, b) {
				t.Errorf("two runs on seed 1 disagree: %v/%s vs %v/%s", a.Sim, a.SimDigest, b.Sim, b.SimDigest)
			}
			if !sameSim(a, tr) {
				t.Errorf("traced run disagrees with untraced on seed 1: %v/%s vs %v/%s", a.Sim, a.SimDigest, tr.Sim, tr.SimDigest)
			}
			if other.SimDigest == a.SimDigest {
				t.Errorf("seed 2 gave the digest of seed 1 (%s): the seed does not reach the inputs", a.SimDigest)
			}
		})
	}
}

// TestSpread pins the quartile rule to Python's statistics.quantiles(v,
// n=4), which the benchmark driver uses.
func TestSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; the median is 5.5.
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1", "dumbnet/internal/sim.(*Engine).Step", "main.run"}, "sim"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "dumbnet/internal/host.(*Agent).Send"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime.gc"},
		{[]string{"dumbnet/internal/topo.(*DenseGraph).bfsInto", "dumbnet/internal/controller.(*RouteService).lookup"}, "topo"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"sort.Slice", "main.runWorkload"}, "bench"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
