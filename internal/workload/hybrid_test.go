package workload_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/workload"
)

func buildCluster(t *testing.T, k, hostsPerEdge int, seed int64) (*core.Network, *workload.Cluster) {
	t.Helper()
	ft, err := topo.FatTree(k, hostsPerEdge, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(ft, core.WithSeed(seed), core.WithHybridFlows(hybrid.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	c := &workload.Cluster{Layer: n.Hybrid()}
	for _, m := range n.Hosts() {
		c.Agents = append(c.Agents, n.Agent(m))
		c.MACs = append(c.MACs, m)
	}
	return n, c
}

// TestHiBenchOnFabric runs the HiBench suite (partial shuffle) on a k=4
// fat-tree through the hybrid layer and sanity-checks each duration: at
// least the job's compute critical path, at most that plus a generous
// network allowance.
func TestHiBenchOnFabric(t *testing.T) {
	_, c := buildCluster(t, 4, 1, 1)
	inputGB := 0.02 // keeps shuffles in the MB range
	jobs := workload.HiBenchSuiteWidth(c.Workers(), 3, inputGB)
	durs, err := workload.RunJobsOnFabric(jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		computeFloor := criticalComputeSec(j)
		got := float64(durs[i]) / 1e9
		if got < computeFloor {
			t.Errorf("%s: duration %.3fs below compute floor %.3fs", j.Name, got, computeFloor)
		}
		if got > computeFloor+10 {
			t.Errorf("%s: duration %.3fs implausibly above compute floor %.3fs", j.Name, got, computeFloor)
		}
		t.Logf("%s: %.3fs (compute floor %.3fs)", j.Name, got, computeFloor)
	}
	st := c.Layer.Stats()
	if st.Active != 0 || st.Failed > 0 {
		t.Fatalf("fluid layer not clean after suite: %+v", st)
	}
}

// criticalComputeSec is the DAG's longest compute-only path.
func criticalComputeSec(j workload.Job) float64 {
	best := make([]float64, len(j.Stages))
	var total float64
	for i, s := range j.Stages {
		b := 0.0
		for _, d := range s.Deps {
			if best[d] > b {
				b = best[d]
			}
		}
		best[i] = b + s.ComputeSec
		if best[i] > total {
			total = best[i]
		}
	}
	return total
}

// TestHiBenchOnFabricDeterminism: same seed, same suite — identical
// durations and fluid digests, and both equal to the recorded values, so a
// change that reorders completions deterministically still fails.
func TestHiBenchOnFabricDeterminism(t *testing.T) {
	const wantDigest = 0xdc12e56f6aa82638
	wantDurs := []sim.Time{2060373792, 1090783642, 111625659, 1091161175, 2140058066}
	run := func() ([]sim.Time, uint64) {
		_, c := buildCluster(t, 4, 1, 9)
		jobs := workload.HiBenchSuiteWidth(c.Workers(), 2, 0.01)
		durs, err := workload.RunJobsOnFabric(jobs, c)
		if err != nil {
			t.Fatal(err)
		}
		return durs, c.Layer.Digest()
	}
	d1, g1 := run()
	d2, g2 := run()
	if g1 != g2 {
		t.Fatalf("digest mismatch: %016x vs %016x", g1, g2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("job %d duration mismatch: %v vs %v", i, d1[i], d2[i])
		}
	}
	if g1 != wantDigest {
		t.Errorf("digest %#016x, want %#016x", g1, uint64(wantDigest))
	}
	if !slices.Equal(d1, wantDurs) {
		t.Errorf("durations %d, want %d", d1, wantDurs)
	}
}

// TestHiBenchSuiteShuffleWidth: every bounded stage is exactly the partial
// shuffle of its full-mesh stage's summed bytes, flow for flow and bit for
// bit, and the suite's DAGs stay valid.
func TestHiBenchSuiteShuffleWidth(t *testing.T) {
	const workers, width = 64, 4
	full := workload.HiBenchSuite(workers, 1.0)
	narrow := workload.HiBenchSuiteWidth(workers, width, 1.0)
	for i, j := range full {
		for s, st := range j.Stages {
			got := narrow[i].Stages[s].Flows
			if len(st.Flows) == 0 {
				if len(got) != 0 {
					t.Errorf("%s stage %d: %d flows, want none", j.Name, s, len(got))
				}
				continue
			}
			if want := workload.ShuffleWidth(workers, width, stageBytes(st)); !slices.Equal(got, want) {
				t.Errorf("%s stage %d: flows differ from ShuffleWidth over the full stage's bytes", j.Name, s)
			}
			if len(got) != workers*width {
				t.Errorf("%s stage %d: %d flows, want %d", j.Name, s, len(got), workers*width)
			}
		}
		if err := narrow[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func stageBytes(s workload.Stage) float64 {
	var sum float64
	for _, f := range s.Flows {
		sum += f.Bytes
	}
	return sum
}

// TestClusterPlacementChecked: out-of-range workers and a cluster with
// fewer MACs than agents are scheduling errors, not panics.
func TestClusterPlacementChecked(t *testing.T) {
	_, c := buildCluster(t, 4, 1, 1)
	short := *c
	short.MACs = c.MACs[:len(c.MACs)-1]
	for _, tc := range []struct {
		name string
		c    *workload.Cluster
		dst  int
	}{
		{"worker outside the cluster", c, c.Workers() + 5},
		{"fewer MACs than agents", &short, c.Workers() - 1},
	} {
		j := workload.Job{Stages: []workload.Stage{{
			Name:  "bad",
			Flows: []workload.Flow{{Src: 0, Dst: tc.dst, Bytes: 1e6}},
		}}}
		if _, err := workload.RunJobOnFabric(j, tc.c); err == nil {
			t.Errorf("%s: expected placement error", tc.name)
		}
	}
}

// TestRunJobOnFabricReservationFails: a transfer to a host the fabric does
// not have cannot reserve a route. Its stage still completes, so the job
// ends, and RunJobOnFabric reports the failed transfer instead of a
// duration.
func TestRunJobOnFabricReservationFails(t *testing.T) {
	_, c := buildCluster(t, 4, 1, 1)
	c.MACs = append([]packet.MAC(nil), c.MACs...)
	c.MACs[1] = packet.MACFromUint64(0xdead)
	j := workload.Job{Stages: []workload.Stage{{
		Name: "shuffle",
		Flows: []workload.Flow{
			{Src: 0, Dst: 1, Bytes: 1e6},
			{Src: 0, Dst: 2, Bytes: 1e6},
		},
	}}}
	_, err := workload.RunJobOnFabric(j, c)
	if err == nil || !strings.Contains(err.Error(), "1 transfers failed route reservation") {
		t.Fatalf("err = %v, want one failed route reservation", err)
	}
	if st := c.Layer.Stats(); st.Failed != 1 || st.Completed != 1 || st.Active != 0 {
		t.Fatalf("layer stats = %+v, want one failed and one completed transfer", st)
	}
}

// TestFluidAdmissionAllocs: on a warm path table a fluid transfer costs at
// most 0.1 allocations from Open to completion, amortised. A route hit
// resolves in place (no callback closure), the flow owns its fluid path and
// its flowsim.Flow, completions find their flow without a map, and the job
// builds one completion callback per stage.
func TestFluidAdmissionAllocs(t *testing.T) {
	n, c := buildCluster(t, 4, 2, 1)
	const width, stages = 8, 2
	for s := range c.Workers() {
		for i := 1; i <= width; i++ {
			if err := c.Agents[s].WarmUp(c.MACs[(s+i)%c.Workers()]); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.Run()
	job := workload.Job{Name: "shuffles"}
	for s := range stages {
		st := workload.Stage{Name: "shuffle", Flows: workload.ShuffleWidth(c.Workers(), width, 64e6)}
		if s > 0 {
			st.Deps = []int{s - 1}
		}
		job.Stages = append(job.Stages, st)
	}
	const runs = 10
	before := c.Layer.Stats()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := workload.RunJobOnFabric(job, c); err != nil {
			t.Fatal(err)
		}
	})
	after := c.Layer.Stats()
	if after.Failed != before.Failed || after.Active != 0 {
		t.Fatalf("layer stats %+v after %+v: want every transfer completed", after, before)
	}
	perRun := float64(after.Completed-before.Completed) / (runs + 1) // AllocsPerRun warms up once
	perFlow := allocs / perRun
	t.Logf("%.0f allocations per job of %.0f transfers: %.3f per completed flow", allocs, perRun, perFlow)
	if perFlow > 0.1 {
		t.Fatalf("%.3f allocations per completed flow, want at most 0.1", perFlow)
	}

	// A warm Go map reuses its slots under insert/delete churn, so a
	// per-flow map would cost no allocation here. Check instead that no map
	// the layer holds grows while transfers are in flight.
	lens := mapLens(c.Layer)
	for s := range c.Workers() {
		dst := c.MACs[(s+1)%c.Workers()]
		c.Layer.Open(c.Agents[s], dst, 1e6, host.FlowKey{Dst: dst, Proto: 0xFE}, nil)
	}
	if st := c.Layer.Stats(); st.Active != c.Workers() {
		t.Fatalf("%d transfers in flight, want %d", st.Active, c.Workers())
	}
	if got := mapLens(c.Layer); !slices.Equal(got, lens) {
		t.Fatalf("layer map sizes %v with transfers in flight, %v before: admission must not touch a per-flow map", got, lens)
	}
	n.Run()
}

// mapLens reports the size of every map field of the layer.
func mapLens(ly *hybrid.Layer) (lens []int) {
	v := reflect.ValueOf(ly).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Map {
			lens = append(lens, f.Len())
		}
	}
	return lens
}
