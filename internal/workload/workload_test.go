package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dumbnet/internal/flowsim"
)

func TestShuffleCoversAllPairs(t *testing.T) {
	flows := shuffle(4, 0, 1200)
	if len(flows) != 12 {
		t.Fatalf("flows = %d, want 12", len(flows))
	}
	var sum float64
	seen := map[[2]int]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
		if seen[[2]int{f.Src, f.Dst}] {
			t.Fatal("duplicate pair")
		}
		seen[[2]int{f.Src, f.Dst}] = true
		sum += f.Bytes
	}
	if math.Abs(sum-1200) > 1e-9 {
		t.Fatalf("total = %v", sum)
	}
	if shuffle(1, 0, 100) != nil {
		t.Fatal("single worker should have no shuffle")
	}
}

func TestJobsValidateAndHaveTraffic(t *testing.T) {
	for _, job := range HiBenchSuite(8, 2) {
		if err := job.Validate(); err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		if job.TotalBytes() <= 0 {
			t.Fatalf("%s: no traffic", job.Name)
		}
		if len(job.Stages) < 2 {
			t.Fatalf("%s: too few stages", job.Name)
		}
	}
}

func TestJobShuffleOrdering(t *testing.T) {
	// Terasort must move the most bytes; Wordcount the least (Fig 13's
	// jobs stress the network very differently).
	ts := Terasort(8, 0, 2).TotalBytes()
	wc := Wordcount(8, 0, 2).TotalBytes()
	ag := Aggregation(8, 0, 2).TotalBytes()
	if !(ts > ag && ag > wc) {
		t.Fatalf("bytes ordering: ts=%v ag=%v wc=%v", ts, ag, wc)
	}
}

func TestValidateRejectsForwardDeps(t *testing.T) {
	j := Job{Stages: []Stage{{Name: "a", Deps: []int{1}}, {Name: "b"}}}
	if j.Validate() == nil {
		t.Fatal("forward dep accepted")
	}
}

func TestRunJobSimpleChain(t *testing.T) {
	// Two hosts, one 1 Gbps link each way; a job with 1 GB shuffle-ish
	// stage should take ~8 s of network time plus compute.
	net := flowsim.NewNetwork()
	l := net.AddLink(1e9)
	job := Job{
		Name: "test",
		Stages: []Stage{
			{Name: "compute", ComputeSec: 2},
			{Name: "transfer", Deps: []int{0}, Flows: []Flow{{Src: 0, Dst: 1, Bytes: 1e9}}},
			{Name: "finish", Deps: []int{1}, ComputeSec: 1},
		},
	}
	dur, err := RunJob(job, net, func(src, dst, fi int) []flowsim.LinkID { return []flowsim.LinkID{l} })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dur-11) > 1e-6 { // 2 + 8 + 1
		t.Fatalf("duration = %v, want 11", dur)
	}
}

func TestRunJobParallelDeps(t *testing.T) {
	net := flowsim.NewNetwork()
	job := Job{
		Name: "diamond",
		Stages: []Stage{
			{Name: "a", ComputeSec: 1},
			{Name: "b", ComputeSec: 3},
			{Name: "join", Deps: []int{0, 1}, ComputeSec: 1},
		},
	}
	dur, err := RunJob(job, net, func(int, int, int) []flowsim.LinkID { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// join waits for the slower branch: 3 + 1.
	if math.Abs(dur-4) > 1e-6 {
		t.Fatalf("duration = %v, want 4", dur)
	}
}

// A flow over a dead (zero-capacity) link never finishes, so its stage
// and everything after it never complete: RunJob names the first stuck
// stage instead of returning a duration.
func TestRunJobStageNeverCompletes(t *testing.T) {
	net := flowsim.NewNetwork()
	dead := net.AddLink(0)
	job := Job{
		Name: "stuck",
		Stages: []Stage{
			{Name: "compute", ComputeSec: 1},
			{Name: "transfer", Deps: []int{0}, Flows: []Flow{{Src: 0, Dst: 1, Bytes: 1e6}}},
			{Name: "finish", Deps: []int{1}, ComputeSec: 1},
		},
	}
	_, err := RunJob(job, net, func(int, int, int) []flowsim.LinkID { return []flowsim.LinkID{dead} })
	if err == nil || !strings.Contains(err.Error(), "stage 1 (transfer) never completed") {
		t.Fatalf("err = %v, want stage 1 never completed", err)
	}
}

func TestLeafSpinePolicies(t *testing.T) {
	ls := NewLeafSpine(2, 2, 2, 10e9, 1e9)
	if ls.Hosts() != 4 {
		t.Fatalf("hosts = %d", ls.Hosts())
	}
	if ls.Leaf(0) != 0 || ls.Leaf(3) != 1 {
		t.Fatal("leaf mapping")
	}
	// Cross-leaf path has 4 links; same-leaf has 2.
	if got := len(ls.PathVia(0, 3, 1)); got != 4 {
		t.Fatalf("cross-leaf path = %d links", got)
	}
	if got := len(ls.PathVia(0, 1, 0)); got != 2 {
		t.Fatalf("same-leaf path = %d links", got)
	}
	// SinglePath always uses spine 0's uplink.
	sp := ls.SinglePathPolicy()
	p := sp(0, 3, 5)
	if p[1] != ls.up[[2]int{0, 0}] {
		t.Fatal("single path not pinned to spine 0")
	}
	// Flowlet round-robins.
	fl := ls.FlowletPolicy()
	a := fl(0, 3, 0)
	b := fl(0, 3, 1)
	if a[1] == b[1] {
		t.Fatal("flowlet policy did not rotate spines")
	}
}

func TestHiBenchFlowletBeatsSinglePath(t *testing.T) {
	// The core Fig 13 property: with a constrained fabric, flowlet TE
	// finishes shuffle-heavy jobs faster than single-path routing.
	build := func() *LeafSpineNet { return NewLeafSpine(2, 5, 5, 10e9, 0.5e9) }
	job := Terasort(25, 0, 2)
	lsF := build()
	durFlowlet, err := RunJob(job, lsF.Net, lsF.FlowletPolicy())
	if err != nil {
		t.Fatal(err)
	}
	lsS := build()
	durSingle, err := RunJob(job, lsS.Net, lsS.SinglePathPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if durFlowlet >= durSingle {
		t.Fatalf("flowlet %.1fs not faster than single path %.1fs", durFlowlet, durSingle)
	}
}

func TestECMPBetweenFlowletAndSingle(t *testing.T) {
	job := Terasort(25, 0, 2)
	run := func(policy func(*LeafSpineNet) RouteFunc) float64 {
		ls := NewLeafSpine(2, 5, 5, 10e9, 0.5e9)
		dur, err := RunJob(job, ls.Net, policy(ls))
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	fl := run(func(ls *LeafSpineNet) RouteFunc { return ls.FlowletPolicy() })
	ec := run(func(ls *LeafSpineNet) RouteFunc { return ls.ECMPPolicy(rand.New(rand.NewSource(3))) })
	sp := run(func(ls *LeafSpineNet) RouteFunc { return ls.SinglePathPolicy() })
	if !(fl <= ec && ec <= sp) {
		t.Fatalf("ordering: flowlet=%.1f ecmp=%.1f single=%.1f", fl, ec, sp)
	}
}

func TestSizeDistSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := WebSearchDist()
	minS, maxS := math.Inf(1), 0.0
	for i := 0; i < 5000; i++ {
		s := d.Sample(rng)
		if s <= 0 {
			t.Fatalf("%s: non-positive sample %v", d.Name, s)
		}
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if minS < 50 || maxS > 30e6 {
		t.Fatalf("%s: samples out of range [%v, %v]", d.Name, minS, maxS)
	}
	// The heavy tail lifts the mean well above the 33 kB median.
	if m := d.Mean(20000, 2); m < 100e3 || m > 30e6 {
		t.Fatalf("%s: mean %v outside (100 kB, 30 MB)", d.Name, m)
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	times := PoissonArrivals(1000, 1.0, rng)
	if len(times) < 800 || len(times) > 1200 {
		t.Fatalf("arrival count %d far from rate*horizon=1000", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatal("arrivals not increasing")
		}
	}
	if times[len(times)-1] >= 1.0 {
		t.Fatal("arrival beyond horizon")
	}
}

func TestRandomFlowTrace(t *testing.T) {
	trace := RandomFlowTrace(10, 10e9, 0.3, 0.5, WebSearchDist(), 1)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	var bytes float64
	for _, f := range trace {
		if f.Src == f.Dst || f.Src < 0 || f.Dst >= 10 {
			t.Fatalf("bad flow %+v", f)
		}
		bytes += f.Bytes
	}
	// Offered load should be within a factor of 2 of the target.
	offered := bytes * 8 / 0.5 / (10 * 10e9)
	if offered < 0.1 || offered > 0.9 {
		t.Fatalf("offered load %.2f far from target 0.3", offered)
	}
	// Determinism.
	trace2 := RandomFlowTrace(10, 10e9, 0.3, 0.5, WebSearchDist(), 1)
	if len(trace2) != len(trace) || trace2[0] != trace[0] {
		t.Fatal("trace not deterministic")
	}
}
