// Package workload models the traffic the paper evaluates with: iperf-like
// micro-benchmark flows and flow-level DAGs of the five HiBench jobs
// (Aggregation, Join, Pagerank, Terasort, Wordcount) used in Fig 13. Jobs
// are stages with dependencies; shuffle stages are all-to-all transfers
// between workers, which is where multi-path routing matters.
package workload

import (
	"fmt"
)

// Flow is one host-to-host transfer inside a stage.
type Flow struct {
	Src, Dst int     // worker indices
	Bytes    float64 // transfer size
}

// Stage is one phase of a job.
type Stage struct {
	Name string
	// Deps are indices of stages that must finish first.
	Deps []int
	// ComputeSec is fixed computation before the stage's flows start.
	ComputeSec float64
	Flows      []Flow
}

// Job is a DAG of stages.
type Job struct {
	Name   string
	Stages []Stage
}

// TotalBytes sums all network traffic in the job.
func (j Job) TotalBytes() float64 {
	var sum float64
	for _, s := range j.Stages {
		for _, f := range s.Flows {
			sum += f.Bytes
		}
	}
	return sum
}

// Validate checks DAG sanity: dep indices in range and acyclic (deps must
// point to earlier stages, the construction invariant here).
func (j Job) Validate() error {
	for i, s := range j.Stages {
		for _, d := range s.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("workload: stage %d dep %d out of order", i, d)
			}
		}
	}
	return nil
}

// shuffle builds a stage's transfer of totalBytes between workers. At width
// 0 it is the all-to-all mesh, split evenly across the n*(n-1) cross-host
// pairs (same-host pairs move no network bytes). At a positive width it is
// ShuffleWidth over the mesh's total re-summed pair by pair, so a bounded
// stage carries bit-for-bit the bytes its full mesh would.
func shuffle(workers, width int, totalBytes float64) []Flow {
	if workers < 2 {
		return nil
	}
	pairs := workers * (workers - 1)
	per := totalBytes / float64(pairs)
	if width > 0 {
		total := 0.0
		for range pairs {
			total += per
		}
		return ShuffleWidth(workers, width, total)
	}
	flows := make([]Flow, 0, pairs)
	for s := 0; s < workers; s++ {
		for d := 0; d < workers; d++ {
			if s != d {
				flows = append(flows, Flow{Src: s, Dst: d, Bytes: per})
			}
		}
	}
	return flows
}

// ShuffleWidth builds a partial shuffle: each worker sends to its `width`
// successors (mod workers), moving totalBytes split evenly over the
// workers*width transfers. Real shuffle services fetch from a bounded
// number of peers at a time; the full n*(n-1) mesh is quadratic and
// unusable at thousands of workers (a k=32 fat-tree's 8192 hosts would
// need 67M flows), while ShuffleWidth keeps the flow count linear and
// still crosses pods. width is clamped to workers-1; width <= 0 means the
// full shuffle.
func ShuffleWidth(workers, width int, totalBytes float64) []Flow {
	if workers < 2 {
		return nil
	}
	if width <= 0 || width >= workers {
		return shuffle(workers, 0, totalBytes)
	}
	per := totalBytes / float64(workers*width)
	flows := make([]Flow, 0, workers*width)
	for s := 0; s < workers; s++ {
		for i := 1; i <= width; i++ {
			flows = append(flows, Flow{Src: s, Dst: (s + i) % workers, Bytes: per})
		}
	}
	return flows
}

const gb = 1e9

// The HiBench models: input sizes are in GB of raw data; shuffle ratios and
// compute constants are calibrated to the relative job durations the suite
// shows on a small cluster (Terasort shuffle-dominated, Wordcount
// map-dominated, Pagerank iterative). Each builder bounds its shuffles to
// width peers per worker; width 0 is the full mesh.

// Wordcount is map-heavy with a tiny shuffle (word histograms compress
// well).
func Wordcount(workers, width int, inputGB float64) Job {
	return Job{
		Name: "Wordcount",
		Stages: []Stage{
			{Name: "map", ComputeSec: 14 * inputGB},
			{Name: "shuffle+reduce", Deps: []int{0}, ComputeSec: 2,
				Flows: shuffle(workers, width, 0.05*inputGB*gb)},
		},
	}
}

// Terasort moves its entire input through the shuffle.
func Terasort(workers, width int, inputGB float64) Job {
	return Job{
		Name: "Terasort",
		Stages: []Stage{
			{Name: "sample+map", ComputeSec: 4 * inputGB},
			{Name: "shuffle", Deps: []int{0}, ComputeSec: 1,
				Flows: shuffle(workers, width, 1.0*inputGB*gb)},
			{Name: "reduce+write", Deps: []int{1}, ComputeSec: 5 * inputGB},
		},
	}
}

// Aggregation groups records: moderate shuffle.
func Aggregation(workers, width int, inputGB float64) Job {
	return Job{
		Name: "Aggregation",
		Stages: []Stage{
			{Name: "scan", ComputeSec: 6 * inputGB},
			{Name: "shuffle+aggregate", Deps: []int{0}, ComputeSec: 2,
				Flows: shuffle(workers, width, 0.3*inputGB*gb)},
		},
	}
}

// Join scans two tables and shuffles both to the join stage.
func Join(workers, width int, inputGB float64) Job {
	return Job{
		Name: "Join",
		Stages: []Stage{
			{Name: "scan-left", ComputeSec: 5 * inputGB},
			{Name: "scan-right", ComputeSec: 4 * inputGB},
			{Name: "shuffle-left", Deps: []int{0}, ComputeSec: 1,
				Flows: shuffle(workers, width, 0.45*inputGB*gb)},
			{Name: "shuffle-right", Deps: []int{1}, ComputeSec: 1,
				Flows: shuffle(workers, width, 0.35*inputGB*gb)},
			{Name: "join+write", Deps: []int{2, 3}, ComputeSec: 4 * inputGB},
		},
	}
}

// Pagerank iterates: each superstep shuffles the rank vector.
func Pagerank(workers, width int, inputGB float64) Job {
	j := Job{Name: "Pagerank"}
	j.Stages = append(j.Stages, Stage{Name: "load", ComputeSec: 5 * inputGB})
	prev := 0
	for it := 0; it < 3; it++ {
		j.Stages = append(j.Stages, Stage{
			Name:       fmt.Sprintf("iter-%d", it+1),
			Deps:       []int{prev},
			ComputeSec: 2 * inputGB,
			Flows:      shuffle(workers, width, 0.35*inputGB*gb),
		})
		prev = len(j.Stages) - 1
	}
	return j
}

// HiBenchSuite returns the five jobs at a common scale.
func HiBenchSuite(workers int, inputGB float64) []Job {
	return HiBenchSuiteWidth(workers, 0, inputGB)
}

// HiBenchSuiteWidth is HiBenchSuite with every shuffle bounded to width
// peers per worker — the form that runs at fat-tree scale: the DAG shape and
// traffic volume stay, the quadratic flow count goes. Width 0 is the full
// suite.
func HiBenchSuiteWidth(workers, width int, inputGB float64) []Job {
	return []Job{
		Aggregation(workers, width, inputGB),
		Join(workers, width, inputGB),
		Pagerank(workers, width, inputGB),
		Terasort(workers, width, inputGB),
		Wordcount(workers, width, inputGB),
	}
}
