package workload

import (
	"fmt"

	"dumbnet/internal/flowsim"
)

// RouteFunc assigns a flow-level path (set of capacitated links) to a
// transfer. The flowIdx distinguishes repeated transfers between the same
// pair so multi-path policies can spread them.
type RouteFunc func(src, dst, flowIdx int) []flowsim.LinkID

// RunJob executes a job DAG on a flow-level network and returns its total
// duration in seconds. Each stage starts when its dependencies finish, runs
// ComputeSec of computation, then launches its flows; the stage completes
// when all its flows finish.
func RunJob(job Job, net *flowsim.Network, route RouteFunc) (float64, error) {
	r := &flowRun{s: flowsim.NewSimulator(net), route: route}
	if err := r.init(job, r); err != nil {
		return 0, err
	}
	r.s.OnFinish = func(f *flowsim.Flow, now float64) { r.flowDone(r.stageOf[f.ID-1], now) }
	r.start(0)
	r.s.Run()
	return r.duration()
}

// flowRun walks a job on a standalone flow simulator, in seconds.
type flowRun struct {
	walk[float64]
	s       *flowsim.Simulator
	route   RouteFunc
	stageOf []int // flow ID - 1 -> stage
}

func (r *flowRun) at(t float64, fn func())   { r.s.At(t, fn) }
func (r *flowRun) delay(sec float64) float64 { return sec }

func (r *flowRun) open(stage, fi int, fl Flow, start float64) {
	r.stageOf = append(r.stageOf, stage)
	r.s.Add(&flowsim.Flow{
		ID:    len(r.stageOf),
		Path:  r.route(fl.Src, fl.Dst, fi),
		Size:  fl.Bytes * 8, // bytes -> bits
		Start: start,
	})
}

// clock is a runner's virtual time: seconds for the standalone flow
// simulator, nanoseconds (sim.Time) on a fabric.
type clock interface{ ~float64 | ~int64 }

// runner is what a walk needs from the engine it runs on.
type runner[T clock] interface {
	// at schedules fn at time t.
	at(t T, fn func())
	// delay converts a stage's ComputeSec to the runner's clock.
	delay(sec float64) T
	// open starts one transfer of a stage at start; when the transfer
	// ends, the runner calls the walk's flowDone.
	open(stage, fi int, fl Flow, start T)
}

// walk is the stage-DAG walker both runners share. It counts each stage's
// unfinished dependencies, starts a stage ComputeSec after its last
// dependency completes, completes it when its last flow does (at once if
// it has none), and reports a stage that never completed.
type walk[T clock] struct {
	run        runner[T]
	job        Job
	begin, end T
	remDeps    []int
	dependents [][]int
	remFlows   []int
	done       []bool
}

// init validates the job and prepares its walk on run; start schedules it.
func (w *walk[T]) init(job Job, run runner[T]) error {
	if err := job.Validate(); err != nil {
		return err
	}
	n := len(job.Stages)
	*w = walk[T]{
		run:        run,
		job:        job,
		remDeps:    make([]int, n),
		dependents: make([][]int, n),
		remFlows:   make([]int, n),
		done:       make([]bool, n),
	}
	for i, st := range job.Stages {
		w.remDeps[i] = len(st.Deps)
		for _, d := range st.Deps {
			w.dependents[d] = append(w.dependents[d], i)
		}
	}
	return nil
}

// start schedules the root stages at now. Nothing advances until the
// runner's clock runs.
func (w *walk[T]) start(now T) {
	w.begin, w.end = now, now
	for i := range w.job.Stages {
		if w.remDeps[i] == 0 {
			w.startStage(i, now)
		}
	}
}

func (w *walk[T]) startStage(i int, now T) {
	st := w.job.Stages[i]
	at := now + w.run.delay(st.ComputeSec)
	w.remFlows[i] = len(st.Flows)
	w.run.at(at, func() {
		if len(st.Flows) == 0 {
			w.complete(i, at)
			return
		}
		for fi, fl := range st.Flows {
			w.run.open(i, fi, fl, at)
		}
	})
}

// flowDone records that one of stage i's transfers ended at now.
func (w *walk[T]) flowDone(i int, now T) {
	w.remFlows[i]--
	if w.remFlows[i] == 0 {
		w.complete(i, now)
	}
}

func (w *walk[T]) complete(i int, now T) {
	if w.done[i] {
		return
	}
	w.done[i] = true
	w.end = max(w.end, now)
	for _, d := range w.dependents[i] {
		w.remDeps[d]--
		if w.remDeps[d] == 0 {
			w.startStage(d, now)
		}
	}
}

// duration reports the job's length once the runner's clock has drained.
func (w *walk[T]) duration() (T, error) {
	for i, ok := range w.done {
		if !ok {
			return 0, fmt.Errorf("workload: stage %d (%s) never completed", i, w.job.Stages[i].Name)
		}
	}
	return w.end - w.begin, nil
}
