package workload

import (
	"fmt"
	"math"

	"dumbnet/internal/host"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// This file runs job DAGs on a deployed DumbNet fabric through the hybrid
// fluid layer, instead of on a bare flowsim network with caller-supplied
// routes (RunJob). Routing is the real thing: every transfer reserves its
// source route through the host's path table and, on a miss, a packet-
// level controller round trip — so a job's completion time includes the
// control-plane behavior the paper is about, while the bulk bytes
// themselves advance fluidly. This is the engine that executes HiBench
// DAGs on k=32 fat-trees (8192 hosts) in one core.

// Cluster places job workers on fabric hosts: worker i runs on the host
// behind Agents[i] / MACs[i]. Build one with core APIs (Network.Agent,
// Network.Hosts) or directly from agents in tests.
type Cluster struct {
	Layer  *hybrid.Layer
	Agents []*host.Agent
	MACs   []packet.MAC
}

// Workers reports the cluster size.
func (c *Cluster) Workers() int { return len(c.Agents) }

// RunJobOnFabric executes a job DAG on the cluster's fabric via the
// hybrid fluid layer and returns the job duration in virtual time. Each
// stage waits for its dependencies, runs ComputeSec of computation, then
// opens its transfers as fluid flows; the stage completes when the last
// flow's completion event fires. The engine is drained to run the job.
func RunJobOnFabric(job Job, c *Cluster) (sim.Time, error) {
	if len(c.MACs) != len(c.Agents) {
		return 0, fmt.Errorf("workload: cluster has %d agents but %d MACs", len(c.Agents), len(c.MACs))
	}
	for si, st := range job.Stages {
		for _, f := range st.Flows {
			if f.Src < 0 || f.Src >= c.Workers() || f.Dst < 0 || f.Dst >= c.Workers() {
				return 0, fmt.Errorf("workload: stage %d (%s) places worker %d/%d outside the %d-host cluster",
					si, st.Name, f.Src, f.Dst, c.Workers())
			}
		}
	}
	r := &fabricRun{c: c, onDone: make([]func(*hybrid.Flow), len(job.Stages))}
	if err := r.init(job, r); err != nil {
		return 0, err
	}
	eng := c.Layer.Engine()
	r.start(eng.Now())
	eng.Run()
	d, err := r.duration()
	if err != nil {
		return 0, err
	}
	if r.failed > 0 {
		return 0, fmt.Errorf("workload: %d transfers failed route reservation", r.failed)
	}
	return d, nil
}

// RunJobsOnFabric runs jobs sequentially (each starts when the previous
// finishes) and returns per-job durations.
func RunJobsOnFabric(jobs []Job, c *Cluster) ([]sim.Time, error) {
	out := make([]sim.Time, 0, len(jobs))
	for _, j := range jobs {
		d, err := RunJobOnFabric(j, c)
		if err != nil {
			return out, fmt.Errorf("%s: %w", j.Name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// fabricRun walks a job on the cluster's engine, in nanoseconds.
type fabricRun struct {
	walk[sim.Time]
	c      *Cluster
	onDone []func(*hybrid.Flow) // per stage: its transfers' completion callback
	failed int                  // transfers whose route reservation failed
}

func (r *fabricRun) at(t sim.Time, fn func())   { r.c.Layer.Engine().At(t, fn) }
func (r *fabricRun) delay(sec float64) sim.Time { return sim.Time(math.Ceil(sec * 1e9)) }

func (r *fabricRun) open(stage, fi int, fl Flow, _ sim.Time) {
	// One FlowKey per transfer: repeated src->dst pairs hash to distinct
	// paths, exactly like distinct packet flows would.
	key := host.FlowKey{
		Dst:     r.c.MACs[fl.Dst],
		SrcPort: uint16(fi),
		DstPort: uint16(stage),
		Proto:   0xFE,
	}
	if r.onDone[stage] == nil {
		r.onDone[stage] = func(f *hybrid.Flow) {
			if f.Failed {
				r.failed++
			}
			r.flowDone(stage, f.End)
		}
	}
	r.c.Layer.Open(r.c.Agents[fl.Src], r.c.MACs[fl.Dst], int64(math.Ceil(fl.Bytes)), key, r.onDone[stage])
}
