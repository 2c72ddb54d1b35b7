package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dumbnet/internal/core"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/topo"
	"dumbnet/internal/workload"
)

// peakRSSBytes reads the process high-water RSS (VmHWM) from
// /proc/self/status; 0 where the OS does not expose it.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// runHybridScale deploys a k-ary fat-tree with k/2 hosts per edge switch
// (8192 hosts at k=32), runs the HiBench suite through the hybrid fluid
// layer on one core, and reports virtual job durations, events/sec and the
// memory high-water marks on w. It returns the completion digest and the
// number of host pairs it warmed.
func runHybridScale(w io.Writer, k, width int, inputGB float64) (digest uint64, warmed int, err error) {
	ft, err := topo.FatTree(k, k/2, 0)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(w, "hybrid-scale: k=%d fat-tree, %d hosts, %d switches, shuffle width %d, %.2f GB/job\n",
		k, len(ft.Hosts()), len(ft.SwitchIDs()), width, inputGB)
	n, err := core.New(ft, core.WithSeed(1), core.WithHybridFlows(hybrid.Config{}))
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := n.Bootstrap(); err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(w, "hybrid-scale: bootstrapped in %v\n", time.Since(start))

	c := &workload.Cluster{Layer: n.Hybrid()}
	for _, m := range n.Hosts() {
		c.Agents = append(c.Agents, n.Agent(m))
		c.MACs = append(c.MACs, m)
	}
	workers := c.Workers()
	jobs := workload.HiBenchSuiteWidth(workers, width, inputGB)

	// Warm the path tables for every pair the shuffles will use, so the
	// measured phase exercises the simulation loop rather than first-touch
	// controller path computation, and stage starts admit their whole flow
	// batch on one engine tick. A width of at least workers is the full
	// shuffle, so the peers stop short of the worker itself.
	start = time.Now()
	for s := 0; s < workers; s++ {
		for i := 1; i <= width && i < workers; i++ {
			if err := c.Agents[s].WarmUp(c.MACs[(s+i)%workers]); err != nil {
				return 0, 0, err
			}
			warmed++
		}
	}
	n.Run()
	fmt.Fprintf(w, "hybrid-scale: warmed %d host pairs in %v\n", warmed, time.Since(start))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	wall := time.Now()
	ev0 := n.Eng.Processed()
	durs, err := workload.RunJobsOnFabric(jobs, c)
	if err != nil {
		return 0, 0, err
	}
	wallSec := time.Since(wall).Seconds()
	events := n.Eng.Processed() - ev0
	runtime.ReadMemStats(&ms)
	st := n.Hybrid().Stats() // the warm-up opens no flows: every completion is the jobs'
	for i, j := range jobs {
		fmt.Fprintf(w, "hybrid-scale: %-12s %8.3fs virtual\n", j.Name, float64(durs[i])/1e9)
	}
	digest = n.Hybrid().Digest()
	fmt.Fprintf(w, "hybrid-scale: %d flows completed, %d engine events in %.1fs wall (%.0f events/sec), digest %016x\n",
		st.Completed, events, wallSec, float64(events)/wallSec, digest)
	settles, reRates := n.Hybrid().FluidDebug()
	fmt.Fprintf(w, "hybrid-scale: %d settle passes, %d flow re-rates\n", settles, reRates)
	fmt.Fprintf(w, "hybrid-scale: %.3f allocations per completed flow\n", float64(ms.Mallocs-mallocs)/float64(max(st.Completed, 1)))
	fmt.Fprintf(w, "hybrid-scale: peak RSS %.1f MiB, heap sys %.1f MiB\n",
		float64(peakRSSBytes())/(1<<20), float64(ms.HeapSys)/(1<<20))
	return digest, warmed, nil
}
