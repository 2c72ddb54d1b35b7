package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/dswitch"
	"dumbnet/internal/flowsim"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
	jobs "dumbnet/internal/workload"
)

// The isolated timing loops behind every *_ns per-layer metric. Each loop
// calls one layer's public entry point in the shape the workloads use it —
// 6-tag frames of 64 B and 1,400 B, the workload's own k=16 route service —
// and is sampled kernelSamples times. A loop whose samples scatter by more
// than maxCV is reported as unresolved instead of as a number.

const (
	kernelSamples = 11
	kernelRepeats = 5 // each sample is the fastest of this many batches
	maxCV         = 0.10
)

type kernel struct {
	MedianNs   float64 `json:"median_ns"`
	CV         float64 `json:"cv"`
	Samples    int     `json:"samples"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

type kernelSet struct {
	smoke bool
	out   map[string]kernel
}

// time samples one loop. batch runs ops operations and is timed; reset,
// when not nil, runs untimed after every batch (draining an engine, say).
func (k *kernelSet) time(name string, ops int, batch func(), reset func()) {
	if k.out == nil {
		k.out = map[string]kernel{}
	}
	// run times reps batches and returns nanoseconds per operation. With a
	// reset the clock stops around it; without one the whole loop is timed
	// at once, so nanosecond-scale operations are not charged for the clock.
	run := func(reps int) float64 {
		var d time.Duration
		if reset == nil {
			t0 := time.Now()
			for j := 0; j < reps; j++ {
				batch()
			}
			d = time.Since(t0)
		} else {
			for j := 0; j < reps; j++ {
				t0 := time.Now()
				batch()
				d += time.Since(t0)
				reset()
			}
		}
		return float64(d.Nanoseconds()) / float64(reps*ops)
	}
	// Size the repetition so one timed batch lasts about two milliseconds (a
	// twentieth of that in smoke runs).
	target := 2e6
	samples := kernelSamples
	if k.smoke {
		target, samples = 1e5, 10
	}
	run(1) // first call pays one-off growth of pools and caches
	per := run(4) * float64(ops)
	reps := 1
	if per > 0 && per < target {
		reps = int(target / per)
	}
	vals := make([]float64, samples)
	for i := range vals {
		best := math.Inf(1)
		for r := 0; r < kernelRepeats; r++ {
			best = math.Min(best, run(reps))
		}
		vals[i] = best
	}
	mean, sq := 0.0, 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	cv := 0.0
	if mean > 0 {
		cv = math.Sqrt(sq/float64(len(vals)-1)) / mean
	}
	sort.Float64s(vals)
	k.out[name] = kernel{MedianNs: quantile(vals, 0.5), CV: cv, Samples: len(vals), Unresolved: cv > maxCV}
}

// waveFrames returns the two frames the packet workloads alternate: 64 B
// and 1,400 B payloads under a 6-tag source route (edge, aggregation, core,
// aggregation, edge, host port).
func waveFrames() [2]*packet.Frame {
	var out [2]*packet.Frame
	for i, n := range []int{64, 1400} {
		out[i] = &packet.Frame{
			Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2),
			Tags: packet.Path{9, 12, 3, 5, 2, 1}, InnerType: packet.EtherTypeIPv4,
			Payload: make([]byte, n),
		}
	}
	return out
}

// kernelSink keeps results observable so the loops are not optimised away.
var kernelSink int

func (k *kernelSet) packetKernels() {
	frames := waveFrames()
	var wire [2][]byte
	for i, f := range frames {
		wire[i], _ = f.Encode()
	}
	buf := make([]byte, 1600)
	k.time("packet.encode_ns", 2, func() {
		for _, f := range frames {
			n, _ := f.EncodeTo(buf)
			kernelSink += n
		}
	}, nil)
	var dec packet.Frame
	k.time("packet.decode_ns", 2, func() {
		for _, w := range wire {
			if packet.DecodeFrom(&dec, w) == nil {
				kernelSink += len(dec.Payload)
			}
		}
	}, nil)
	// PopTag rewrites the header in place, so each pop starts from a fresh
	// copy of the header bytes (the payload is never touched).
	const hdr = 32
	k.time("packet.poptag_ns", 2, func() {
		for _, w := range wire {
			copy(buf[:hdr], w[:hdr])
			rest, tag, _ := packet.PopTag(buf[:len(w)])
			kernelSink += len(rest) + int(tag)
		}
	}, nil)
}

type nullNode struct{}

func (nullNode) Receive(int, []byte) {}

// simKernels times the bare event engine (schedule one event, run one, with
// 64 others pending) and one link traversal.
func (k *kernelSet) simKernels() {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(sim.Time(i+1)*3600*sim.Second, fn) // never reached by the loop
	}
	k.time("sim.event_ns", 1, func() {
		e.After(sim.Microsecond, fn)
		e.Step()
	}, nil)

	le := sim.NewEngine(1)
	a, b := nullNode{}, nullNode{}
	l := sim.NewLink(le, a, 1, b, 1, sim.LinkConfig{PropDelay: sim.Microsecond, BandwidthBps: 10e9})
	frames := waveFrames()
	var wire [2][]byte
	for i, f := range frames {
		wire[i], _ = f.Encode()
	}
	k.time("sim.link_send_ns", 2, func() {
		for _, w := range wire {
			l.SendFrom(a, w)
		}
		le.Run()
	}, nil)
}

// switchKernel times one switch hop end to end: host link in, tag pop,
// switch link out, for both frame sizes.
func (k *kernelSet) switchKernel() {
	e := sim.NewEngine(1)
	sw := dswitch.New(e, 1, 16, dswitch.DefaultConfig())
	src, dst := nullNode{}, nullNode{}
	lcfg := sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}
	up := sim.NewLink(e, src, 1, sw, 1, lcfg)
	sw.AttachLink(1, up)
	sw.AttachLink(9, sim.NewLink(e, sw, 9, dst, 1, lcfg))
	frames := waveFrames()
	var wire, buf [2][]byte
	for i, f := range frames {
		wire[i], _ = f.Encode()
		buf[i] = make([]byte, len(wire[i]))
	}
	k.time("dswitch.forward_ns", 2, func() {
		for i := range wire {
			copy(buf[i][:32], wire[i][:32])
			up.SendFrom(src, buf[i])
		}
		e.Run()
	}, nil)
}

func (k *kernelSet) traceKernel() {
	rec := trace.NewRecorder(trace.DefaultConfig())
	wire, _ := waveFrames()[0].Encode()
	at := int64(0)
	k.time("trace.hop_record_ns", 1, func() {
		at++
		rec.PacketHop(at, 100, 1, 2, wire)
	}, nil)
}

// telemetryKernels times the streaming consumer: one hop record ingested,
// and one window flush over a detector table of the given fabric size.
func (k *kernelSet) telemetryKernels(switches, ports int) {
	c := telemetry.NewOfflineConsumer(telemetry.DefaultConfig())
	r := trace.Record{Kind: trace.KindHop, Dur: 100, Src: packet.MACFromUint64(7), Dst: packet.MACFromUint64(9)}
	for sw := 1; sw <= switches; sw++ {
		for p := 1; p <= ports; p++ {
			r.Sw, r.Port = packet.SwitchID(sw), packet.Tag(p)
			c.IngestRecord(&r)
		}
	}
	r.Sw, r.Port = 1, 1
	k.time("telemetry.ingest_ns", 1, func() {
		r.At++
		c.IngestRecord(&r)
	}, nil)
	k.time("telemetry.flush_ns", 1, func() { c.EndWindow() }, nil)
}

// flowsimKernel times the incremental max-min recompute under churn: 512
// long flows on a leaf-spine, each op adds one short flow and runs it out.
func (k *kernelSet) flowsimKernel() {
	ls := jobs.NewLeafSpine(8, 16, 4, 10e9, 40e9)
	s := flowsim.NewSimulator(ls.Net)
	pick := func(i, mul, add int) (int, int) {
		src, dst := i%ls.Hosts(), (i*mul+add)%ls.Hosts()
		if ls.Leaf(src) == ls.Leaf(dst) {
			dst = (dst + ls.HostsPerLeaf) % ls.Hosts()
		}
		return src, dst
	}
	for i := 0; i < 512; i++ {
		src, dst := pick(i, 7, 1)
		s.Add(&flowsim.Flow{ID: i + 1, Path: ls.PathVia(src, dst, i%8), Size: 1e18})
	}
	s.RunUntil(0)
	i := 0
	k.time("flowsim.churn_ns", 1, func() {
		i++
		src, dst := pick(i, 11, 3)
		f := &flowsim.Flow{ID: 1000 + i, Path: ls.PathVia(src, dst, i%8), Size: 1e6, Start: s.Now()}
		s.Add(f)
		for !f.Finished {
			t, ok := s.NextEventTime()
			if !ok {
				return
			}
			s.RunUntil(t)
		}
	}, nil)
}

// routeKernels times the route service on the workload's own controller:
// a warm hit, a first-time compute (a never-seen pair each time), and the
// two topo kernels underneath it.
func (k *kernelSet) routeKernels(n *core.Network, cold bool) {
	hosts := n.Hosts()
	q := controller.RouteQuery{Src: hosts[0], Dst: hosts[len(hosts)-1], Scope: controller.ScopeGlobal}
	if _, err := n.Ctrl.Resolve(q); err != nil {
		return
	}
	k.time("controller.resolve_warm_ns", 1, func() {
		a, _ := n.Ctrl.Resolve(q)
		kernelSink += len(a.Wire)
	}, nil)
	if !cold {
		return
	}
	// Walk pairs no workload seed produces twice: (i, i+stride) with a
	// stride that grows each lap.
	i, stride := 0, len(hosts)/2+1
	nextPair := func() (core.MAC, core.MAC) {
		i++
		if i >= len(hosts) {
			i, stride = 0, stride+1
		}
		return hosts[i], hosts[(i+stride)%len(hosts)]
	}
	// Each batch covers routeBatch pairs, so one far or near pair does not
	// decide a sample.
	const routeBatch = 8
	k.time("controller.resolve_cold_ns", routeBatch, func() {
		for j := 0; j < routeBatch; j++ {
			src, dst := nextPair()
			a, _ := n.Ctrl.Resolve(controller.RouteQuery{Src: src, Dst: dst, Scope: controller.ScopeGlobal})
			kernelSink += len(a.Wire)
		}
	}, nil)
	// The topo kernels cache nothing, so they run the same pairs every batch.
	var fixed [routeBatch][2]core.MAC
	for j := range fixed {
		fixed[j][0], fixed[j][1] = nextPair()
	}
	master := n.Ctrl.Master()
	sc := topo.NewDenseScratch()
	rng := rand.New(rand.NewSource(1))
	k.time("topo.pathgraph_ns", routeBatch, func() {
		for _, p := range fixed {
			pg, err := topo.BuildPathGraphScratch(master, p[0], p[1], topo.PathGraphOptions{}, rng, sc)
			if err == nil {
				kernelSink += pg.Graph.NumSwitches()
			}
		}
	}, nil)
	k.time("topo.ksp_ns", routeBatch, func() {
		for _, p := range fixed {
			sa, _ := master.HostAt(p[0])
			da, _ := master.HostAt(p[1])
			ps, _ := topo.KShortestPaths(master, sa.Switch, da.Switch, 4)
			kernelSink += len(ps)
		}
	}, nil)
}
