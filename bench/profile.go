package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Attribution of a runtime/pprof CPU profile to the repository's packages.
// The standard library has no public reader for the pprof format, so this
// file decodes the few protobuf fields it needs: samples, their location
// stacks, and the function name of every frame.

// pbField is one decoded protobuf field: a varint value or a byte payload.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// pbNext decodes the field at the front of b and returns the rest.
func pbNext(b []byte) (pbField, []byte, error) {
	key, n := pbVarint(b)
	if n == 0 {
		return pbField{}, nil, fmt.Errorf("bad field key")
	}
	b = b[n:]
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		v, n := pbVarint(b)
		if n == 0 {
			return f, nil, fmt.Errorf("bad varint")
		}
		f.val, b = v, b[n:]
	case 1:
		if len(b) < 8 {
			return f, nil, fmt.Errorf("short fixed64")
		}
		b = b[8:]
	case 2:
		l, n := pbVarint(b)
		if n == 0 || uint64(len(b)-n) < l {
			return f, nil, fmt.Errorf("bad length")
		}
		f.data, b = b[n:n+int(l)], b[n+int(l):]
	case 5:
		if len(b) < 4 {
			return f, nil, fmt.Errorf("short fixed32")
		}
		b = b[4:]
	default:
		return f, nil, fmt.Errorf("unsupported wire type %d", f.wire)
	}
	return f, b, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated appends a repeated integer field, packed or not.
func pbRepeated(dst []uint64, f pbField) []uint64 {
	if f.wire == 0 {
		return append(dst, f.val)
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

type profSample struct {
	locs  []uint64
	value int64
}

// readProfile returns each sample's stack as function names, leaf first,
// with the sample's last value (CPU nanoseconds for a CPU profile).
func readProfile(path string) (stacks [][]string, values []int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	var (
		samples []profSample
		locFns  = map[uint64][]uint64{} // location -> function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function -> string index
		strs    []string
	)
	for b := data; len(b) > 0; {
		var f pbField
		if f, b, err = pbNext(b); err != nil {
			return nil, nil, err
		}
		switch f.num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			for sb := f.data; len(sb) > 0; {
				var sf pbField
				if sf, sb, err = pbNext(sb); err != nil {
					return nil, nil, err
				}
				switch sf.num {
				case 1:
					s.locs = pbRepeated(s.locs, sf)
				case 2:
					vals = pbRepeated(vals, sf)
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for lb := f.data; len(lb) > 0; {
				var lf pbField
				if lf, lb, err = pbNext(lb); err != nil {
					return nil, nil, err
				}
				switch lf.num {
				case 1:
					id = lf.val
				case 4: // Line
					for nb := lf.data; len(nb) > 0; {
						var nf pbField
						if nf, nb, err = pbNext(nb); err != nil {
							return nil, nil, err
						}
						if nf.num == 1 {
							fns = append(fns, nf.val)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			for fb := f.data; len(fb) > 0; {
				var ff pbField
				if ff, fb, err = pbNext(fb); err != nil {
					return nil, nil, err
				}
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		stacks = append(stacks, stack)
		values = append(values, s.value)
	}
	return stacks, values, nil
}

const internalPrefix = "dumbnet/internal/"

// Runtime buckets: a sample with one of these frames anywhere on its stack
// is the collector's, the allocator's or the scheduler's work, whichever
// package asked for it.
var (
	gcFrames     = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone"}
	mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice"}
	schedFrames  = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.goexit0", "runtime.gopreempt_m", "runtime.goschedImpl", "runtime.mstart", "runtime.sysmon", "runtime.notesleep", "runtime.futex"}
)

func stackHas(stack []string, frames []string) bool {
	for _, fn := range stack {
		for _, want := range frames {
			if fn == want || strings.HasPrefix(fn, want+".") {
				return true
			}
		}
	}
	return false
}

// bucketOf names the layer a sample is charged to: a runtime bucket, else
// the repository package of the innermost frame that belongs to one (so a
// map access or a sort called from internal/sim counts as internal/sim),
// else "bench" for this harness, else "other".
func bucketOf(stack []string) string {
	switch {
	case stackHas(stack, gcFrames):
		return "runtime.gc"
	case stackHas(stack, mallocFrames):
		return "runtime.malloc"
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	if stackHas(stack, schedFrames) {
		return "runtime.sched"
	}
	return "other"
}

// profileShares returns each bucket's share of the profile's CPU time.
func profileShares(path string) (map[string]float64, error) {
	stacks, values, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	total := 0.0
	by := map[string]float64{}
	for i, st := range stacks {
		by[bucketOf(st)] += float64(values[i])
		total += float64(values[i])
	}
	if total == 0 {
		return by, nil // a run too short for the 100 Hz sampler
	}
	for k := range by {
		by[k] /= total
	}
	return by, nil
}

// layers are the packages whose cpu_share is reported by name.
var layers = []string{
	"packet", "dswitch", "sim", "fabric", "host", "controller", "topo", "flowsim", "hybrid",
	"workload", "trace", "telemetry", "federation", "vnet", "mcast", "consensus", "chaos", "core",
}

// attribute writes the cpu_share metrics and the kernel-versus-profile
// ratios: (operations × isolated ns per operation) ÷ (the layer's share of
// the traced run's CPU time). Near 1 the microbenchmark explains what the
// layer cost end to end; far from 1 it does not.
func attribute(set metricSet, shares map[string]float64, cpuSeconds float64) {
	explained := 0.0
	for _, l := range layers {
		set[l+".cpu_share"] = shares[l]
		explained += shares[l]
	}
	for _, b := range []string{"gc", "malloc", "sched"} {
		set["runtime."+b+"_cpu_share"] = shares["runtime."+b]
		explained += shares["runtime."+b]
	}
	set["bench.cpu_share"] = shares["bench"]
	set["attrib.explained_share"] = explained
	ratio := func(layer string, ops, ns float64, also ...string) {
		share := shares[layer]
		for _, l := range also {
			share += shares[l]
		}
		if cpu := share * cpuSeconds * 1e9; cpu > 0 && ops > 0 && ns > 0 {
			set["attrib.kernel_vs_profile."+layer] = ops * ns / cpu
		}
	}
	ratio("sim", set["sim.events"], set["sim.event_ns"])
	ratio("dswitch", set["dswitch.forwarded"], set["dswitch.forward_ns"])
	ratio("host", set["host.sent"], set["host.send_ns"])
	// A cold resolve runs the topo kernels, and their samples are topo's.
	ratio("controller", set["controller.route_misses"], set["controller.resolve_cold_ns"], "topo")
	ratio("hybrid", set["hybrid.flows_completed"], set["hybrid.open_ns"])
}
