package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Empirical datacenter flow-size distributions, after the traces used
// throughout the DCN literature (DCTCP's web-search workload and the
// data-mining workload of VL2/pFabric). Each is a piecewise-linear CDF in
// log-size space; sampling inverts it. They drive the flow-completion-time
// experiments that extend the paper's Fig 13 with realistic traffic.

// SizeDist is an invertible empirical CDF over flow sizes in bytes.
type SizeDist struct {
	Name  string
	sizes []float64 // ascending
	cdf   []float64 // matching cumulative probabilities, ending at 1
}

// NewSizeDist builds a distribution from (size, cumulative-probability)
// breakpoints. Probabilities must be ascending and end at 1.
func NewSizeDist(name string, sizes, cdf []float64) *SizeDist {
	return &SizeDist{Name: name, sizes: sizes, cdf: cdf}
}

// WebSearchDist is the DCTCP web-search flow-size mix: mostly small RPCs
// with a heavy tail of multi-MB responses.
func WebSearchDist() *SizeDist {
	return NewSizeDist("web-search",
		[]float64{6e3, 13e3, 19e3, 33e3, 133e3, 667e3, 1.3e6, 6.7e6, 20e6, 30e6},
		[]float64{0.15, 0.30, 0.45, 0.60, 0.70, 0.80, 0.90, 0.97, 0.997, 1.0})
}

// Sample draws one flow size.
func (d *SizeDist) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cdf, u)
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	lo, hi := 0.0, d.cdf[i]
	// The first segment extends down to a single-small-packet floor.
	sLo := d.sizes[0] / 4
	if sLo < 50 {
		sLo = 50
	}
	if i > 0 {
		lo = d.cdf[i-1]
		sLo = d.sizes[i-1]
	}
	sHi := d.sizes[i]
	if hi == lo {
		return sHi
	}
	// Log-linear interpolation inside the segment.
	frac := (u - lo) / (hi - lo)
	return math.Exp(math.Log(sLo)*(1-frac) + math.Log(sHi)*frac)
}

// Mean estimates the distribution mean by numeric sampling (deterministic
// for a given seed).
func (d *SizeDist) Mean(samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += d.Sample(rng)
	}
	return sum / float64(samples)
}

// PoissonArrivals generates flow arrival times with the given mean rate
// (flows/sec) over a horizon, exponentially spaced.
func PoissonArrivals(rate, horizon float64, rng *rand.Rand) []float64 {
	var times []float64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= horizon {
			return times
		}
		times = append(times, t)
	}
}

// RandomFlowTrace draws a trace of timed flows between random distinct
// hosts: the standard FCT-experiment workload (Poisson arrivals, empirical
// sizes, uniform random pairs).
type TimedFlow struct {
	Start float64
	Src   int
	Dst   int
	Bytes float64
}

// RandomFlowTrace builds a trace whose offered load is `load` (fraction of
// hosts' total access bandwidth hostBps) over horizon seconds.
func RandomFlowTrace(hosts int, hostBps, load, horizon float64, dist *SizeDist, seed int64) []TimedFlow {
	rng := rand.New(rand.NewSource(seed))
	meanSize := dist.Mean(4096, seed+1)
	// rate * meanSize * 8 = load * hosts * hostBps
	rate := load * float64(hosts) * hostBps / (meanSize * 8)
	arrivals := PoissonArrivals(rate, horizon, rng)
	trace := make([]TimedFlow, 0, len(arrivals))
	for _, at := range arrivals {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts)
		for dst == src {
			dst = rng.Intn(hosts)
		}
		trace = append(trace, TimedFlow{Start: at, Src: src, Dst: dst, Bytes: dist.Sample(rng)})
	}
	return trace
}
