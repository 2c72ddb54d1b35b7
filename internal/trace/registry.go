package trace

import (
	"fmt"
	"time"

	"dumbnet/internal/metrics"
)

// The unified metrics registry: ordered, named counters, gauges and
// sim-time histograms, plus lazily-evaluated counter functions that bind
// existing component stats (switch Stats structs, link LinkStats) into the
// registry without forcing those hot paths through a map lookup. Fabric drop
// accounting is published through it too.
//
// The registry is single-threaded like the simulator; instruments are
// cheap value holders the caller caches a pointer to, so a hot path pays
// one pointer deref + add per event and zero allocations.

// Counter is a monotonically increasing uint64.
type Counter struct{ v uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.v += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a settable instantaneous value.
type Gauge struct{ v float64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is the registry's sim-time histogram: metrics.StreamHist — fixed
// log2 buckets, 0-alloc Observe, mergeable across shards. The alias keeps
// every existing registry instrument (host.pathreq.latency, the recovery
// timelines, ctrl.route.pgsize) on the bounded streaming implementation
// without touching their call sites; metrics.Dist remains for experiments
// that genuinely need exact percentiles over a bounded sample set.
type Histogram = metrics.StreamHist

// instrument is one name's holder, of one kind.
type instrument struct {
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
	histVals bool // hist observations are dimensionless values, not sim-time
	fn       func() uint64
}

// Registry is an ordered collection of named instruments. Registration
// order is preserved so snapshots and tables render deterministically.
type Registry struct {
	order []string
	byKey map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

// get returns the named instrument, creating an empty slot if absent.
func (r *Registry) get(name string) *instrument {
	if in, ok := r.byKey[name]; ok {
		return in
	}
	in := &instrument{}
	r.byKey[name] = in
	r.order = append(r.order, name)
	return in
}

// Counter returns (creating if needed) the named counter. Panics if the
// name is already registered as a different kind — that is a wiring bug.
func (r *Registry) Counter(name string) *Counter {
	in := r.get(name)
	if in.counter == nil {
		if in.gauge != nil || in.hist != nil || in.fn != nil {
			panic(fmt.Sprintf("trace: %q already registered as a different instrument", name))
		}
		in.counter = &Counter{}
	}
	return in.counter
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	in := r.get(name)
	if in.gauge == nil {
		if in.counter != nil || in.hist != nil || in.fn != nil {
			panic(fmt.Sprintf("trace: %q already registered as a different instrument", name))
		}
		in.gauge = &Gauge{}
	}
	return in.gauge
}

// Histogram returns (creating if needed) the named sim-time histogram.
func (r *Registry) Histogram(name string) *Histogram {
	return r.histogram(name, false)
}

// ValueHistogram returns (creating if needed) a histogram whose
// observations are dimensionless values (sizes, counts) rather than
// sim-time durations; snapshots render it as raw numbers.
func (r *Registry) ValueHistogram(name string) *Histogram {
	return r.histogram(name, true)
}

func (r *Registry) histogram(name string, values bool) *Histogram {
	in := r.get(name)
	if in.hist == nil {
		if in.counter != nil || in.gauge != nil || in.fn != nil {
			panic(fmt.Sprintf("trace: %q already registered as a different instrument", name))
		}
		in.hist = &Histogram{}
		in.histVals = values
	} else if in.histVals != values {
		panic(fmt.Sprintf("trace: %q already registered as a histogram of a different unit", name))
	}
	return in.hist
}

// CounterFunc registers (or replaces) a lazily-evaluated counter: fn is
// called at snapshot time. This is how existing per-component stats structs
// join the registry without rerouting their hot paths.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	in := r.get(name)
	if in.counter != nil || in.gauge != nil || in.hist != nil {
		panic(fmt.Sprintf("trace: %q already registered as a different instrument", name))
	}
	in.fn = fn
}

// SnapshotEntry is one instrument's value at snapshot time.
type SnapshotEntry struct {
	Name  string
	Kind  string // "counter" | "gauge" | "histogram"
	Value float64
	Hist  *HistSnapshot // set for histograms
}

// HistSnapshot is a histogram's summary at snapshot time. Values marks a
// dimensionless histogram (rendered as raw numbers, not durations).
type HistSnapshot struct {
	Count    uint64
	Max      int64
	Mean     float64
	P50, P99 int64
	Values   bool
}

// Snapshot is the registry's state at one sim time.
type Snapshot struct {
	At      int64 // virtual time, nanoseconds
	Entries []SnapshotEntry
}

// Snapshot evaluates every instrument (including counter funcs) at sim
// time `at`, in registration order.
func (r *Registry) Snapshot(at int64) Snapshot {
	s := Snapshot{At: at, Entries: make([]SnapshotEntry, 0, len(r.order))}
	for _, name := range r.order {
		in := r.byKey[name]
		switch {
		case in.counter != nil:
			s.Entries = append(s.Entries, SnapshotEntry{Name: name, Kind: "counter", Value: float64(in.counter.Value())})
		case in.fn != nil:
			s.Entries = append(s.Entries, SnapshotEntry{Name: name, Kind: "counter", Value: float64(in.fn())})
		case in.gauge != nil:
			s.Entries = append(s.Entries, SnapshotEntry{Name: name, Kind: "gauge", Value: in.gauge.Value()})
		case in.hist != nil:
			h := in.hist
			s.Entries = append(s.Entries, SnapshotEntry{Name: name, Kind: "histogram", Value: float64(h.Count()), Hist: &HistSnapshot{
				Count: h.Count(), Max: h.Max(), Mean: h.Mean(),
				P50: h.Quantile(0.50), P99: h.Quantile(0.99),
				Values: in.histVals,
			}})
		}
	}
	return s
}

// Get returns the entry for name, or false.
func (s Snapshot) Get(name string) (SnapshotEntry, bool) {
	for _, e := range s.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return SnapshotEntry{}, false
}

// Table renders the snapshot as an aligned text table; zero-valued
// counters are skipped when nonZeroOnly is set. Histograms render their
// count/mean/p50/p99/max summary.
func (s Snapshot) Table(title string, nonZeroOnly bool) *metrics.Table {
	tbl := metrics.NewTable(title, "metric", "value")
	for _, e := range s.Entries {
		if e.Hist != nil {
			if nonZeroOnly && e.Hist.Count == 0 {
				continue
			}
			if e.Hist.Values {
				tbl.AddRow(e.Name, fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
					e.Hist.Count, e.Hist.Mean, e.Hist.P50, e.Hist.P99, e.Hist.Max))
			} else {
				tbl.AddRow(e.Name, fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
					e.Hist.Count, time.Duration(int64(e.Hist.Mean)), time.Duration(e.Hist.P50),
					time.Duration(e.Hist.P99), time.Duration(e.Hist.Max)))
			}
			continue
		}
		if nonZeroOnly && e.Value == 0 {
			continue
		}
		tbl.AddRow(e.Name, metrics.FormatFloat(e.Value))
	}
	return tbl
}
