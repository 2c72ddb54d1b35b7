package main

import "time"

// span is one timed interval at a layer boundary, recorded from this
// package around a call into the program. Parent is the ID of the span
// that was open when this one began (0: none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil-behaving (off) tracer records
// nothing, so untraced runs pay two branches per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if !t.on {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Name: name, StartNs: time.Since(t.t0).Nanoseconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	return s.ID
}

func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// do times fn as a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// spanMetrics maps span names to the per-layer metrics they feed.
var spanMetrics = map[string]string{
	"topo.generate":        "topo.generate_ms",
	"fabric.build":         "fabric.build_ms",
	"controller.bootstrap": "controller.bootstrap_ms",
	"controller.warm":      "controller.warm_ms",
	"workload.job":         "workload.job_ms_p50",
}

// spanMedians reports the median duration of each mapped span kind.
func (t *tracer) spanMedians(set metricSet) {
	by := map[string][]float64{}
	for _, s := range t.spans {
		if m, ok := spanMetrics[s.Name]; ok && s.EndNs > 0 {
			by[m] = append(by[m], float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	for m, v := range by {
		set[m] = median(v)
	}
}
