// Package metrics provides small statistics helpers used by the DumbNet
// experiment harness: empirical CDFs, percentiles, running aggregates and
// fixed-width table rendering for paper-style output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is a single scalar observation.
type Sample = float64

// Dist is a collection of observations supporting percentile and CDF queries.
// The zero value is an empty, ready-to-use distribution.
type Dist struct {
	values []float64
	sorted bool
}

// NewDist returns a distribution pre-loaded with values.
func NewDist(values ...float64) *Dist {
	d := &Dist{}
	d.Add(values...)
	return d
}

// Add appends observations. The values are copied: the distribution never
// adopts the caller's backing array, because Min/Max/Percentile/CDF sort
// d.values in place and must not reorder the caller's slice (the
// NewDist(values...) path forwards the caller's slice here verbatim).
func (d *Dist) Add(values ...float64) {
	if d.values == nil && len(values) > 0 {
		d.values = make([]float64, 0, len(values))
	}
	d.values = append(d.values, values...)
	d.sorted = false
}

// AddDuration appends a time.Duration observation in seconds.
func (d *Dist) AddDuration(v time.Duration) {
	d.Add(v.Seconds())
}

// Len reports the number of observations.
func (d *Dist) Len() int { return len(d.values) }

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.values)
		d.sorted = true
	}
}

// Min returns the smallest observation, or 0 for an empty distribution.
func (d *Dist) Min() float64 {
	if len(d.values) == 0 {
		return 0
	}
	d.sort()
	return d.values[0]
}

// Max returns the largest observation, or 0 for an empty distribution.
func (d *Dist) Max() float64 {
	if len(d.values) == 0 {
		return 0
	}
	d.sort()
	return d.values[len(d.values)-1]
}

// Mean returns the arithmetic mean, or 0 for an empty distribution.
func (d *Dist) Mean() float64 {
	if len(d.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d.values {
		sum += v
	}
	return sum / float64(len(d.values))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Returns 0 for an empty distribution.
func (d *Dist) Percentile(p float64) float64 {
	n := len(d.values)
	if n == 0 {
		return 0
	}
	d.sort()
	if p <= 0 {
		return d.values[0]
	}
	if p >= 100 {
		return d.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.values[lo]
	}
	frac := rank - float64(lo)
	return d.values[lo]*(1-frac) + d.values[hi]*frac
}

// Median is Percentile(50).
func (d *Dist) Median() float64 { return d.Percentile(50) }

// FracBelow reports the fraction of observations <= x.
func (d *Dist) FracBelow(x float64) float64 {
	n := len(d.values)
	if n == 0 {
		return 0
	}
	d.sort()
	idx := sort.SearchFloat64s(d.values, x)
	// include equal values
	for idx < n && d.values[idx] <= x {
		idx++
	}
	return float64(idx) / float64(n)
}

// Table renders rows of labelled values as an aligned text table, mirroring
// the row/column layout of the paper's tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e15:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// TimeSeries collects (t, value) points, e.g. a throughput timeline.
type TimeSeries struct {
	Times  []float64
	Values []float64
}

// Append adds a point; times should be non-decreasing.
func (ts *TimeSeries) Append(t, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len reports the number of points.
func (ts *TimeSeries) Len() int { return len(ts.Times) }

// At returns the value of the most recent point at or before t, or 0 if the
// series has no point at or before t.
func (ts *TimeSeries) At(t float64) float64 {
	idx := sort.SearchFloat64s(ts.Times, t)
	// SearchFloat64s returns first index with Times[i] >= t.
	if idx < len(ts.Times) && ts.Times[idx] == t {
		return ts.Values[idx]
	}
	if idx == 0 {
		return 0
	}
	return ts.Values[idx-1]
}

// FirstTimeAtLeastAfter returns the earliest time >= after whose value is
// >= v, or -1 if the series never reaches v after that time.
func (ts *TimeSeries) FirstTimeAtLeastAfter(after, v float64) float64 {
	for i, val := range ts.Values {
		if ts.Times[i] >= after && val >= v {
			return ts.Times[i]
		}
	}
	return -1
}
