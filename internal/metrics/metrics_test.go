package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Len() != 0 || d.Min() != 0 || d.Max() != 0 || d.Mean() != 0 {
		t.Fatalf("empty dist should report zeros")
	}
	if d.Percentile(50) != 0 {
		t.Fatalf("empty percentile should be 0")
	}
}

func TestDistBasicStats(t *testing.T) {
	d := NewDist(4, 1, 3, 2, 5)
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("min/max = %v/%v, want 1/5", d.Min(), d.Max())
	}
	if !almostEqual(d.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %v, want 3", d.Mean())
	}
	if !almostEqual(d.Median(), 3, 1e-12) {
		t.Fatalf("median = %v, want 3", d.Median())
	}
}

func TestDistPercentileInterpolation(t *testing.T) {
	d := NewDist(0, 10)
	if got := d.Percentile(50); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("P50 = %v, want 5", got)
	}
	if got := d.Percentile(0); got != 0 {
		t.Fatalf("P0 = %v, want 0", got)
	}
	if got := d.Percentile(100); got != 10 {
		t.Fatalf("P100 = %v, want 10", got)
	}
	if got := d.Percentile(-5); got != 0 {
		t.Fatalf("P(-5) = %v, want clamp to min", got)
	}
	if got := d.Percentile(200); got != 10 {
		t.Fatalf("P(200) = %v, want clamp to max", got)
	}
}

func TestDistAddDuration(t *testing.T) {
	var d Dist
	d.AddDuration(1500 * time.Millisecond)
	if !almostEqual(d.Max(), 1.5, 1e-12) {
		t.Fatalf("duration sample = %v, want 1.5", d.Max())
	}
}

func TestFracBelow(t *testing.T) {
	d := NewDist(1, 2, 2, 3)
	if got := d.FracBelow(2); !almostEqual(got, 0.75, 1e-12) {
		t.Fatalf("FracBelow(2) = %v, want 0.75", got)
	}
	if got := d.FracBelow(0.5); got != 0 {
		t.Fatalf("FracBelow(0.5) = %v, want 0", got)
	}
	if got := d.FracBelow(10); got != 1 {
		t.Fatalf("FracBelow(10) = %v, want 1", got)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		d := NewDist(vals...)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev || v < d.Min() || v > d.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF FracBelow is consistent with sorted rank.
func TestFracBelowProperty(t *testing.T) {
	f := func(raw []float64, x float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || len(vals) == 0 {
			return true
		}
		d := NewDist(vals...)
		got := d.FracBelow(x)
		count := 0
		for _, v := range vals {
			if v <= x {
				count++
			}
		}
		want := float64(count) / float64(len(vals))
		return almostEqual(got, want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Table X", "name", "value")
	tbl.AddRow("alpha", 1.0)
	tbl.AddRow("beta", 2.5)
	out := tbl.String()
	if !strings.Contains(out, "Table X") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("missing cells: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("want 5 lines, got %d: %q", len(lines), out)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{5, "5"},
		{1234, "1234"},
		{123.45, "123.5"},
		{5.19, "5.19"},
		{0.37, "0.3700"},
		{-2, "-2"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Append(0, 100)
	ts.Append(1, 50)
	ts.Append(2, 500)
	if ts.Len() != 3 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if got := ts.At(0.5); got != 100 {
		t.Fatalf("At(0.5) = %v, want 100", got)
	}
	if got := ts.At(1); got != 50 {
		t.Fatalf("At(1) = %v, want 50", got)
	}
	if got := ts.At(-1); got != 0 {
		t.Fatalf("At(-1) = %v, want 0", got)
	}
	if got := ts.FirstTimeAtLeastAfter(1.5, 100); got != 2 {
		t.Fatalf("FirstTimeAtLeastAfter = %v, want 2", got)
	}
	if got := ts.FirstTimeAtLeastAfter(0, 1000); got != -1 {
		t.Fatalf("FirstTimeAtLeastAfter(0, 1000) = %v, want -1", got)
	}
}

func TestDistDoesNotMutateCallerSlice(t *testing.T) {
	orig := []float64{5, 1, 4, 2, 3}
	backup := append([]float64(nil), orig...)
	d := NewDist(orig...)
	// Min/Max/Percentile sort the distribution's values in place; the
	// caller's slice must stay untouched.
	if d.Min() != 1 || d.Max() != 5 || d.Percentile(50) != 3 {
		t.Fatalf("stats wrong: min=%v max=%v p50=%v", d.Min(), d.Max(), d.Percentile(50))
	}
	for i := range orig {
		if orig[i] != backup[i] {
			t.Fatalf("NewDist aliased the caller's slice: %v (want %v)", orig, backup)
		}
	}
	// Same guarantee for the Add path on a fresh distribution.
	var d2 Dist
	d2.Add(orig...)
	_ = d2.Percentile(90)
	for i := range orig {
		if orig[i] != backup[i] {
			t.Fatalf("Add aliased the caller's slice: %v (want %v)", orig, backup)
		}
	}
}
