package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartile rule must be the one the benchmark contract applies to
// ten runs: Python's statistics.quantiles(values, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25}, // order does not matter
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		s := summarize(tc.vals)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.med) || !near(s.Q3, tc.q3) || s.N != len(tc.vals) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.vals, s, tc.q1, tc.med, tc.q3)
		}
	}
	one := summarize([]float64{7})
	if one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 {
		t.Errorf("summarize of one value = %+v", one)
	}
	if sp := (side{value: 10, q1: 9, q3: 11}).spread(); !near(sp, 0.2) {
		t.Errorf("spread = %v, want 0.2", sp)
	}
}

// A tail percentile is reported only when at least ten samples lie
// beyond it; otherwise the highest candidate that qualifies is.
func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{5000, 99, 4950}, // 50 beyond
		{1000, 99, 990},  // exactly 10 beyond
		{999, 98, 980},   // 9.99 beyond p99: falls to p98
		{600, 98, 588},   // 12 beyond p98
		{200, 95, 190},   // p98 has 4 beyond, p95 has 10
		{112, 90, 101},   // a simulator workload: 16 points × 7 repetitions
		{40, 75, 30},     // p90 has 4 beyond, p75 has 10
		{12, 50, 6},      // nothing qualifies: the median
	} {
		pct, val := tailPercentile(ramp(tc.n), 99)
		if pct != tc.wantPct || val != tc.wantVal {
			t.Errorf("n=%d: p%v = %v, want p%v = %v", tc.n, pct, val, tc.wantPct, tc.wantVal)
		}
	}
	// Never above the percentile asked for.
	if pct, _ := tailPercentile(ramp(100000), 99); pct != 99 {
		t.Errorf("asked for p99 of many samples, got p%v", pct)
	}
}

func TestPercentileSortedNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40}
	for p, want := range map[float64]float64{1: 10, 25: 10, 26: 20, 50: 20, 75: 30, 99: 40, 100: 40} {
		if got := percentileSorted(v, p); got != want {
			t.Errorf("p%v of %v = %v, want %v", p, v, got, want)
		}
	}
}
