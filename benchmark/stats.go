package main

import (
	"math"
	"sort"
)

// Summary is how every timing is reported: the median over samples with
// its quartiles and the sample count.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are the values themselves, in the order they were taken.
	Samples []float64 `json:"samples,omitempty"`
}

// quantileSorted interpolates the q-quantile of an ascending slice the
// way Python's statistics.quantiles(method="exclusive") does, which is
// the rule the benchmark contract uses for spreads: position q·(n+1),
// clamped to the ends.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// summarize returns the median, quartiles and count of vals.
func summarize(vals []float64) Summary {
	s := sortedCopy(vals)
	return Summary{
		Median:  quantileSorted(s, 0.5),
		Q1:      quantileSorted(s, 0.25),
		Q3:      quantileSorted(s, 0.75),
		N:       len(s),
		Samples: append([]float64(nil), vals...),
	}
}

func median(vals []float64) float64 { return quantileSorted(sortedCopy(vals), 0.5) }

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over 300 samples rests on three of them.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile not above want
// that still has at least minBeyond samples beyond it, and returns it
// with its value. With too few samples for any candidate it falls back
// to the median.
func tailPercentile(sorted []float64, want float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if p > want {
			continue
		}
		if beyond := float64(n) * (100 - p) / 100; beyond >= minBeyond || p == 50 {
			return p, percentileSorted(sorted, p)
		}
	}
	return 50, percentileSorted(sorted, 50)
}

// percentileSorted is the nearest-rank percentile of an ascending slice.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
