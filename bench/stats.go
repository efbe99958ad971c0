package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (mean of the two middles for an
// even count), or 0 for none. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of an ascending slice; the
// percentile is given in tenths of a percent (500 is the median, 999 is
// p99.9) so that ranks are exact integers.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (permille*len(sorted) + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPermilles are the candidates for "the highest percentile the
// sample supports", ascending: p90, p95, p99, p99.9.
var tailPermilles = []int{900, 950, 990, 999}

// tailPermille picks the highest candidate percentile that still has
// at least ten samples beyond it; 0 means the sample supports none and
// only the median should be reported.
func tailPermille(n int) int {
	best := 0
	for _, p := range tailPermilles {
		if n*(1000-p)/1000 >= 10 {
			best = p
		}
	}
	return best
}

// latencySummary is the reporting rule for a timing: the median, the
// highest supported tail percentile, and the sample count.
type latencySummary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
}

func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := latencySummary{N: len(s), P50: percentile(s, 500)}
	if p := tailPermille(len(s)); p > 0 {
		sum.TailP, sum.Tail = float64(p)/10, percentile(s, p)
	}
	return sum
}

// quartiles reproduces Python's statistics.quantiles(vals, n=4) with
// its default "exclusive" method, so the self-check's spread is the
// same number the acceptance driver computes. It needs two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the run-to-run repeatability figure every end-to-end bound
// is held to: the interquartile distance as a share of the median, as
// the acceptance driver computes it. Below four values quartiles are
// extrapolated beyond the data (a pair 4 % apart would read 6 %), so
// for two or three sets it is their whole range over the median.
func spread(vals []float64) float64 {
	med := median(vals)
	if med == 0 || len(vals) < 2 {
		return 0
	}
	if len(vals) < 4 {
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		return (hi - lo) / math.Abs(med)
	}
	q1, _, q3 := quartiles(vals)
	return math.Abs(q3-q1) / math.Abs(med)
}
