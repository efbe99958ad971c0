// Package stats implements the statistical machinery the paper relies
// on: medians and quantiles of skewed latency distributions, empirical
// CDFs for the timing plots, and the Mann–Whitney U test ("a
// nonparametric test that is robust to skewed distributions") used to
// compare consent-decision times in Section 4.3.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a computation needs at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Median returns the sample median. It copies the input.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between closest ranks (type-7, the R/NumPy default).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Summary bundles the descriptive statistics reported for timing
// distributions.
type Summary struct {
	N      int
	Median float64
	P25    float64
	P75    float64
	Mean   float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	med, _ := Median(xs)
	p25, _ := Quantile(xs, 0.25)
	p75, _ := Quantile(xs, 0.75)
	mean, _ := Mean(xs)
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return Summary{N: len(xs), Median: med, P25: p25, P75: p75, Mean: mean, Min: min, Max: max}, nil
}

// MannWhitneyResult reports the U statistic, the normal-approximation
// z-score (with tie correction and continuity correction), and the
// two-sided p-value, matching how the paper reports e.g.
// U(N_accept=1344, N_reject=279) = 166582, z = -2.93, p < 0.01.
type MannWhitneyResult struct {
	U  float64 // U statistic of the first sample
	U1 float64 // alias of U (first sample)
	U2 float64 // U statistic of the second sample
	Z  float64 // normal approximation z-score
	P  float64 // two-sided p-value
	N1 int
	N2 int
}

// MannWhitney performs the two-sided Mann–Whitney U test on two
// independent samples using the normal approximation with tie
// correction. It returns an error for empty samples; the approximation
// is standard for the sample sizes in the paper (hundreds+).
func MannWhitney(a, b []float64) (MannWhitneyResult, error) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{}, ErrEmpty
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign midranks and accumulate the tie-correction term Σ(t³-t).
	ranks := make([]float64, len(all))
	tieTerm := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}

	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	u2 := fn1*fn2 - u1

	mu := fn1 * fn2 / 2
	n := fn1 + fn2
	sigma2 := fn1 * fn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	res := MannWhitneyResult{U: u1, U1: u1, U2: u2, N1: n1, N2: n2}
	if sigma2 <= 0 {
		// All observations tied: no evidence against the null.
		res.Z, res.P = 0, 1
		return res, nil
	}
	sigma := math.Sqrt(sigma2)
	// Continuity correction toward the mean.
	diff := u1 - mu
	switch {
	case diff > 0:
		diff -= 0.5
	case diff < 0:
		diff += 0.5
	}
	res.Z = diff / sigma
	res.P = 2 * normSurvival(math.Abs(res.Z))
	if res.P > 1 {
		res.P = 1
	}
	return res, nil
}

// normSurvival returns P(Z > z) for a standard normal variable.
func normSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
