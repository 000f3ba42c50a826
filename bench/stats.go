package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match spreads computed from the same samples
// in Python. With fewer than two samples all three are the one value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// geomean is the geometric mean of positive values. Metrics that
// summarise entries of very different cost use it, so each entry
// weighs the same whatever its size.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailPercentiles are the percentiles a tail is reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest of tailPercentiles that has at least ten
// samples beyond it, and its nearest-rank value. ok is false when xs
// has too few samples for even the median to qualify.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// The epsilon keeps rounding in p·n from adding one to an exact rank.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// mannWhitney returns the U statistic of a against b (the number of
// pairs in which the a sample is the larger, ties counting one half)
// and the two-sided p-value of the normal approximation with tie and
// continuity corrections.
func mannWhitney(a, b []float64) (u, p float64) {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	for _, x := range a {
		for _, y := range b {
			switch {
			case x > y:
				u++
			case x == y:
				u += 0.5
			}
		}
	}
	all := sorted(append(append([]float64(nil), a...), b...))
	var ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j] == all[i] {
			j++
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	n := n1 + n2
	variance := n1 * n2 / 12 * ((n + 1) - ties/(n*(n-1)))
	if variance <= 0 {
		return u, 1
	}
	z := (math.Abs(u-n1*n2/2) - 0.5) / math.Sqrt(variance)
	if z < 0 {
		z = 0
	}
	return u, math.Erfc(z / math.Sqrt2)
}
