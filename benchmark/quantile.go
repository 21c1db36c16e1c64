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

// median returns the middle value (the mean of the two middle values for
// an even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// which is how the driver measures run-to-run spread. It needs at least
// two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile range as a share of the median; 0 when
// there are too few samples to have one.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailLadder are the percentiles a timing may be reported at beside its
// median, in tenths of a percent so that the sample arithmetic is integral.
var tailLadder = []int{750, 900, 950, 990, 999}

// tailPermille picks the highest percentile of tailLadder that still has
// at least ten of the n samples beyond it. It returns 0 when even the
// lowest has fewer (n < 40); then only the median is reported.
func tailPermille(n int) int {
	best := 0
	for _, pm := range tailLadder {
		if n-rank(n, pm) >= 10 {
			best = pm
		}
	}
	return best
}

// rank is the nearest-rank position (1-based) of a percentile, given in
// tenths of a percent, among n sorted samples.
func rank(n, permille int) int {
	return max(1, min((n*permille+999)/1000, n))
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, permille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), permille)-1]
}

// timing summarises one timed quantity the way the result files report it:
// the median, the tail percentile tailPermille allows, and the count.
type timing struct {
	Median  float64 `json:"median"`
	TailP   float64 `json:"tail_percentile,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	Samples int     `json:"samples"`
}

func summarize(xs []float64) timing {
	t := timing{Median: median(xs), Samples: len(xs)}
	if pm := tailPermille(len(xs)); pm > 0 {
		t.TailP, t.Tail = float64(pm)/10, percentile(xs, pm)
	}
	return t
}
