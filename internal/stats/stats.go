// Package stats provides the statistical machinery behind SFI's sampling
// methodology: descriptive statistics for the Figure 2 sample-size study,
// Wilson confidence intervals for outcome proportions, and a chi-square
// goodness-of-fit test for the SFI-versus-beam calibration (Table 2).
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator); it is 0
// for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// RelStdDev returns the standard deviation as a fraction of the mean — the
// paper's Figure 2 metric. It returns 0 when the mean is 0.
func RelStdDev(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with successes k out of n at confidence z (1.96 ≈ 95%).
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ChiSquareStat computes the Pearson chi-square statistic for observed
// counts against expected counts. Categories with expected == 0 must also
// have observed == 0 (they are skipped); otherwise the statistic is +Inf.
func ChiSquareStat(observed, expected []float64) (float64, error) {
	if len(observed) != len(expected) {
		return 0, fmt.Errorf("stats: %d observed vs %d expected categories",
			len(observed), len(expected))
	}
	stat := 0.0
	for i := range observed {
		if expected[i] == 0 {
			if observed[i] != 0 {
				return math.Inf(1), nil
			}
			continue
		}
		d := observed[i] - expected[i]
		stat += d * d / expected[i]
	}
	return stat, nil
}

// ChiSquarePValue returns P(X² ≥ stat) for dof degrees of freedom; an
// infinite statistic (a category expected never but observed) has p = 0.
func ChiSquarePValue(stat float64, dof int) float64 {
	switch {
	case stat <= 0 || dof <= 0:
		return 1
	case math.IsInf(stat, 1):
		return 0
	}
	return 1 - gammaIncLowerReg(float64(dof)/2, stat/2)
}

// gammaIncLowerReg is the regularized lower incomplete gamma function
// P(a, x), via series expansion for x < a+1 and continued fraction
// otherwise (Numerical Recipes style).
func gammaIncLowerReg(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		// Series representation.
		ap := a
		sum := 1.0 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		lg, _ := math.Lgamma(a)
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	default:
		// Continued fraction for Q(a,x); P = 1-Q.
		const tiny = 1e-300
		b := x + 1 - a
		c := 1 / tiny
		d := 1 / b
		h := d
		for i := 1; i < 500; i++ {
			an := -float64(i) * (float64(i) - a)
			b += 2
			d = an*d + b
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = b + an/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			del := d * c
			h *= del
			if math.Abs(del-1) < 1e-15 {
				break
			}
		}
		lg, _ := math.Lgamma(a)
		q := math.Exp(-x+a*math.Log(x)-lg) * h
		return 1 - q
	}
}
