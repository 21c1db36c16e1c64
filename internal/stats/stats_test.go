package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %f", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("single sample stddev != 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(got, 2.138, 0.01) {
		t.Errorf("StdDev = %f, want ~2.138", got)
	}
}

func TestRelStdDev(t *testing.T) {
	if RelStdDev([]float64{0, 0}) != 0 {
		t.Error("zero-mean rel stddev != 0")
	}
	xs := []float64{90, 100, 110}
	if got := RelStdDev(xs); !almost(got, 0.1, 0.001) {
		t.Errorf("RelStdDev = %f, want ~0.1", got)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 1.96)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("interval [%f,%f] excludes the point estimate", lo, hi)
	}
	if !almost(lo, 0.404, 0.005) || !almost(hi, 0.596, 0.005) {
		t.Errorf("interval [%f,%f], want ~[0.404,0.596]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Error("empty sample should be vacuous")
	}
	lo, hi = WilsonInterval(0, 50, 1.96)
	if lo != 0 || hi <= 0 {
		t.Errorf("zero successes: [%f,%f]", lo, hi)
	}
}

func TestQuickWilsonBounds(t *testing.T) {
	f := func(k8, n8 uint8) bool {
		n := int(n8%200) + 1
		k := int(k8) % (n + 1)
		lo, hi := WilsonInterval(k, n, 1.96)
		p := float64(k) / float64(n)
		// At p̂ = 0 or 1 the exact bound equals p̂; allow float rounding.
		const eps = 1e-9
		return lo >= 0 && hi <= 1 && lo-eps <= p && p <= hi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquareStat(t *testing.T) {
	stat, err := ChiSquareStat([]float64{10, 20, 30}, []float64{10, 20, 30})
	if err != nil || stat != 0 {
		t.Errorf("identical distributions: stat=%f err=%v", stat, err)
	}
	stat, err = ChiSquareStat([]float64{16, 18, 16}, []float64{16, 16, 18})
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0/16 + 4.0/18
	if !almost(stat, want, 1e-9) {
		t.Errorf("stat = %f, want %f", stat, want)
	}
	if _, err = ChiSquareStat([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("no error for mismatched lengths")
	}
	stat, _ = ChiSquareStat([]float64{1, 5}, []float64{0, 6})
	if !math.IsInf(stat, 1) {
		t.Error("observed in zero-expected category must be +Inf")
	}
}

func TestChiSquarePValueKnownValues(t *testing.T) {
	// X²=3.841, dof=1 → p≈0.05; X²=5.991, dof=2 → p≈0.05.
	tests := []struct {
		stat float64
		dof  int
		want float64
	}{
		{3.841, 1, 0.05},
		{5.991, 2, 0.05},
		{7.815, 3, 0.05},
		{0.0, 2, 1.0},
		{2.0, 2, math.Exp(-1)}, // dof=2: p = exp(-x/2)
	}
	for _, tc := range tests {
		got := ChiSquarePValue(tc.stat, tc.dof)
		if !almost(got, tc.want, 0.002) {
			t.Errorf("p(%f,%d) = %f, want %f", tc.stat, tc.dof, got, tc.want)
		}
	}
}

// An infinite statistic (a category expected never but observed) rejects
// outright: p = 0, not the NaN of 1 - P(a, +Inf).
func TestChiSquarePValueInfinite(t *testing.T) {
	if p := ChiSquarePValue(math.Inf(1), 2); p != 0 {
		t.Errorf("p(+Inf, 2) = %v, want 0", p)
	}
}

func TestQuickPValueMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		dof := 1 + rng.IntN(10)
		a := rng.Float64() * 20
		b := a + rng.Float64()*20
		return ChiSquarePValue(a, dof) >= ChiSquarePValue(b, dof)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RelStdDev of a binomial sample shrinks with sample size, the
// statistical backbone of Figure 2.
func TestRelStdDevShrinksWithSampleSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	rel := func(n int) float64 {
		const p = 0.05
		var xs []float64
		for s := 0; s < 30; s++ {
			k := 0
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					k++
				}
			}
			xs = append(xs, float64(k))
		}
		return RelStdDev(xs)
	}
	small, large := rel(100), rel(10000)
	if large >= small {
		t.Errorf("relative stddev did not shrink: n=100 %.3f, n=10000 %.3f", small, large)
	}
}
