package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilsonIntervalEdges(t *testing.T) {
	// n = 0: vacuous.
	if lo, hi := WilsonInterval(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("n=0: [%f,%f], want [0,1]", lo, hi)
	}
	// k = 0: lower bound pinned to 0, upper bound strictly inside (0,1).
	lo, hi := WilsonInterval(0, 50, 1.96)
	if lo != 0 || hi <= 0 || hi >= 1 {
		t.Errorf("k=0: [%f,%f]", lo, hi)
	}
	// k = n: mirror image — closed forms are lo = 1/(1+z²/n), hi = 1.
	z := 1.96
	lo, hi = WilsonInterval(50, 50, z)
	wantLo := 1 / (1 + z*z/50)
	if !almost(lo, wantLo, 1e-9) || !almost(hi, 1, 1e-9) {
		t.Errorf("k=n: [%f,%f], want [%f,1]", lo, hi, wantLo)
	}
	// k=0 and k=n are mirror images.
	lo0, hi0 := WilsonInterval(0, 73, z)
	lo1, hi1 := WilsonInterval(73, 73, z)
	if !almost(hi0, 1-lo1, 1e-9) || !almost(lo0, 1-hi1, 1e-9) {
		t.Errorf("k=0 [%f,%f] not the mirror of k=n [%f,%f]", lo0, hi0, lo1, hi1)
	}
}

func TestZForConfidence(t *testing.T) {
	for _, tc := range []struct{ c, want float64 }{
		{0.90, 1.6449}, {0.95, 1.9600}, {0.99, 2.5758},
	} {
		if got := ZForConfidence(tc.c); !almost(got, tc.want, 5e-4) {
			t.Errorf("z(%.2f) = %f, want %f", tc.c, got, tc.want)
		}
	}
}

func TestSequentialZInflatesFixedZ(t *testing.T) {
	// The sequential critical value must always dominate the fixed-n one
	// (it pays for unlimited peeking) and grow with n (later looks get a
	// smaller alpha slice).
	fixed := ZForConfidence(0.95)
	prev := 0.0
	for _, n := range []int{1, 2, 10, 100, 10_000, 1_000_000} {
		z := SequentialZ(0.95, n)
		if z <= fixed {
			t.Errorf("SequentialZ(0.95,%d) = %f, not above fixed %f", n, z, fixed)
		}
		if z <= prev {
			t.Errorf("SequentialZ not increasing at n=%d: %f <= %f", n, z, prev)
		}
		prev = z
	}
	// The alpha-spending inflation stays modest — the price of any-time
	// validity is a bounded constant factor, not a growing one.
	if z := SequentialZ(0.95, 1_000_000); z > 2.5*fixed {
		t.Errorf("SequentialZ(0.95,1e6) = %f, inflation above 2.5x fixed z", z)
	}
}

// Property: at a fixed observed proportion, the sequential Wilson width
// strictly shrinks as n grows — the spending schedule's z grows slower than
// √n tightens the interval. This is what makes "stop at the first
// sufficiently narrow look" well-defined.
func TestSequentialWilsonMonotoneShrink(t *testing.T) {
	widths := func(p float64, ns []int) []float64 {
		out := make([]float64, len(ns))
		for i, n := range ns {
			lo, hi := SequentialWilson(int(p*float64(n)), n, 0.95)
			out[i] = hi - lo
		}
		return out
	}
	ns := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 65536}
	for _, p := range []float64{0, 0.01, 0.1, 0.5, 0.9, 1} {
		w := widths(p, ns)
		for i := 1; i < len(w); i++ {
			if w[i] >= w[i-1] {
				t.Errorf("p=%.2f: width grew at n=%d: %f >= %f", p, ns[i], w[i], w[i-1])
			}
		}
	}
}

func TestQuickSequentialConservative(t *testing.T) {
	// The sequential interval always contains the fixed-z Wilson interval
	// at the same confidence (it is pointwise more conservative).
	f := func(k8, n8 uint8) bool {
		n := int(n8%200) + 1
		k := int(k8) % (n + 1)
		flo, fhi := WilsonInterval(k, n, ZForConfidence(0.95))
		slo, shi := SequentialWilson(k, n, 0.95)
		const eps = 1e-12
		return slo <= flo+eps && shi >= fhi-eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStopRuleEval(t *testing.T) {
	rule := StopRule{TargetMargin: 0.5, Confidence: 0.95, MinPerClass: 10}
	classes := []string{"", "vanished", "sdc"}

	// Below the floor: wide-open intervals, nothing converged.
	c := rule.Eval(classes, map[string]int64{"vanished": 3}, 3)
	if c.Converged {
		t.Error("converged below MinPerClass floor")
	}
	if len(c.Classes) != 2 {
		t.Fatalf("padding class not skipped: %d classes", len(c.Classes))
	}

	// Plenty of samples at extreme proportions: narrow intervals.
	c = rule.Eval(classes, map[string]int64{"vanished": 990, "sdc": 10}, 1000)
	if !c.Converged {
		t.Errorf("not converged at n=1000 with margin 0.5: widest %s %f",
			c.WidestClass, c.WidestWidth)
	}
	for _, ci := range c.Classes {
		if ci.Width > rule.TargetMargin {
			t.Errorf("%s width %f above margin", ci.Class, ci.Width)
		}
		if ci.Lo > ci.Fraction || ci.Fraction > ci.Hi {
			t.Errorf("%s interval [%f,%f] excludes p̂=%f", ci.Class, ci.Lo, ci.Hi, ci.Fraction)
		}
	}
	if c.WidestWidth <= 0 || c.WidestClass == "" {
		t.Errorf("widest margin not reported: %q %f", c.WidestClass, c.WidestWidth)
	}

	// A never-observed class converges once n is large enough — its upper
	// bound collapses toward 0 — so rare-but-absent outcomes terminate.
	c = rule.Eval([]string{"checkstop"}, nil, 1000)
	if !c.Classes[0].Converged || c.Classes[0].K != 0 {
		t.Errorf("absent class did not converge: %+v", c.Classes[0])
	}
}

func TestStopRuleDefaults(t *testing.T) {
	r := StopRule{TargetMargin: 0.1}.normalized()
	if r.Confidence != DefaultConfidence || r.MinPerClass != DefaultMinPerClass {
		t.Errorf("defaults not applied: %+v", r)
	}
	if (StopRule{}).Enabled() {
		t.Error("zero rule must be disabled")
	}
}

func TestEstimatorCounts(t *testing.T) {
	rule := StopRule{TargetMargin: 0.2, Confidence: 0.95, MinPerClass: 50}
	est := NewEstimator([]string{"", "vanished", "sdc"}, rule)

	const units, each = 8, 500
	for u := 0; u < units; u++ {
		for i := 0; i < each; i++ {
			code := 1
			if i%10 == 0 {
				code = 2
			}
			unit := "FXU"
			if u%2 == 0 {
				unit = "LSU"
			}
			est.ObserveStratum(code, unit, "functional", "")
		}
	}

	c := est.Snapshot(true)
	if c.Total != units*each {
		t.Fatalf("snapshot total = %d, want %d", c.Total, units*each)
	}
	for _, ci := range c.Classes {
		want := int64(units * each * 9 / 10)
		if ci.Class == "sdc" {
			want = units * each / 10
		}
		if ci.K != want {
			t.Errorf("%s k = %d, want %d", ci.Class, ci.K, want)
		}
	}
	if len(c.ByUnit) != 2 || len(c.ByType) != 1 {
		t.Fatalf("strata: %d units, %d types", len(c.ByUnit), len(c.ByType))
	}
	var unitTotal int64
	for _, cis := range c.ByUnit {
		unitTotal += cis[0].N
	}
	if unitTotal != units*each {
		t.Errorf("unit strata totals sum to %d, want %d", unitTotal, units*each)
	}
	if !c.Converged {
		t.Errorf("estimator not converged at n=%d margin %.2f (widest %s %f)",
			c.Total, rule.TargetMargin, c.WidestClass, c.WidestWidth)
	}
}

// TestEstimatorGatesOnUnsampledStrata: every stratum TrackStrata names is
// evaluated, sampled or not, so one the campaign has not reached yet holds
// the verdict back under the Strata gate.
func TestEstimatorGatesOnUnsampledStrata(t *testing.T) {
	est := NewEstimator([]string{"", "vanished"}, StopRule{TargetMargin: 0.9, MinPerClass: 1, Strata: true})
	est.TrackStrata(map[string]int{"FXU/FUNC": 500, "IFU/MODE": 500})
	for i := 0; i < 300; i++ {
		est.ObserveStratum(1, "FXU", "FUNC", "FXU/FUNC")
	}
	c := est.Snapshot(false)
	if c.Converged || c.WidestStratum != "IFU/MODE" || len(c.ByStratum) != 2 {
		t.Errorf("unsampled stratum not evaluated: converged %v, widest %q, %d strata",
			c.Converged, c.WidestStratum, len(c.ByStratum))
	}
	est.ObserveStratum(1, "IFU", "MODE", "IFU/MODE")
	if !est.Snapshot(false).Converged {
		t.Error("not converged once every stratum met the floor under a wide margin")
	}
}

func TestEstimatorMinPerClassFloor(t *testing.T) {
	// Even a huge margin must not converge before the floor is met.
	est := NewEstimator([]string{"", "vanished"}, StopRule{TargetMargin: 2, MinPerClass: 100})
	for i := 0; i < 99; i++ {
		est.ObserveStratum(1, "", "", "")
	}
	if est.Snapshot(false).Converged {
		t.Error("converged below the MinPerClass floor")
	}
	est.ObserveStratum(1, "", "", "")
	if !est.Snapshot(false).Converged {
		t.Error("not converged at the floor with a vacuously wide margin")
	}
}

// TestSequentialZDoublingBudget: what SequentialZ's comment claims — the
// error charged to the looks at n = 2^k sums to at most α.
func TestSequentialZDoublingBudget(t *testing.T) {
	const confidence = 0.95
	spent := 0.0
	for k := 0; k <= 62; k++ {
		spent += math.Erfc(SequentialZ(confidence, 1<<k) / math.Sqrt2)
	}
	if spent > 1-confidence {
		t.Errorf("looks at n = 2^k spend %.4f, over α = %.2f", spent, 1-confidence)
	}
}

func TestSequentialWilsonVacuous(t *testing.T) {
	if lo, hi := SequentialWilson(0, 0, 0.95); lo != 0 || hi != 1 {
		t.Errorf("n=0: [%f,%f]", lo, hi)
	}
	if z := SequentialZ(0.95, 0); math.IsNaN(z) || math.IsInf(z, 0) {
		t.Errorf("SequentialZ(0.95,0) = %f", z)
	}
}
