package beam

import (
	"math"
	"testing"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.AVP.Testcases = 6
	cfg.AVP.BodyOps = 14
	cfg.Strikes = 150
	cfg.MeanGap = 800
	cfg.SettleCycles = 5000
	return cfg
}

func TestBeamRunBasics(t *testing.T) {
	rep, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strikes != 150 {
		t.Fatalf("strikes = %d", rep.Strikes)
	}
	total := rep.Vanished + rep.Corrected + rep.Checkstop + rep.Hang + rep.SDC
	if total != rep.Strikes {
		t.Errorf("categories sum to %d, strikes %d", total, rep.Strikes)
	}
	v, c, k := rep.Fractions()
	if v < 0.80 {
		t.Errorf("vanished fraction %.2f implausibly low", v)
	}
	if v+c+k > 1.0001 {
		t.Errorf("fractions sum beyond 1: %f", v+c+k)
	}
	if rep.Cycles == 0 {
		t.Error("no cycles recorded")
	}
}

func TestBeamDeterministic(t *testing.T) {
	a, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestBeamBadConfig(t *testing.T) {
	cfg := fastConfig()
	cfg.Strikes = 0
	if _, err := Run(cfg); err == nil {
		t.Error("no error for zero strikes")
	}
}

func TestBeamArrayWeightZeroHitsLatchesOnly(t *testing.T) {
	cfg := fastConfig()
	cfg.ArrayWeight = 0
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Latch-only beam should roughly track the SFI latch campaign:
	// heavy vanishing with some corrections.
	v, _, _ := rep.Fractions()
	if v < 0.80 {
		t.Errorf("latch-only beam vanished %.2f", v)
	}
}

func TestCalibrateAgreement(t *testing.T) {
	rep := &Report{Strikes: 1000, Vanished: 950, Corrected: 40, Checkstop: 10}
	stat, p, err := Calibrate(0.95, 0.04, 0.01, rep)
	if err != nil {
		t.Fatal(err)
	}
	if stat > 1e-9 {
		t.Errorf("identical distributions: stat %f", stat)
	}
	if p < 0.99 {
		t.Errorf("p = %f, want ~1", p)
	}
	// A very different distribution must be rejected.
	stat, p, err = Calibrate(0.5, 0.4, 0.1, rep)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Errorf("mismatched distributions accepted: stat=%f p=%f", stat, p)
	}
}

// An outcome class SFI never saw but the beam did is a total mismatch:
// the statistic is +Inf and the p-value 0 (Table 2 printed p = NaN).
func TestCalibrateUnseenClass(t *testing.T) {
	rep := &Report{Strikes: 1000, Vanished: 950, Corrected: 40, Checkstop: 10}
	stat, p, err := Calibrate(0.99, 0, 0.01, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(stat, 1) || p != 0 {
		t.Errorf("stat %v, p %v; want +Inf, 0", stat, p)
	}
}
