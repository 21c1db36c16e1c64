package sfi

import "testing"

// The benchmark harness: one bench per table and figure of the paper's
// evaluation (the numbers each run prints are recorded in EXPERIMENTS.md),
// plus ablation benches for the design choices DESIGN.md calls out.
// Benchmarks use reduced campaign sizes per iteration; cmd/sfi-tables runs
// the full-size versions.

func benchRunner() RunnerConfig {
	cfg := DefaultRunnerConfig()
	cfg.AVP.Testcases = 8
	cfg.AVP.BodyOps = 24
	return cfg
}

// BenchmarkTable1AVPMix regenerates Table 1: the AVP's instruction mix and
// CPI against the eleven SPECInt 2000 component profiles.
func BenchmarkTable1AVPMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := BuildTable1(11)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2SampleSweep regenerates Figure 2: relative standard
// deviation of each outcome category versus the number of flips.
func BenchmarkFig2SampleSweep(b *testing.B) {
	cfg := Fig2Config{
		Runner:  benchRunner(),
		Sizes:   []int{100, 200, 400, 800},
		Samples: 5,
		Seed:    42,
	}
	for i := 0; i < b.N; i++ {
		r, err := RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The paper's claim: estimation error shrinks as samples grow.
		first := r.Points[0].RelStd[Corrected]
		last := r.Points[len(r.Points)-1].RelStd[Corrected]
		if last > first {
			b.Logf("note: corrected rel-stddev did not shrink (%.3f -> %.3f)", first, last)
		}
	}
}

// BenchmarkTable2BeamCalibration regenerates Table 2: SFI versus the
// simulated proton beam.
func BenchmarkTable2BeamCalibration(b *testing.B) {
	cfg := Table2Config{
		Runner: benchRunner(),
		Flips:  800,
		Beam:   DefaultBeamConfig(),
		Seed:   2,
	}
	cfg.Beam.Strikes = 400
	cfg.Beam.AVP.Testcases = 8
	cfg.Beam.AVP.BodyOps = 24
	for i := 0; i < b.N; i++ {
		r, err := RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.SFI.Fraction(Vanished) < 0.85 {
			b.Fatalf("implausible vanish fraction %.3f", r.SFI.Fraction(Vanished))
		}
	}
}

// BenchmarkFig3UnitSER regenerates Figure 3: per-unit targeted injection.
func BenchmarkFig3UnitSER(b *testing.B) {
	cfg := Fig3Config{
		Runner:     benchRunner(),
		Fraction:   0.02,
		MaxPerUnit: 400,
		Seed:       3,
	}
	for i := 0; i < b.N; i++ {
		r, err := RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.PerUnit) != len(Units) {
			b.Fatal("missing units")
		}
	}
}

// BenchmarkFig4UnitContribution regenerates Figure 4 from the Figure 3
// data (latch-count-weighted contributions).
func BenchmarkFig4UnitContribution(b *testing.B) {
	cfg := Fig3Config{
		Runner:     benchRunner(),
		Fraction:   0.02,
		MaxPerUnit: 400,
		Seed:       3,
	}
	f3, err := RunFig3(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4 := DeriveFig4(f3)
		if len(f4.Contribution) == 0 {
			b.Fatal("empty contribution")
		}
	}
}

// BenchmarkFig5LatchTypes regenerates Figure 5: per-latch-type injection.
func BenchmarkFig5LatchTypes(b *testing.B) {
	cfg := Fig5Config{
		Runner:   benchRunner(),
		Fraction: 0.02,
		MinPer:   150,
		Seed:     4,
	}
	for i := 0; i < b.N; i++ {
		r, err := RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.PerType) != len(LatchTypes) {
			b.Fatal("missing types")
		}
	}
}

// BenchmarkTable3Checkers regenerates Table 3: Raw versus Check.
func BenchmarkTable3Checkers(b *testing.B) {
	cfg := Table3Config{Runner: benchRunner(), Flips: 600, Seed: 5}
	for i := 0; i < b.N; i++ {
		r, err := RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Raw.Fraction(Vanished) < r.Check.Fraction(Vanished) {
			b.Logf("note: raw vanish %.3f < check vanish %.3f (shape inversion)",
				r.Raw.Fraction(Vanished), r.Check.Fraction(Vanished))
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationToggleVsSticky compares toggle-mode and sticky-mode
// injection over the same sample.
func BenchmarkAblationToggleVsSticky(b *testing.B) {
	base := CampaignConfig{Runner: benchRunner(), Seed: 6, Flips: 400}
	for i := 0; i < b.N; i++ {
		tog, err := RunCampaign(base)
		if err != nil {
			b.Fatal(err)
		}
		st := base
		st.Runner.Mode = Sticky
		st.Runner.StickyCycles = 0
		stk, err := RunCampaign(st)
		if err != nil {
			b.Fatal(err)
		}
		// Stuck-at faults must be at least as fatal as transients.
		if stk.Fraction(Checkstop)+stk.Fraction(Hang) <
			tog.Fraction(Checkstop)+tog.Fraction(Hang) {
			b.Logf("note: sticky fatality below toggle fatality")
		}
	}
}

// BenchmarkAblationEarlyExit compares quiesce-based early exit against the
// paper's fixed observation window on the same sample.
func BenchmarkAblationEarlyExit(b *testing.B) {
	early := CampaignConfig{Runner: benchRunner(), Seed: 7, Flips: 250}
	fixed := early
	fixed.Runner.QuiesceExit = 0
	fixed.Runner.Window = 20_000
	for i := 0; i < b.N; i++ {
		er, err := RunCampaign(early)
		if err != nil {
			b.Fatal(err)
		}
		fr, err := RunCampaign(fixed)
		if err != nil {
			b.Fatal(err)
		}
		// Classification agreement between the two policies.
		diff := 0
		for _, o := range Outcomes {
			d := er.Counts[o] - fr.Counts[o]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		b.ReportMetric(float64(diff)/float64(er.Total), "disagree/flip")
	}
}

// BenchmarkAblationCheckerPolicy demonstrates the conservative-checking
// effect behind Table 3: masking checkers raises the vanished fraction.
func BenchmarkAblationCheckerPolicy(b *testing.B) {
	on := CampaignConfig{Runner: benchRunner(), Seed: 8, Flips: 400}
	off := on
	off.Runner.CheckersOn = false
	for i := 0; i < b.N; i++ {
		a, err := RunCampaign(on)
		if err != nil {
			b.Fatal(err)
		}
		r, err := RunCampaign(off)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.Fraction(Vanished)-a.Fraction(Vanished)), "vanish-delta-pp")
	}
}

// BenchmarkAblationRecoveryOff measures the escalation when the recovery
// unit is disabled.
func BenchmarkAblationRecoveryOff(b *testing.B) {
	on := CampaignConfig{Runner: benchRunner(), Seed: 9, Flips: 400}
	off := on
	off.Runner.RecoveryOn = false
	for i := 0; i < b.N; i++ {
		a, err := RunCampaign(on)
		if err != nil {
			b.Fatal(err)
		}
		r, err := RunCampaign(off)
		if err != nil {
			b.Fatal(err)
		}
		if r.Fraction(Checkstop) < a.Fraction(Checkstop) {
			b.Logf("note: recovery-off checkstop rate below baseline")
		}
		b.ReportMetric(100*r.Fraction(Checkstop), "checkstop-pct")
	}
}

// BenchmarkAblationMultiBitUpset sweeps the injected cluster size. The
// result is the parity blind spot: even-weight clusters inside one covered
// word cancel the parity bit, so DETECTION drops for spans 2 and 4 relative
// to single flips (and odd spans stay detectable) — the weakness that
// motivates SECDED arrays and physical bit interleaving.
func BenchmarkAblationMultiBitUpset(b *testing.B) {
	base := CampaignConfig{Runner: benchRunner(), Seed: 10, Flips: 300}
	for i := 0; i < b.N; i++ {
		var corr [5]float64
		for _, span := range []int{1, 2, 3, 4} {
			cfg := base
			cfg.Runner.SpanBits = span
			rep, err := RunCampaign(cfg)
			if err != nil {
				b.Fatal(err)
			}
			corr[span] = rep.Fraction(Corrected)
		}
		if corr[2] > corr[1] {
			b.Logf("note: even span detected more than single (%.3f vs %.3f)", corr[2], corr[1])
		}
		b.ReportMetric(100*corr[1], "span1-corrected-pct")
		b.ReportMetric(100*corr[2], "span2-corrected-pct")
	}
}
