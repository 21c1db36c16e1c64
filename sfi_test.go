package sfi

import (
	"context"
	"testing"
)

// Facade and experiment-driver tests at reduced scale; the full-size runs
// live in cmd/sfi-tables and EXPERIMENTS.md.

func testRunner() RunnerConfig {
	cfg := DefaultRunnerConfig()
	cfg.AVP.Testcases = 6
	cfg.AVP.BodyOps = 14
	return cfg
}

// frac is the estimated fraction of rep's injections with outcome o.
func frac(rep *Report, o Outcome) float64 { return Row(rep.Estimate().Pooled, o).Fraction }

func TestFacadeCampaign(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Runner = testRunner()
	cfg.Flips = 200
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 200 {
		t.Fatalf("total = %d", rep.Total)
	}
	if frac(rep, Vanished) < 0.7 {
		t.Errorf("vanished %.2f implausibly low", frac(rep, Vanished))
	}
}

// TestFacadeShardedCampaign drives the public shard-planning API the way a
// distributed deployment does: plan shards, run each independently, merge.
func TestFacadeShardedCampaign(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Runner = testRunner()
	cfg.Flips = 60
	whole, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := &Report{}
	for _, sr := range PlanShards(cfg.Flips, 25) {
		scfg := cfg
		scfg.Shard = &sr
		rep, err := RunCampaignContext(context.Background(), scfg)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(rep)
	}
	if merged.Total != whole.Total {
		t.Fatalf("merged total %d, whole %d", merged.Total, whole.Total)
	}
	for _, o := range Outcomes {
		if merged.Counts[o] != whole.Counts[o] {
			t.Errorf("%v: merged %d, whole %d", o, merged.Counts[o], whole.Counts[o])
		}
	}
}

func TestFig2ErrorShrinks(t *testing.T) {
	cfg := Fig2Config{
		Runner:  testRunner(),
		Sizes:   []int{80, 640},
		Samples: 6,
		Seed:    42,
	}
	r, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatal("missing points")
	}
	// The Figure 2 claim: relative stddev of the rarer categories falls
	// as the number of flips grows.
	small := r.Points[0].RelStd[Corrected]
	big := r.Points[1].RelStd[Corrected]
	if big > small {
		t.Errorf("corrected rel-stddev grew with sample size: %.3f -> %.3f", small, big)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestTable2Shapes(t *testing.T) {
	cfg := Table2Config{
		Runner: testRunner(),
		Flips:  500,
		Beam:   DefaultBeamConfig(),
		Seed:   2,
	}
	cfg.Beam.Strikes = 300
	cfg.Beam.AVP.Testcases = 6
	cfg.Beam.AVP.BodyOps = 14
	r, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sv := frac(r.SFI, Vanished)
	bv, _, _ := r.Beam.Fractions()
	if sv < 0.85 || bv < 0.85 {
		t.Errorf("vanish fractions sfi %.2f beam %.2f", sv, bv)
	}
	// Table 2's point: SFI and beam proportions are close.
	if d := sv - bv; d > 0.08 || d < -0.08 {
		t.Errorf("SFI and beam vanish differ by %.3f", d)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig3AndFig4Shapes(t *testing.T) {
	cfg := Fig3Config{
		Runner:     testRunner(),
		Fraction:   0.015,
		MaxPerUnit: 300,
		Seed:       3,
	}
	f3, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.PerUnit) != len(Units) {
		t.Fatalf("%d units", len(f3.PerUnit))
	}
	var lsu, biggest UnitOutcome
	for _, u := range f3.PerUnit {
		if u.Fractions[Vanished] < 0.80 {
			t.Errorf("unit %s vanish %.2f below the paper's 90%% band (small-sample tolerance)",
				u.Unit, u.Fractions[Vanished])
		}
		if u.Unit == "LSU" {
			lsu = u
		}
		if u.LatchBits > biggest.LatchBits {
			biggest = u
		}
	}
	if biggest.Unit != "LSU" {
		t.Errorf("largest unit is %s, want LSU", biggest.Unit)
	}
	_ = lsu

	f4 := DeriveFig4(f3)
	for _, o := range []Outcome{Corrected, Hang, Checkstop} {
		sum := 0.0
		for _, u := range Units {
			sum += f4.Contribution[o][u]
		}
		if sum != 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("%v contributions sum to %.3f", o, sum)
		}
	}
	if f3.String() == "" || f4.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig5Shapes(t *testing.T) {
	cfg := Fig5Config{
		Runner:   testRunner(),
		Fraction: 0.02,
		MinPer:   150,
		Seed:     4,
	}
	r, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerType) != len(LatchTypes) {
		t.Fatalf("%d types", len(r.PerType))
	}
	frac := make(map[LatchType]float64)
	for _, ty := range r.PerType {
		frac[ty.Type] = ty.Fractions[Vanished]
	}
	// The Figure 5 claim: scan-only latches (MODE, GPTR) have larger
	// system impact than the FUNC read-write latches.
	if frac[LatchMode] > frac[LatchFunc] {
		t.Errorf("MODE vanish %.3f above FUNC %.3f", frac[LatchMode], frac[LatchFunc])
	}
	if frac[LatchGPTR] > frac[LatchFunc] {
		t.Errorf("GPTR vanish %.3f above FUNC %.3f", frac[LatchGPTR], frac[LatchFunc])
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := Table3Config{Runner: testRunner(), Flips: 500, Seed: 5}
	r, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Table 3's shape: Raw mode vanishes more, has no recoveries or
	// checkstops; Check mode converts some of that into visible events.
	if frac(r.Raw, Vanished) < frac(r.Check, Vanished) {
		t.Errorf("raw vanish %.3f < check vanish %.3f",
			frac(r.Raw, Vanished), frac(r.Check, Vanished))
	}
	if r.Raw.Counts[Corrected] != 0 || r.Raw.Counts[Checkstop] != 0 {
		t.Error("raw mode has machine-visible events")
	}
	if r.Check.Counts[Corrected] == 0 {
		t.Error("check mode produced no recoveries")
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestTraceReportRendering(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Runner = testRunner()
	cfg.Flips = 150
	cfg.Filter = ByGroupPrefix("lsu.erat")
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := TraceReport(rep, 10)
	if s == "" {
		t.Error("empty trace report")
	}
}

func TestBeamFacade(t *testing.T) {
	cfg := DefaultBeamConfig()
	cfg.AVP.Testcases = 6
	cfg.AVP.BodyOps = 14
	cfg.Strikes = 120
	cfg.MeanGap = 600
	cfg.SettleCycles = 3000
	rep, err := RunBeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strikes != 120 {
		t.Fatalf("strikes %d", rep.Strikes)
	}
}

// TestFig2MeansStable checks the paper's side observation: "the mean of the
// different randomly chosen samples for a given number of bit-flips were
// fairly constant" — the vanished-category mean fraction varies little
// across independent samples.
func TestFig2MeansStable(t *testing.T) {
	cfg := CampaignConfig{Runner: testRunner(), Flips: 300}
	var fracs []float64
	for s := 0; s < 5; s++ {
		cfg.Seed = uint64(1000 + s)
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, frac(rep, Vanished))
	}
	lo, hi := fracs[0], fracs[0]
	for _, f := range fracs {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo > 0.06 {
		t.Errorf("vanished means spread %.3f..%.3f across samples (too unstable)", lo, hi)
	}
}
