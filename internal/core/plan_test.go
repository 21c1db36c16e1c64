package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sfi/internal/stats"
)

// TestBuildSamplePlanPure: a sample plan must be a pure function of
// (database layout, seed, filter) — identical across independently built
// models, which is what lets a coordinator plan stratum shards from a
// census while workers execute them against their own warmed machines.
func TestBuildSamplePlanPure(t *testing.T) {
	r1, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		a := BuildSamplePlan(r1.DB(), seed, nil)
		b := BuildSamplePlan(r2.DB(), seed, nil)
		if !reflect.DeepEqual(a.Keys(), b.Keys()) {
			t.Fatalf("seed %d: stratum key order differs across identical models", seed)
		}
		for _, key := range a.Keys() {
			if !reflect.DeepEqual(a.Stratum(key).Bits, b.Stratum(key).Bits) {
				t.Fatalf("seed %d: stratum %s sequence differs across identical models", seed, key)
			}
		}
	}
}

// TestSamplePlanPartitionsPopulation: the strata partition the filtered
// population exactly — every bit in exactly one stratum sequence, and each
// stratum key matching its members' unit and latch class.
func TestSamplePlanPartitionsPopulation(t *testing.T) {
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := r.DB()
	plan := BuildSamplePlan(db, 1, nil)
	if len(plan.Strata) < 2 {
		t.Fatalf("whole-core plan has %d strata, want several", len(plan.Strata))
	}
	seen := make(map[int]string)
	for _, s := range plan.Strata {
		if s.Key != StratumKey(s.Unit, s.LatchType) {
			t.Errorf("stratum key %q does not match unit %q type %s", s.Key, s.Unit, s.LatchType)
		}
		if s.Population() != len(s.Bits) {
			t.Errorf("stratum %s population %d != len(bits) %d", s.Key, s.Population(), len(s.Bits))
		}
		for _, b := range s.Bits {
			if prev, dup := seen[b]; dup {
				t.Fatalf("bit %d in both %s and %s", b, prev, s.Key)
			}
			seen[b] = s.Key
			g, _, _ := db.Locate(b)
			if g.Unit != s.Unit || g.Kind != s.LatchType {
				t.Fatalf("bit %d (unit %s, type %s) landed in stratum %s", b, g.Unit, g.Kind, s.Key)
			}
		}
	}
	if plan.TotalBits() != db.TotalBits() {
		t.Errorf("plan covers %d bits, population is %d", plan.TotalBits(), db.TotalBits())
	}
}

// TestPlanStratumShardsOffsets: an epoch draw [lo, lo+n) of a stratum's
// sequence shards into contiguous ranges starting at lo.
func TestPlanStratumShardsOffsets(t *testing.T) {
	shards := PlanStratumShards(40, 25, 10)
	want := []ShardRange{{40, 50}, {50, 60}, {60, 65}}
	if !reflect.DeepEqual(shards, want) {
		t.Errorf("PlanStratumShards(40, 25, 10) = %v, want %v", shards, want)
	}
	if got := PlanStratumShards(7, 0, 10); got != nil {
		t.Errorf("empty draw should plan no shards, got %v", got)
	}
}

// TestStratumShardMergeEqualsPrefix: executing a stratum's sequence prefix
// as two disjoint stratum shards and merging must equal executing it as one
// shard — the contract that lets the distributed coordinator split an
// epoch's draw freely.
func TestStratumShardMergeEqualsPrefix(t *testing.T) {
	proto, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildSamplePlan(proto.DB(), 3, nil)
	var key string
	for _, s := range plan.Strata {
		if s.Population() >= 20 {
			key = s.Key
			break
		}
	}
	if key == "" {
		t.Fatal("no stratum with at least 20 bits")
	}

	cfg := fastCampaignConfig()
	cfg.Seed = 3
	cfg.Flips = 20
	cfg.Stratum = key
	whole := cfg
	whole.Shard = &ShardRange{Lo: 0, Hi: 20}
	wrep, err := RunCampaignWith(context.Background(), proto, whole)
	if err != nil {
		t.Fatal(err)
	}

	merged := &Report{}
	for _, sr := range []ShardRange{{0, 10}, {10, 20}} {
		scfg := cfg
		scfg.Shard = &sr
		rep, err := RunCampaignWith(context.Background(), proto, scfg)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(rep)
	}
	if !reflect.DeepEqual(merged.Counts, wrep.Counts) {
		t.Errorf("merged stratum shards differ from whole prefix:\nmerged: %v\nwhole:  %v", merged.Counts, wrep.Counts)
	}
	if !reflect.DeepEqual(merged.ByStratum, wrep.ByStratum) {
		t.Errorf("merged ByStratum rows differ:\nmerged: %v\nwhole:  %v", merged.ByStratum, wrep.ByStratum)
	}
	if !reflect.DeepEqual(merged.Results, wrep.Results) {
		t.Errorf("merged kept results differ from whole-prefix results")
	}
}

// TestStratifiedDeterministicAcrossWorkerCounts: allocation epochs
// re-allocate only over settled counts, so worker count must stay a pure
// throughput knob for stratified campaigns too.
func TestStratifiedDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 80
	cfg.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 3}
	cfg.Stop = StopConfig{TargetMargin: 0.2, MinPerClass: 10}

	cfg.Workers = 1
	one, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	four, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Counts, four.Counts) {
		t.Errorf("stratified totals differ across worker counts:\n1: %v\n4: %v", one.Counts, four.Counts)
	}
	if !reflect.DeepEqual(one.ByStratum, four.ByStratum) {
		t.Errorf("stratified per-stratum counts differ across worker counts:\n1: %v\n4: %v", one.ByStratum, four.ByStratum)
	}
	if one.Convergence == nil || four.Convergence == nil ||
		one.Convergence.Converged != four.Convergence.Converged ||
		one.Convergence.Total != four.Convergence.Total {
		t.Errorf("stratified stop decision differs across worker counts")
	}
}

// TestStratifiedEpochBudget: whatever the epoch count, a fixed-N stratified
// campaign spends its whole budget (population permitting), draws no
// stratum past its census, and is deterministic for a given epoch count.
func TestStratifiedEpochBudget(t *testing.T) {
	for _, epochs := range []int{1, 2, 4} {
		cfg := fastCampaignConfig()
		cfg.Flips = 60
		cfg.Workers = 2
		cfg.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: epochs}
		first, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("epochs=%d: %v", epochs, err)
		}
		if first.Total != cfg.Flips {
			t.Errorf("epochs=%d: spent %d of %d flips", epochs, first.Total, cfg.Flips)
		}
		pops := BuildSamplePlanFromConfig(t, cfg)
		for key, row := range first.ByStratum {
			n := 0
			for _, c := range row {
				n += c
			}
			if n > pops[key] {
				t.Errorf("epochs=%d: stratum %s drew %d of population %d", epochs, key, n, pops[key])
			}
		}
		again, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("epochs=%d rerun: %v", epochs, err)
		}
		if !reflect.DeepEqual(first.Counts, again.Counts) || !reflect.DeepEqual(first.ByStratum, again.ByStratum) {
			t.Errorf("epochs=%d: stratified campaign not deterministic across reruns", epochs)
		}
	}
}

// TestNeymanBeatsUniformToStratumCoverage pairs two ways of reaching the
// same stoppable target — every sampling stratum within the margin or its
// census exhausted — and requires Neyman allocation to need strictly fewer
// injections. The uniform side replays the pooled sample one injection at a
// time and stops at the first multiple of 64 draws that covers; the Neyman
// side is a real adaptive campaign. Small strata part them: uniform
// sampling hits a 32-latch GPTR stratum once per ~2000 draws, the allocator
// walks its census. Both counts are pure functions of (seed, config):
// 44416 vs 6000 when written.
func TestNeymanBeatsUniformToStratumCoverage(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("replays tens of thousands of injections")
	}
	cfg := DefaultCampaignConfig()
	cfg.Runner.AVP.Testcases, cfg.Runner.AVP.BodyOps = 4, 12 // counts, not times: only shortens the run
	cfg.Seed, cfg.Flips, cfg.Workers, cfg.KeepResults = 7, 12000, 2, false
	cfg.Stop = StopConfig{TargetMargin: 0.10, StopOnConverge: true, Strata: true}
	cfg.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 12}
	r, err := NewRunner(cfg.Runner)
	if err != nil {
		t.Fatal(err)
	}
	names, rule, db := outcomeNames(), cfg.Stop.Rule(), r.DB()
	pops := BuildSamplePlan(db, cfg.Seed, nil).Populations()

	// Drawn without replacement, so the census bounds it: coverage is certain.
	est := stats.NewEstimator(names, rule)
	est.TrackStrata(pops)
	covered := func() bool { return est.Snapshot(false).Converged }
	uniform := 0
	for _, bit := range SampleCampaignBits(db, cfg.Seed, db.TotalBits(), nil) {
		res := r.RunInjection(bit)
		est.ObserveStratum(int(res.Outcome), res.Unit, res.LatchType.String(), StratumKey(res.Unit, res.LatchType))
		// Every 64 draws: an evaluation per draw would double the test's
		// cost, and the count need only exceed the Neyman side's.
		if uniform++; uniform%64 == 0 && covered() {
			break
		}
	}
	if !covered() {
		t.Fatalf("uniform sampling missed stratum coverage after its full %d-bit census", uniform)
	}

	rep, err := RunCampaignWith(context.Background(), r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Convergence == nil || !rep.Convergence.Converged {
		t.Fatalf("Neyman campaign missed stratum coverage within its %d-injection budget", cfg.Flips)
	}
	for key, pop := range pops {
		if counts := stratumFromRow(rep.ByStratum[key]); !rule.StratumConverged(names, counts, pop) {
			t.Errorf("Neyman campaign stopped with stratum %s uncovered (%d of %d drawn)", key, counts.Total, pop)
		}
	}
	if rep.Total >= uniform {
		t.Errorf("Neyman allocation saved nothing: %d vs uniform %d injections to coverage", rep.Total, uniform)
	}
	t.Logf("injections to stratum coverage: Neyman %d, uniform %d", rep.Total, uniform)
}

// TestEstimatorIsTheReportEvaluation: an Estimator fed a campaign's kept
// results evaluates the stop rule exactly as the report does, byte for
// byte: a Neyman draw's strata that no flip has reached yet gate both the
// same way, and a uniform draw's report has no strata to track.
func TestEstimatorIsTheReportEvaluation(t *testing.T) {
	neyman := AllocConfig{Mode: AllocNeyman, Epochs: 2}
	for _, tc := range []struct {
		flips int
		alloc AllocConfig
	}{{40, neyman}, {400, neyman}, {400, AllocConfig{Mode: AllocUniform}}} {
		cfg := fastCampaignConfig()
		cfg.Seed, cfg.Flips, cfg.Workers, cfg.KeepResults = 3, tc.flips, 2, true
		cfg.Alloc = tc.alloc
		cfg.Stop = StopConfig{TargetMargin: 0.10, Strata: tc.alloc.Mode == AllocNeyman}
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rule := cfg.Stop.Rule()
		est := stats.NewEstimator(outcomeNames(), rule)
		if rep.Census != nil {
			est.TrackStrata(rep.Census)
			t.Logf("%d flips: %d of %d plan strata drawn", tc.flips, len(rep.ByStratum), len(rep.Census))
		}
		for _, res := range rep.Results {
			est.ObserveStratum(int(res.Outcome), res.Unit, res.LatchType.String(), StratumKey(res.Unit, res.LatchType))
		}
		got, err := json.Marshal(est.Snapshot(true))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rep.ComputeConvergence(rule))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s, %d flips: estimator differs from the report's evaluation\nestimator: %s\nreport:    %s",
				tc.alloc.Mode, tc.flips, got, want)
		}
	}
}

// BuildSamplePlanFromConfig returns the per-stratum census of cfg's plan.
func BuildSamplePlanFromConfig(t *testing.T, cfg CampaignConfig) map[string]int {
	t.Helper()
	r, err := NewRunner(cfg.Runner)
	if err != nil {
		t.Fatal(err)
	}
	return BuildSamplePlan(r.DB(), cfg.Seed, cfg.Filter).Populations()
}

// TestUniformReportByteIdentical: the stratified refactor must leave
// fixed-N uniform campaigns byte-for-byte unchanged — same wire JSON with
// an explicit uniform AllocConfig as with the zero value, no stratum or
// convergence fields, across worker counts, on the scalar and the
// bit-parallel backend alike.
func TestUniformReportByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"p6lite", func() CampaignConfig {
			c := fastCampaignConfig()
			c.Flips = 60
			return c
		}()},
		{"awan", awanCampaignConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 1
			base, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dump := reportDump(t, base)
			for _, bad := range []string{"by_stratum", "convergence"} {
				if strings.Contains(dump, bad) {
					t.Errorf("uniform report JSON contains %q", bad)
				}
			}

			cfg.Workers = 4
			cfg.Alloc = AllocConfig{Mode: AllocUniform}
			explicit, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ed := reportDump(t, explicit)
			// Workers differs by construction; compare everything else.
			if a, b := strings.TrimPrefix(dump, "workers=1 "), strings.TrimPrefix(ed, "workers=4 "); a != b {
				t.Errorf("explicit-uniform 4-worker report differs from zero-config 1-worker report:\n%s\n%s", a, b)
			}
		})
	}
}

// TestStratifiedConfigValidation: the stratified executor's input contract.
func TestStratifiedConfigValidation(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 10
	cfg.Alloc = AllocConfig{Mode: "fibonacci"}
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("unknown allocation mode accepted")
	}

	cfg.Alloc = AllocConfig{Mode: AllocNeyman}
	cfg.Shard = &ShardRange{Lo: 0, Hi: 5}
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("stratified campaign accepted a pooled shard range")
	}

	cfg.Alloc = AllocConfig{}
	cfg.Shard = nil
	cfg.Stratum = "NOPE/FUNC"
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("unknown stratum accepted")
	}
}
