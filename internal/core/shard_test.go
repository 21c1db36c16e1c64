package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestPlanShardsPartition(t *testing.T) {
	cases := []struct{ flips, size, want int }{
		{100, 10, 10}, {100, 33, 4}, {100, 0, 1}, {100, 1000, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		shards := PlanShards(c.flips, c.size)
		if len(shards) != c.want {
			t.Errorf("PlanShards(%d,%d): %d shards, want %d", c.flips, c.size, len(shards), c.want)
		}
		next := 0
		for _, s := range shards {
			if s.Lo != next || s.Hi <= s.Lo {
				t.Fatalf("PlanShards(%d,%d): bad shard %+v at offset %d", c.flips, c.size, s, next)
			}
			next = s.Hi
		}
		if next != c.flips {
			t.Errorf("PlanShards(%d,%d): covers [0,%d), want [0,%d)", c.flips, c.size, next, c.flips)
		}
	}
	if PlanShards(0, 10) != nil {
		t.Error("PlanShards(0, 10) should be empty")
	}
}

// TestSampleCampaignBitsPure: the sample must be a pure function of
// (seed, flips, filter) — same inputs, same bits, across independently
// built models. This is what makes shard partitioning reproducible across
// processes.
func TestSampleCampaignBitsPure(t *testing.T) {
	r1, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		a := SampleCampaignBits(r1.DB(), seed, 500, nil)
		b := SampleCampaignBits(r2.DB(), seed, 500, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: samples differ across identical models", seed)
		}
	}
}

// TestCampaignDeterministicAcrossWorkerCounts: worker count is a
// throughput knob, never an outcome knob — the same config must yield
// identical reports at any concurrency.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 60
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
		t.Errorf("outcome totals differ across worker counts:\n1: %v\n4: %v", one.Counts, four.Counts)
	}
	if !reflect.DeepEqual(one.ByStratum, four.ByStratum) {
		t.Errorf("unit × latch-type totals differ across worker counts")
	}
	if !reflect.DeepEqual(one.Results, four.Results) {
		t.Errorf("kept results differ across worker counts")
	}
}

// TestReportMergeEqualsUnion: merging the reports of k disjoint shards, in
// shard order, must reproduce the whole-campaign report exactly — counts,
// the unit × latch-type cross and kept results.
func TestReportMergeEqualsUnion(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 60
	cfg.Workers = 2

	proto, err := NewRunner(cfg.Runner)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := RunCampaignWith(context.Background(), proto, cfg)
	if err != nil {
		t.Fatal(err)
	}

	merged := &Report{}
	for _, sr := range PlanShards(cfg.Flips, 17) {
		scfg := cfg
		scfg.Shard = &sr
		rep, err := RunCampaignWith(context.Background(), proto, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != sr.Size() {
			t.Fatalf("shard %+v: total %d", sr, rep.Total)
		}
		merged.Merge(rep)
	}

	if merged.Total != whole.Total {
		t.Fatalf("merged total %d, whole %d", merged.Total, whole.Total)
	}
	if !reflect.DeepEqual(merged.Counts, whole.Counts) {
		t.Errorf("merged counts differ:\nmerged: %v\nwhole:  %v", merged.Counts, whole.Counts)
	}
	if !reflect.DeepEqual(merged.ByStratum, whole.ByStratum) {
		t.Errorf("merged unit × latch-type counts differ")
	}
	if !reflect.DeepEqual(merged.Results, whole.Results) {
		t.Errorf("merged kept results differ from whole-campaign results")
	}
}

func TestReportMergeNilAndEmpty(t *testing.T) {
	r := &Report{}
	r.Merge(nil)
	r.Merge(&Report{})
	if r.Total != 0 {
		t.Fatalf("empty merges changed the report: %+v", r)
	}
}

func TestRunCampaignContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alloc := range allocModes {
		t.Run(alloc.Mode, func(t *testing.T) {
			cfg := fastCampaignConfig()
			cfg.Alloc = alloc
			cfg.Flips = 40
			if _, err := RunCampaignContext(ctx, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
			}
		})
	}
}

func TestRunCampaignWithShardValidation(t *testing.T) {
	proto, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCampaignConfig()
	cfg.Flips = 10
	for _, bad := range []ShardRange{{-1, 5}, {5, 11}, {7, 7}, {8, 2}} {
		scfg := cfg
		scfg.Shard = &bad
		if _, err := RunCampaignWith(context.Background(), proto, scfg); err == nil {
			t.Errorf("shard %+v accepted", bad)
		}
	}
}

// TestDrawnSequence: a campaign handed its sequence (CampaignConfig.Drawn)
// runs that sequence and no other. Shards of a uniform campaign and of one
// stratum, and a whole Neyman campaign, report exactly what they report
// drawing their own; a sequence drawn under another seed is the one that
// runs; a sequence of the other kind is refused; and a campaign with more
// flips than its population is refused by the draw as by the campaign.
func TestDrawnSequence(t *testing.T) {
	proto, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg CampaignConfig) *Report {
		t.Helper()
		rep, err := RunCampaignWith(context.Background(), proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	uniform := fastCampaignConfig()
	uniform.Flips = 30
	stratum := uniform
	stratum.Stratum = BuildSamplePlan(proto.DB(), stratum.Seed, nil).Strata[0].Key
	neyman := uniform
	neyman.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 2}
	draw := func(cfg CampaignConfig) *Sequence {
		t.Helper()
		seq, err := DrawSequence(proto.DB(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	for _, cfg := range []CampaignConfig{uniform, stratum, neyman} {
		drawn := cfg
		drawn.Drawn = draw(cfg)
		shards := []ShardRange{{0, 7}, {7, 8}, {20, 30}}
		if cfg.Alloc.Stratified() {
			shards = []ShardRange{{}}
		}
		for _, sr := range shards {
			own, given := cfg, drawn
			if sr.Hi > 0 {
				own.Shard, given.Shard = &sr, &sr
			}
			if a, b := run(own), run(given); !reflect.DeepEqual(a, b) {
				t.Errorf("%s%s shard %+v: a drawn sequence moved the report:\n%+v\n%+v", cfg.Stratum, cfg.Alloc.Mode, sr, a, b)
			}
		}
	}
	other := uniform
	other.Seed++
	foreign := uniform
	foreign.Drawn = draw(other)
	if a, b := run(other), run(foreign); !reflect.DeepEqual(a.Results, b.Results) || reflect.DeepEqual(a.Results, run(uniform).Results) {
		t.Error("a campaign handed another seed's sequence did not run it")
	}
	wrong := uniform
	wrong.Drawn = draw(stratum)
	if _, err := RunCampaignWith(context.Background(), proto, wrong); err == nil {
		t.Error("a uniform campaign ran a stratified sequence")
	}
	huge := uniform
	huge.Flips = proto.DB().CountBits(huge.Filter) + 1
	_, want := RunCampaignWith(context.Background(), proto, huge)
	if _, err := DrawSequence(proto.DB(), huge); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("drawing %d flips past the population: %v, want RunCampaignWith's refusal %v", huge.Flips, err, want)
	}
}
