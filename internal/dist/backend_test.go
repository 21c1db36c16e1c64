package dist

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/latch"
)

// awanSpec is a small gate-level campaign: an 8-lane bank of 8-bit
// checked ALUs (208 latch bits) instead of the default 1600-bit bank.
func awanSpec() CampaignSpec {
	rc := core.DefaultRunnerConfig()
	rc.Backend = "awan"
	rc.Awan.Width = 8
	rc.Awan.Lanes = 8
	return CampaignSpec{
		Runner:       rc,
		Seed:         7,
		Flips:        48,
		KeepResults:  true,
		ShardWorkers: 2,
	}
}

// TestJournalRejectsForeignBackend: a journal written for one engine
// backend must refuse to resume a campaign on another — shard reports
// from different machine models must never merge, even when seed, flips
// and filter all coincide.
func TestJournalRejectsForeignBackend(t *testing.T) {
	spec := testSpec()
	spec.Flips = 30
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	c1, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	spec.Runner.Backend = "awan"
	if _, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal}); err == nil {
		t.Fatal("coordinator resumed a p6lite journal with an awan campaign")
	}

	// The header binds the *resolved* name: an explicit "p6lite" spec must
	// still resume a journal written under the default empty backend.
	spec.Runner.Backend = engine.DefaultBackend
	c3, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal})
	if err != nil {
		t.Fatalf("explicit default backend rejected its own journal: %v", err)
	}
	c3.Close()
}

// TestAwanLoopbackEquivalence mirrors TestLoopbackEquivalence for the
// gate-level backend: a 4-worker distributed awan campaign must produce
// totals, unit × latch-type cells and kept per-injection results identical
// to the same-seed single-process run.
func TestAwanLoopbackEquivalence(t *testing.T) {
	spec := awanSpec()
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 12})

	got := runFleet(t, c, srv.URL, 4, WorkerConfig{})

	sameAsLocal(t, got, localReport(t, spec))
}

// TestAwanDistBatchScalarEquivalence: a 4-worker distributed awan
// campaign — whose shards each run the bit-parallel batch path — must
// reproduce the scalar (BatchLanes=1) single-process run bit for bit.
// Shards slice the sample before batches are planned, so this also pins
// down that batch composition cannot leak into per-injection results.
func TestAwanDistBatchScalarEquivalence(t *testing.T) {
	spec := awanSpec()
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 12})

	got := runFleet(t, c, srv.URL, 4, WorkerConfig{})

	spec.Runner.BatchLanes = 1
	want := localReport(t, spec)
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("outcome counts differ:\ndist/batch: %v\nscalar:     %v", got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("per-injection results differ between distributed batch and scalar runs")
	}
}

// TestWireReportRoundTripBothBackends: for each backend, a real campaign
// report must survive the wire encoding (EncodeReport → JSON → WireReport
// → Report → re-encode) with byte-identical JSON — the property shard
// merging and journal replay both depend on.
func TestWireReportRoundTripBothBackends(t *testing.T) {
	for _, backend := range []string{"p6lite", "awan"} {
		t.Run(backend, func(t *testing.T) {
			var spec CampaignSpec
			if backend == "awan" {
				spec = awanSpec()
			} else {
				spec = testSpec()
			}
			spec.Flips = 16
			rep := localReport(t, spec)
			first, err := json.Marshal(EncodeReport(rep))
			if err != nil {
				t.Fatal(err)
			}
			var wire WireReport
			if err := json.Unmarshal(first, &wire); err != nil {
				t.Fatal(err)
			}
			back, err := wire.Report()
			if err != nil {
				t.Fatal(err)
			}
			second, err := json.Marshal(EncodeReport(back))
			if err != nil {
				t.Fatal(err)
			}
			if string(first) != string(second) {
				t.Fatalf("wire round trip not stable:\nfirst:  %s\nsecond: %s", first, second)
			}
			if !reflect.DeepEqual(rep.Counts, back.Counts) {
				t.Fatalf("counts changed across the wire: %v vs %v", rep.Counts, back.Counts)
			}
		})
	}
}

// TestCrossRecountsResults is the differential for the report's one
// breakdown: on both backends, for a uniform campaign, a Neyman campaign,
// two merged stratum shards and -dist loopback runs of both allocations, all
// keeping their Results, the unit × latch-type cross must equal a recount of
// the Results by core.StratumKey(unit, type), and the per-unit and
// per-latch-type breakdowns derived from it — Marginals and the export's
// by_unit and by_type — recounts by unit and by latch type.
func TestCrossRecountsResults(t *testing.T) {
	for _, backend := range []string{"p6lite", "awan"} {
		t.Run(backend, func(t *testing.T) {
			spec := testSpec()
			if backend == "awan" {
				spec = awanSpec()
			}
			neyman := spec
			neyman.Alloc = core.AllocConfig{Mode: core.AllocNeyman, Epochs: 2}
			local := func(s CampaignSpec) *core.Report {
				cfg, err := s.CampaignConfig(nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Workers = 2
				rep, err := core.RunCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			loopback := func(s CampaignSpec) *core.Report {
				c, srv := startCoord(t, CoordConfig{Campaign: s, ShardSize: 12})
				return runFleet(t, c, srv.URL, 2, WorkerConfig{})
			}
			for name, rep := range map[string]*core.Report{
				"uniform":        local(spec),
				"neyman":         local(neyman),
				"stratum-shards": stratumShards(t, spec),
				"dist":           loopback(spec),
				"dist-neyman":    loopback(neyman),
			} {
				if len(rep.Results) != rep.Total || rep.Total == 0 {
					t.Fatalf("%s: %d results kept of %d injections", name, len(rep.Results), rep.Total)
				}
				cells := map[string]map[core.Outcome]int{}
				units := map[string]map[core.Outcome]int{}
				types := map[latch.Type]map[core.Outcome]int{}
				named := map[string]map[string]map[string]int{"by_unit": {}, "by_type": {}}
				for _, res := range rep.Results {
					count(cells, core.StratumKey(res.Unit, res.LatchType), res.Outcome)
					count(units, res.Unit, res.Outcome)
					count(types, res.LatchType, res.Outcome)
					count(named["by_unit"], res.Unit, res.Outcome.String())
					count(named["by_type"], res.LatchType.String(), res.Outcome.String())
				}
				if !reflect.DeepEqual(rep.ByStratum, cells) {
					t.Errorf("%s: cross %v, recount of the results %v", name, rep.ByStratum, cells)
				}
				byUnit, byType := rep.Marginals()
				if !reflect.DeepEqual(byUnit, units) || !reflect.DeepEqual(byType, types) {
					t.Errorf("%s: marginals %v %v, recounts %v %v", name, byUnit, byType, units, types)
				}
				data, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				var export map[string]json.RawMessage
				if err := json.Unmarshal(data, &export); err != nil {
					t.Fatal(err)
				}
				for field, want := range named {
					var got map[string]map[string]int
					if err := json.Unmarshal(export[field], &got); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: export %s %v, recount %v", name, field, got, want)
					}
				}
			}
		})
	}
}

// count adds one outcome to a breakdown's row.
func count[K, O comparable](rows map[K]map[O]int, key K, o O) {
	if rows[key] == nil {
		rows[key] = map[O]int{}
	}
	rows[key][o]++
}

// stratumShards runs two stratum shards of spec's largest stratum, each
// half of a prefix of at most 20 bits, and merges them.
func stratumShards(t *testing.T, spec CampaignSpec) *core.Report {
	t.Helper()
	cfg, err := spec.CampaignConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.NewRunner(cfg.Runner)
	if err != nil {
		t.Fatal(err)
	}
	var largest *core.PlanStratum
	for _, s := range core.BuildSamplePlan(proto.DB(), cfg.Seed, cfg.Filter).Strata {
		if largest == nil || s.Population() > largest.Population() {
			largest = s
		}
	}
	n := min(largest.Population(), 20)
	merged := &core.Report{}
	for _, r := range []core.ShardRange{{Lo: 0, Hi: n / 2}, {Lo: n / 2, Hi: n}} {
		cfg, err := spec.CampaignConfig(&ShardLease{Lo: r.Lo, Hi: r.Hi, Stratum: largest.Key})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.RunCampaignWith(context.Background(), proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(rep)
	}
	return merged
}
