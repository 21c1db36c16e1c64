package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sfi/internal/latch"
	"sfi/internal/stats"
)

// Golden evaluations. The stop rule's evaluation of a report, an Estimator's
// snapshot of the same results and the allocator's split of the next epoch
// are pinned on hand-built reports, so a refactor of the statistics shows
// any byte it moves here before it shows in a campaign digest. The Neyman
// fixture's Census holds a stratum the draw never reached, an exhausted one,
// one below the MinPerClass floor and one whose whole population is below it.
const (
	goldenEvalUniform     = "b4436220619b0e37c66e55f933b7c70bd5b6ae193182f828f286ae399501e2fc"
	goldenEvalNeyman      = "5a6655e33a6d274a70aad21187c7d3894291889e1c0a2869d1d6e8fc840f6077"
	goldenEvalEmpty       = `{"confidence":0.95,"target_margin":0.2,"min_per_class":50,"total":0,"converged":false,"widest_class":"vanished","widest_width":1,"classes":[{"class":"vanished","k":0,"n":0,"fraction":0,"lo":0,"hi":1,"width":1,"converged":false},{"class":"corrected","k":0,"n":0,"fraction":0,"lo":0,"hi":1,"width":1,"converged":false},{"class":"hang","k":0,"n":0,"fraction":0,"lo":0,"hi":1,"width":1,"converged":false},{"class":"checkstop","k":0,"n":0,"fraction":0,"lo":0,"hi":1,"width":1,"converged":false},{"class":"sdc","k":0,"n":0,"fraction":0,"lo":0,"hi":1,"width":1,"converged":false}]}`
	goldenEvalNeymanEpoch = `{"epoch":0,"budget":200,"shares":[{"stratum":"FPU/GPTR","next":33,"score":32},{"stratum":"FXU/REGFILE","next":0},{"stratum":"IFU/FUNC","next":0},{"stratum":"IFU/MODE","next":15,"score":15},{"stratum":"LSU/MODE","next":152,"score":149.37887931959077}]}`
)

// evalFixture is a report built from results, not from a campaign: count
// results of each (unit, type) cell, their outcomes a fixed pattern of i.
func evalFixture(cells []evalCell) *Report {
	rep := newReport()
	for _, c := range cells {
		for i := 0; i < c.n; i++ {
			o := Vanished
			switch {
			case i%11 == 3:
				o = SDC
			case i%7 == 2:
				o = Checkstop
			case i%5 == 1:
				o = Corrected
			case i%13 == 12:
				o = Hang
			}
			rep.add(Result{Outcome: o, Unit: c.unit, LatchType: c.t}, true)
		}
	}
	return rep
}

type evalCell struct {
	unit string
	t    latch.Type
	n    int
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenEvaluation pins ComputeConvergence's JSON on a uniform, a Neyman
// and an empty report, an Estimator's Snapshot(true) fed each report's
// results, and the shares of one Epochs.Next over the Neyman report.
func TestGoldenEvaluation(t *testing.T) {
	uniform := evalFixture([]evalCell{
		{"IFU", latch.Func, 120}, {"FXU", latch.RegFile, 70}, {"LSU", latch.Mode, 40}, {"IFU", latch.GPTR, 10},
	})
	neyman := evalFixture([]evalCell{
		{"IFU", latch.Func, 200},   // sampled past the floor
		{"FXU", latch.RegFile, 40}, // exhausted
		{"LSU", latch.Mode, 20},    // below the floor
		{"IFU", latch.Mode, 10},    // population below the floor, not exhausted
	})
	neyman.Census = map[string]int{"IFU/FUNC": 500, "FXU/REGFILE": 40, "LSU/MODE": 300, "IFU/MODE": 30, "FPU/GPTR": 64}

	for _, tc := range []struct {
		name string
		rep  *Report
		rule stats.StopRule
		want string
	}{
		{"uniform", uniform, stats.StopRule{TargetMargin: 0.2}, goldenEvalUniform},
		{"neyman", neyman, stats.StopRule{TargetMargin: 0.25, Strata: true}, goldenEvalNeyman},
		{"empty", &Report{}, stats.StopRule{TargetMargin: 0.2}, sha([]byte(goldenEvalEmpty))},
	} {
		got, err := json.Marshal(tc.rep.ComputeConvergence(tc.rule))
		if err != nil {
			t.Fatal(err)
		}
		if sha(got) != tc.want {
			t.Errorf("%s: ComputeConvergence digest %s, want %s\n%s", tc.name, sha(got), tc.want, got)
		}
		est := stats.NewEstimator(outcomeNames(), tc.rule)
		if tc.rep.Census != nil {
			est.TrackStrata(tc.rep.Census)
		}
		for _, res := range tc.rep.Results {
			est.ObserveStratum(int(res.Outcome), res.Unit, res.LatchType.String(), StratumKey(res.Unit, res.LatchType))
		}
		snap, err := json.Marshal(est.Snapshot(true))
		if err != nil {
			t.Fatal(err)
		}
		if sha(snap) != tc.want {
			t.Errorf("%s: Estimator snapshot digest %s, want %s\n%s", tc.name, sha(snap), tc.want, snap)
		}
	}

	plan := &SamplePlan{}
	for _, key := range []string{"FPU/GPTR", "FXU/REGFILE", "IFU/FUNC", "IFU/MODE", "LSU/MODE"} {
		plan.Strata = append(plan.Strata, &PlanStratum{Key: key, Bits: make([]int, neyman.Census[key])})
	}
	epochs := &Epochs{Plan: plan, Left: 600, size: 200, rule: stats.StopRule{TargetMargin: 0.25, Strata: true},
		Drawn: map[string]int{"IFU/FUNC": 200, "FXU/REGFILE": 40, "LSU/MODE": 20, "IFU/MODE": 10}}
	got, err := json.Marshal(epochs.Next(neyman))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenEvalNeymanEpoch {
		t.Errorf("Epochs.Next = %s\nwant          %s", got, goldenEvalNeymanEpoch)
	}
}
