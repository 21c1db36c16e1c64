package core

import (
	"encoding/json"
	"strings"
	"testing"

	"sfi/internal/latch"
	"sfi/internal/stats"
)

func sampleReport(t *testing.T) *Report {
	t.Helper()
	cfg := fastCampaignConfig()
	cfg.Flips = 250
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEstimateBracketsFractions(t *testing.T) {
	e := sampleReport(t).Estimate()
	pops := map[string][]stats.ClassInterval{"pooled": e.Pooled}
	for unit, rows := range e.ByUnit {
		pops[unit] = rows
	}
	for ty, rows := range e.ByType {
		pops[ty] = rows
	}
	for name, rows := range pops {
		for _, ci := range rows {
			if ci.Lo > ci.Fraction || ci.Fraction > ci.Hi {
				t.Errorf("%s %s: fraction %.3f outside [%.3f, %.3f]", name, ci.Class, ci.Fraction, ci.Lo, ci.Hi)
			}
			if ci.Lo < 0 || ci.Hi > 1 {
				t.Errorf("%s %s: interval out of [0,1]", name, ci.Class)
			}
		}
	}
}

func TestEstimateShrinksWithN(t *testing.T) {
	small := &Report{Total: 50, Counts: map[Outcome]int{Vanished: 47}}
	big := &Report{Total: 5000, Counts: map[Outcome]int{Vanished: 4700}}
	sci := Row(small.Estimate().Pooled, Vanished)
	bci := Row(big.Estimate().Pooled, Vanished)
	if bci.Width >= sci.Width {
		t.Errorf("interval did not shrink: %f vs %f", bci.Width, sci.Width)
	}
}

// TestEstimatePopulations holds Report.Estimate to its definition. Each row
// is k out of its population's n, the fraction k/n and the fixed-n Wilson
// interval at z = 1.96; an empty report's are 0 in (0, 1). The pooled
// population is the report's Counts over its Total; the unit and type
// populations are a recount of the kept Results; and stratum populations
// appear only with a Census, one per census stratum, those the campaign
// never drew from with zero counts.
func TestEstimatePopulations(t *testing.T) {
	wantRows := func(name string, rows []stats.ClassInterval, counts map[Outcome]int) {
		t.Helper()
		n := 0
		for _, k := range counts {
			n += k
		}
		if len(rows) != len(Outcomes) {
			t.Fatalf("%s: %d rows, want one per outcome", name, len(rows))
		}
		for i, o := range Outcomes {
			k := counts[o]
			want := stats.ClassInterval{Class: o.String(), K: int64(k), N: int64(n)}
			want.Lo, want.Hi = stats.WilsonInterval(k, n, 1.96)
			want.Width = want.Hi - want.Lo
			if n > 0 {
				want.Fraction = float64(k) / float64(n)
			}
			if rows[i] != want || Row(rows, o) != want {
				t.Errorf("%s %v: row %+v, want %+v", name, o, rows[i], want)
			}
		}
	}
	empty := (&Report{}).Estimate()
	wantRows("empty", empty.Pooled, nil)
	if ci := Row(empty.Pooled, Vanished); ci.Fraction != 0 || ci.Lo != 0 || ci.Hi != 1 {
		t.Errorf("empty report: %+v, want fraction 0 in (0, 1)", ci)
	}
	if len(empty.ByUnit)+len(empty.ByType)+len(empty.ByStratum) != 0 {
		t.Errorf("empty report has populations: %+v", empty)
	}

	uniform := sampleReport(t)
	stratified := fastCampaignConfig()
	stratified.Seed, stratified.Flips, stratified.KeepResults = 3, 40, true
	stratified.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 2}
	stratified.Stop = StopConfig{TargetMargin: 0.10, Strata: true}
	neyman, err := RunCampaign(stratified)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*Report{"uniform": uniform, "neyman": neyman} {
		if len(rep.Results) != rep.Total {
			t.Fatalf("%s: %d results kept of %d", name, len(rep.Results), rep.Total)
		}
		e := rep.Estimate()
		wantRows(name+" pooled", e.Pooled, rep.Counts)
		units, types, cells := map[string]map[Outcome]int{}, map[string]map[Outcome]int{}, map[string]map[Outcome]int{}
		for _, res := range rep.Results {
			one := map[Outcome]int{res.Outcome: 1}
			addRow(units, res.Unit, one)
			addRow(types, res.LatchType.String(), one)
			addRow(cells, StratumKey(res.Unit, res.LatchType), one)
		}
		for pop, p := range map[string]struct {
			got  map[string][]stats.ClassInterval
			want map[string]map[Outcome]int
		}{"unit": {e.ByUnit, units}, "type": {e.ByType, types}} {
			if len(p.got) != len(p.want) {
				t.Errorf("%s: %d %s populations, the results have %d", name, len(p.got), pop, len(p.want))
			}
			for key, counts := range p.want {
				wantRows(name+" "+pop+" "+key, p.got[key], counts)
			}
		}
		if rep.Census == nil {
			if e.ByStratum != nil {
				t.Errorf("%s: stratum populations without a census: %v", name, e.ByStratum)
			}
			continue
		}
		if len(e.ByStratum) != len(rep.Census) || len(cells) >= len(rep.Census) {
			t.Fatalf("%s: %d stratum populations, %d drawn, census of %d: want every census stratum, some never drawn",
				name, len(e.ByStratum), len(cells), len(rep.Census))
		}
		for key := range rep.Census {
			wantRows(name+" stratum "+key, e.ByStratum[key], cells[key])
		}
	}
}

func TestDetectionLatencyStats(t *testing.T) {
	rep := &Report{}
	rep.Results = []Result{
		{Detected: true, DetectLatency: 10},
		{Detected: true, DetectLatency: 50},
		{Detected: true, DetectLatency: 30},
		{Detected: false},
	}
	ls := rep.DetectionLatency()
	if ls.Detected != 3 || ls.Min != 10 || ls.Max != 50 {
		t.Errorf("stats = %+v", ls)
	}
	if ls.Mean != 30 {
		t.Errorf("mean = %f", ls.Mean)
	}
	if ls.P50 != 30 {
		t.Errorf("p50 = %d", ls.P50)
	}
	empty := (&Report{}).DetectionLatency()
	if empty.Detected != 0 {
		t.Error("empty latency stats wrong")
	}
}

func TestCoverageTable(t *testing.T) {
	rep := &Report{}
	rep.Results = []Result{
		{Detected: true, FirstChecker: "a", Outcome: Corrected},
		{Detected: true, FirstChecker: "a", Outcome: Corrected},
		{Detected: true, FirstChecker: "b", Outcome: Checkstop},
		{Detected: false, Outcome: Vanished},
	}
	cov := rep.CoverageTable()
	if len(cov) != 2 {
		t.Fatalf("rows = %d", len(cov))
	}
	if cov[0].Checker != "a" || cov[0].Detected != 2 {
		t.Errorf("first row = %+v", cov[0])
	}
	if cov[0].Outcomes[Corrected] != 2 {
		t.Error("outcome counts wrong")
	}
}

func TestDetailedStringOnRealCampaign(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 300
	cfg.Filter = latch.ByUnit("LSU") // plenty of detections
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.DetailedString()
	if !strings.Contains(s, "total flips: 300") {
		t.Error("missing header")
	}
	if !strings.Contains(s, "[") {
		t.Error("missing confidence intervals")
	}
	if rep.Counts[Corrected] > 0 && !strings.Contains(s, "checker coverage") {
		t.Error("missing coverage table despite detections")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 200
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Total     int                `json:"total"`
		Counts    map[string]int     `json:"counts"`
		Fractions map[string]float64 `json:"fractions"`
		Results   []struct {
			Outcome string `json:"outcome"`
			Group   string `json:"group"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Total != 200 {
		t.Errorf("total = %d", decoded.Total)
	}
	sum := 0
	for _, n := range decoded.Counts {
		sum += n
	}
	if sum != 200 {
		t.Errorf("counts sum to %d", sum)
	}
	// Only non-vanished results serialized.
	want := 200 - rep.Counts[Vanished]
	if len(decoded.Results) != want {
		t.Errorf("serialized %d results, want %d", len(decoded.Results), want)
	}
	for _, res := range decoded.Results {
		if res.Outcome == "vanished" {
			t.Error("vanished result serialized")
		}
		if res.Group == "" {
			t.Error("empty group in serialized result")
		}
	}
}

// TestFoldAllocatesPerCell pins what folding a settled draw into a report
// costs in allocations: a cell's key and row are built once, when the cell
// first appears, and never per injection — the lookup key of every later
// result lives on the stack. So a report that has seen every cell folds a
// draw with no allocation (as the per-unit and per-type rows did before the
// cross replaced them), and a fresh report folds a draw twice as long, over
// the same cells, with no more allocations than the draw itself.
func TestFoldAllocatesPerCell(t *testing.T) {
	rep := sampleReport(t)
	d := &draw{res: rep.Results}
	twice := &draw{res: append(append([]Result(nil), rep.Results...), rep.Results...)}

	seen := newReport()
	seen.addDraw(d, false)
	if n := testing.AllocsPerRun(20, func() { seen.addDraw(d, false) }); n != 0 {
		t.Errorf("folding %d injections over known cells made %.1f allocations, want 0", len(d.res), n)
	}
	once := testing.AllocsPerRun(20, func() { newReport().addDraw(d, false) })
	double := testing.AllocsPerRun(20, func() { newReport().addDraw(twice, false) })
	if double > once {
		t.Errorf("a fresh fold of %d injections made %.1f allocations, of %d over the same cells %.1f: some are per injection",
			len(twice.res), double, len(d.res), once)
	}
}
