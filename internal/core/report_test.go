package core

import (
	"encoding/json"
	"strings"
	"testing"

	"sfi/internal/latch"
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

func TestConfidenceIntervalsBracketFractions(t *testing.T) {
	rep := sampleReport(t)
	cis := rep.ConfidenceIntervals(1.96)
	for _, o := range Outcomes {
		ci := cis[o]
		if ci.Lo > ci.Fraction || ci.Fraction > ci.Hi {
			t.Errorf("%v: fraction %.3f outside [%.3f, %.3f]", o, ci.Fraction, ci.Lo, ci.Hi)
		}
		if ci.Lo < 0 || ci.Hi > 1 {
			t.Errorf("%v: interval out of [0,1]", o)
		}
	}
}

func TestConfidenceIntervalsShrinkWithN(t *testing.T) {
	small := &Report{Total: 50, Counts: map[Outcome]int{Vanished: 47}}
	big := &Report{Total: 5000, Counts: map[Outcome]int{Vanished: 4700}}
	sci := small.ConfidenceIntervals(1.96)[Vanished]
	bci := big.ConfidenceIntervals(1.96)[Vanished]
	if bci.Hi-bci.Lo >= sci.Hi-sci.Lo {
		t.Errorf("interval did not shrink: %f vs %f", bci.Hi-bci.Lo, sci.Hi-sci.Lo)
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
