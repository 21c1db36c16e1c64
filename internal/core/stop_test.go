package core

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"sfi/internal/obs"
	"sfi/internal/stats"
)

// The PR 7 acceptance gate: an adaptive campaign stops before exhausting
// its flip budget and every tracked class's interval width in the *final*
// report is within the requested margin.
func TestAdaptiveCampaignStopsAtMargin(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 6000 // the budget the adaptive stop should undercut
	cfg.Workers = 4
	cfg.Stop = StopConfig{
		TargetMargin:   0.30,
		Confidence:     0.95,
		MinPerClass:    25,
		StopOnConverge: true,
	}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total >= cfg.Flips {
		t.Fatalf("adaptive campaign ran the whole budget: %d/%d", rep.Total, cfg.Flips)
	}
	if rep.Total < cfg.Stop.MinPerClass {
		t.Fatalf("stopped below the MinPerClass floor: %d", rep.Total)
	}
	c := rep.Convergence
	if c == nil || !c.Converged {
		t.Fatalf("final report not converged: %+v", c)
	}
	for _, ci := range c.Classes {
		if ci.Width > cfg.Stop.TargetMargin {
			t.Errorf("class %s width %.4f above margin %.2f", ci.Class, ci.Width, cfg.Stop.TargetMargin)
		}
		if ci.N != int64(rep.Total) {
			t.Errorf("class %s evaluated at n=%d, report total %d", ci.Class, ci.N, rep.Total)
		}
	}
	// The report's aggregates must cover exactly the injections that ran.
	sum := 0
	for _, n := range rep.Counts {
		sum += n
	}
	if sum != rep.Total {
		t.Errorf("counts sum %d != total %d", sum, rep.Total)
	}
	if len(c.ByUnit) == 0 || len(c.ByType) == 0 {
		t.Error("final convergence missing per-unit/per-type strata")
	}
	// No invalid (never-dispatched) outcome may leak into the aggregates.
	if n := rep.Counts[Outcome(0)]; n != 0 {
		t.Errorf("%d zero-outcome results leaked into the report", n)
	}
}

// Observe-only mode: a margin without StopOnConverge runs the full budget
// but still evaluates and reports convergence.
func TestStopConfigObserveOnly(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Stop = StopConfig{TargetMargin: 0.5, MinPerClass: 10}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != cfg.Flips {
		t.Fatalf("observe-only campaign stopped early: %d/%d", rep.Total, cfg.Flips)
	}
	if rep.Convergence == nil {
		t.Fatal("observe-only campaign carries no convergence evaluation")
	}
}

// Fixed-N campaigns must not change at all: no convergence block in the
// report, and the JSON serialization byte-identical to a config that has
// never heard of StopConfig.
func TestFixedNReportUnchanged(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Workers = 2
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Convergence != nil {
		t.Fatal("fixed-N report grew a convergence block")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("convergence")) {
		t.Error("fixed-N report JSON mentions convergence")
	}
	if strings.Contains(rep.DetailedString(), "convergence") {
		t.Error("fixed-N DetailedString mentions convergence")
	}
}

// Adaptive campaigns emit JSONL convergence events: one per class margin
// crossing plus the stop decision, all from evaluations over settled counts,
// so the stop event's n is the report's total. The progress view carries the
// newest of those evaluations. The report drops whatever finished past the
// converged prefix, so the injections workers ran (Metrics) may exceed its
// total — but not for a lone worker, which settles each job under the pool's
// lock before it takes the next; with more workers, by at most the rest of
// the budget, as a slow job can hold the prefix back while others finish
// later jobs.
func TestAdaptiveConvergenceEventsAndProgress(t *testing.T) {
	var rep *Report
	for _, workers := range []int{1, 2, 4} {
		var buf bytes.Buffer
		cfg := fastCampaignConfig()
		cfg.Flips = 6000
		cfg.Workers = workers
		// A margin some 700 injections reach: the campaign outlasts many ticks.
		cfg.Stop = StopConfig{TargetMargin: 0.05, MinPerClass: 25, StopOnConverge: true}
		cfg.Obs.Live = new(Live)
		cfg.Obs.Trace = obs.NewTraceSink(&buf, obs.TraceOptions{Sample: 1 << 30}) // mute injection events
		var err error
		if rep, err = RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		if c := cfg.Obs.Live.Progress().Convergence; c != rep.Convergence {
			t.Errorf("workers=%d: the handle's convergence is %+v, want the report's final evaluation", workers, c)
		}
		// p6lite is scalar: a job is one injection.
		ran, most := int(rep.Metrics.Injections), cfg.Flips
		if workers == 1 {
			most = rep.Total
		}
		if ran < rep.Total || ran > most {
			t.Errorf("workers=%d: ran %d injections for a report of %d; want within [%d, %d]",
				workers, ran, rep.Total, rep.Total, most)
		}
		var stops, classEvents int
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" {
				continue
			}
			var ev struct {
				Kind  string `json:"convergence"`
				Class string `json:"class"`
				N     int64  `json:"n"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad trace line %q: %v", line, err)
			}
			switch ev.Kind {
			case "stop":
				stops++
				if ev.N != int64(rep.Total) {
					t.Errorf("workers=%d: stop event at n=%d, report total %d", workers, ev.N, rep.Total)
				}
			case "class_converged":
				classEvents++
			}
		}
		if stops != 1 {
			t.Errorf("workers=%d: want exactly one stop event, got %d", workers, stops)
		}
		if classEvents == 0 {
			t.Errorf("workers=%d: no class_converged events recorded", workers)
		}
	}
	// The rendered progress line advertises the margin state.
	p := Progress{Convergence: rep.Convergence, Total: rep.Total, Done: rep.Total}
	if line := p.Line(); !strings.Contains(line, "ci ok") {
		t.Errorf("converged progress line missing ci state: %q", line)
	}
	p.Convergence = (stats.StopRule{TargetMargin: 0.01}).Eval([]string{"sdc"}, nil, 10)
	if line := p.Line(); !strings.Contains(line, "ci sdc") {
		t.Errorf("outstanding-margin progress line missing widest class: %q", line)
	}
}

// A uniform StopOnConverge campaign stops at the smallest prefix of its
// dispatch order that converges, whatever the worker count: the report and
// the convergence events repeat byte for byte across workers {1, 2, 4, 8},
// and one job fewer would not have converged.
func TestUniformStopIsSmallestConvergedPrefix(t *testing.T) {
	for _, backend := range []string{"p6lite", "awan"} {
		t.Run(backend, func(t *testing.T) {
			var wantReport, wantEvents string
			for _, workers := range []int{1, 2, 4, 8} {
				var buf bytes.Buffer
				cfg := goldenBase(backend)
				uniformStop(backend, &cfg)
				cfg.Workers = workers
				cfg.Obs.Trace = obs.NewTraceSink(&buf, obs.TraceOptions{Sample: 1 << 30}) // mute injection events
				rep, err := RunCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				events := convergenceLines(t, buf.Bytes())
				if workers == 1 {
					wantReport, wantEvents = string(data), events
					checkSmallestPrefix(t, cfg, rep)
					continue
				}
				if string(data) != wantReport {
					t.Errorf("workers=%d: report differs from workers=1:\n%s\nwant\n%s", workers, data, wantReport)
				}
				if events != wantEvents {
					t.Errorf("workers=%d: convergence events differ from workers=1:\n%s\nwant\n%s", workers, events, wantEvents)
				}
			}
		})
	}
}

// convergenceLines returns a trace's convergence events, one per line, with
// any timestamp stripped.
func convergenceLines(t *testing.T, trace []byte) string {
	t.Helper()
	var out []string
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"convergence":`)) {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		delete(ev, "ts")
		b, _ := json.Marshal(ev)
		out = append(out, string(b))
	}
	if len(out) == 0 {
		t.Fatal("no convergence events recorded")
	}
	return strings.Join(out, "\n")
}

// checkSmallestPrefix replays the campaign's dispatch plan over the kept
// results: the report must be exactly a prefix of whole jobs, that prefix
// converged, and the prefix one job shorter not.
func checkSmallestPrefix(t *testing.T, cfg CampaignConfig, rep *Report) {
	t.Helper()
	if rep.Total >= cfg.Flips || !rep.Convergence.Converged {
		t.Fatalf("ran %d of %d flips, converged=%v; want an early stop", rep.Total, cfg.Flips, rep.Convergence.Converged)
	}
	r, err := NewRunner(cfg.Runner)
	if err != nil {
		t.Fatal(err)
	}
	bits := SampleCampaignBits(r.DB(), cfg.Seed, cfg.Flips, cfg.Filter)
	byBit := make(map[int]Outcome, len(rep.Results))
	for _, res := range rep.Results {
		byBit[res.Bit] = res.Outcome
	}
	prefix := Report{Counts: make(map[Outcome]int)}
	var before *Report
	for _, batch := range planBatches(bits, r.Backend().Phases(), r.BatchSize()) {
		if prefix.Total == rep.Total {
			break
		}
		before = &Report{Total: prefix.Total, Counts: maps.Clone(prefix.Counts)}
		for _, pos := range batch {
			o, ok := byBit[bits[pos]]
			if !ok {
				t.Fatalf("bit %d of the converged prefix is not in the report", bits[pos])
			}
			prefix.Total++
			prefix.Counts[o]++
		}
	}
	if prefix.Total != rep.Total || !maps.Equal(prefix.Counts, rep.Counts) {
		t.Fatalf("report (%d, %v) is not a prefix of whole jobs (reached %d, %v)", rep.Total, rep.Counts, prefix.Total, prefix.Counts)
	}
	t.Logf("stopped at n=%d of %d; one job earlier n=%d", rep.Total, cfg.Flips, before.Total)
	if before.PooledConvergence(cfg.Stop.Rule()).Converged {
		t.Errorf("the prefix of %d injections, one job shorter than the report's %d, already converged", before.Total, rep.Total)
	}
}
