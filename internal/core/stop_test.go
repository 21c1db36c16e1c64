package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

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

// monitorRunning reports whether any goroutine is in the convergence monitor.
func monitorRunning() bool {
	buf := make([]byte, 1<<16)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("core.watchConvergence"))
}

// Adaptive campaigns emit JSONL convergence events: one per class margin
// crossing plus the stop decision, and the progress view carries the live
// interval evaluation. The monitor that polls the estimator for those events
// runs only when there is a sink to write them to.
func TestAdaptiveConvergenceEventsAndProgress(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewTraceSink(&buf, obs.TraceOptions{Sample: 1 << 30}) // mute injection events
	cfg := fastCampaignConfig()
	cfg.Flips = 6000
	cfg.Workers = 2
	// A margin some 700 injections reach: the campaign outlasts many ticks.
	cfg.Stop = StopConfig{TargetMargin: 0.05, MinPerClass: 25, StopOnConverge: true}
	var sawConvergence, sawMonitor bool
	cfg.Obs.Progress = func(p Progress) {
		if p.Convergence != nil {
			sawConvergence = true
		}
		sawMonitor = sawMonitor || monitorRunning()
	}
	cfg.Obs.ProgressEvery = time.Millisecond
	// The detector finds a monitor when there is one...
	stop, done := make(chan struct{}), make(chan struct{})
	go watchConvergence(nil, nil, nil, false, stop, done)
	for !monitorRunning() {
		runtime.Gosched() // until it has started
	}
	close(stop)
	<-done
	// ...and a campaign with no sink never starts one.
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if sawMonitor {
		t.Error("no trace sink, and the convergence monitor was running")
	}
	cfg.Obs.Trace = sink
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sawConvergence {
		t.Error("no progress callback carried a convergence view")
	}
	if monitorRunning() {
		t.Error("the convergence monitor outlived its campaign")
	}
	var stops, classEvents int
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Kind  string `json:"convergence"`
			Class string `json:"class"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch ev.Kind {
		case "stop":
			stops++
		case "class_converged":
			classEvents++
		}
	}
	if stops != 1 {
		t.Errorf("want exactly one stop event, got %d", stops)
	}
	if classEvents == 0 {
		t.Error("no class_converged events recorded")
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
