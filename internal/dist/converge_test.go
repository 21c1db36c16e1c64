package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/obs"
)

// adaptiveSpec is testSpec with a loose stopping rule: convergence is
// guaranteed well before the flip budget, so a distributed run must stop
// early.
func adaptiveSpec() CampaignSpec {
	spec := testSpec()
	spec.Flips = 400
	spec.KeepResults = false
	spec.Stop = core.StopConfig{
		TargetMargin:   0.35,
		Confidence:     0.95,
		MinPerClass:    20,
		StopOnConverge: true,
	}
	return spec
}

// TestAdaptiveLoopbackEarlyStop is the distributed half of the PR 7
// acceptance gate: a 4-worker loopback campaign with a stopping rule must
// seal the ledger before the budget is exhausted, cancel the outstanding
// leases (workers exit cleanly through the 410 path), and return a merged
// report that covers exactly the sealed population the decision was made
// on. A coordinator restarted over the journal must replay to the very
// same stop decision without running anything.
func TestAdaptiveLoopbackEarlyStop(t *testing.T) {
	spec := adaptiveSpec()
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg := CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal}
	c, srv := startCoord(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workerErr := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			workerErr <- RunWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				ID:          fmt.Sprintf("w%d", i),
				PollEvery:   10 * time.Millisecond,
			})
		}(i)
	}
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := <-workerErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	if rep.Total >= spec.Flips {
		t.Fatalf("adaptive campaign ran the whole budget: %d/%d", rep.Total, spec.Flips)
	}
	if rep.Total%cfg.ShardSize != 0 {
		t.Errorf("merged total %d is not whole shards of %d", rep.Total, cfg.ShardSize)
	}
	if rep.Convergence == nil || !rep.Convergence.Converged {
		t.Fatalf("merged report not converged: %+v", rep.Convergence)
	}
	for _, ci := range rep.Convergence.Classes {
		if ci.Width > spec.Stop.TargetMargin {
			t.Errorf("class %s width %.4f above margin %.2f", ci.Class, ci.Width, spec.Stop.TargetMargin)
		}
	}
	decision := c.StopDecision()
	if decision == nil || !decision.Converged {
		t.Fatalf("no converged stop decision recorded: %+v", decision)
	}
	// The decision basis (sealed completed-shard counts) is exactly the
	// merged report's population.
	if decision.Total != int64(rep.Total) {
		t.Errorf("decision over n=%d, merged report total %d", decision.Total, rep.Total)
	}
	if p := c.Progress(); !p.StoppedEarly || p.Done >= len(c.shards) {
		t.Errorf("progress does not show an early stop: done %d/%d, stopped_early %v",
			p.Done, p.Shards, p.StoppedEarly)
	}

	// Restart over the journal: the recorded stop decision is honored
	// verbatim — the campaign is immediately finished, no shard reruns, and
	// the merged report matches.
	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	rep2, err := c2.Wait(ctx2)
	if err != nil {
		t.Fatalf("replayed coordinator did not finish immediately: %v", err)
	}
	if rep2.Total != rep.Total {
		t.Errorf("replayed total %d, original %d", rep2.Total, rep.Total)
	}
	if !reflect.DeepEqual(rep2.Counts, rep.Counts) {
		t.Errorf("replayed counts differ:\nreplay:   %v\noriginal: %v", rep2.Counts, rep.Counts)
	}
	if d2 := c2.StopDecision(); !reflect.DeepEqual(d2, decision) {
		t.Errorf("replayed stop decision differs:\nreplay:   %+v\noriginal: %+v", d2, decision)
	}
	if p := c2.Progress(); !p.StoppedEarly {
		t.Error("replayed coordinator does not report the early stop")
	}
}

// TestConvergenceSealsLedger drives the wire protocol by hand: once a
// completion trips the stop rule, outstanding leases are dead — their
// heartbeats and completions answer 410 Gone and no late report reopens
// the ledger.
func TestConvergenceSealsLedger(t *testing.T) {
	spec := testSpec()
	spec.Stop = core.StopConfig{TargetMargin: 0.999, MinPerClass: 1, StopOnConverge: true}
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 12})

	var l1, l2 leaseResponse
	if code := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "a"}, &l1); code != http.StatusOK {
		t.Fatalf("lease 1: status %d", code)
	}
	if code := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "b"}, &l2); code != http.StatusOK {
		t.Fatalf("lease 2: status %d", code)
	}
	if !l1.Campaign.Stop.Enabled() {
		t.Fatal("leased campaign spec does not carry the stopping rule")
	}
	size := l1.Shard.Hi - l1.Shard.Lo
	code := rawPost(t, srv.URL+"/v1/complete",
		completeRequest{Worker: "a", Shard: l1.Shard.ID, Report: fakeWire(size)}, nil)
	if code != http.StatusOK {
		t.Fatalf("first complete: status %d", code)
	}
	// With every class inside a 0.999 margin at n=12, that single sealed
	// shard converges the campaign.
	if d := c.StopDecision(); d == nil || !d.Converged || d.Total != int64(size) {
		t.Fatalf("completion did not trip the stop rule: %+v", d)
	}
	if code := rawPost(t, srv.URL+"/v1/heartbeat",
		heartbeatRequest{Worker: "b", Shard: l2.Shard.ID}, nil); code != http.StatusGone {
		t.Errorf("heartbeat after stop: status %d, want 410", code)
	}
	if code := rawPost(t, srv.URL+"/v1/complete",
		completeRequest{Worker: "b", Shard: l2.Shard.ID, Report: fakeWire(l2.Shard.Hi - l2.Shard.Lo)}, nil); code != http.StatusGone {
		t.Errorf("late complete after stop: status %d, want 410", code)
	}
	if code := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "c"}, nil); code != http.StatusGone {
		t.Errorf("lease after stop: status %d, want 410", code)
	}
	rep, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != size {
		t.Errorf("merged report covers %d injections, want the one sealed shard (%d)", rep.Total, size)
	}
}

// TestStatusConvergenceSchema locks the /v1/status convergence block's
// JSON surface: dashboards key on these names, so the exact key sets are
// part of the wire contract.
func TestStatusConvergenceSchema(t *testing.T) {
	spec := testSpec()
	spec.Stop = core.StopConfig{TargetMargin: 0.05, StopOnConverge: true}
	_, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 12})

	var lease leaseResponse
	if code := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &lease); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	// A heartbeat snapshot feeds the live fleet view the status block reads.
	snap := obs.NewSnapshot()
	snap.Injections = 5
	snap.Outcomes = map[string]uint64{"vanished": 4, "sdc": 1}
	if code := rawPost(t, srv.URL+"/v1/heartbeat",
		heartbeatRequest{Worker: "w", Shard: lease.Shard.ID, Metrics: snap}, nil); code != http.StatusOK {
		t.Fatalf("heartbeat: status %d", code)
	}

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Convergence  map[string]json.RawMessage `json:"convergence"`
		StoppedEarly bool                       `json:"stopped_early"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Convergence == nil {
		t.Fatal("status has no convergence block")
	}
	if status.StoppedEarly {
		t.Error("status claims an early stop that never happened")
	}
	wantTop := []string{"classes", "confidence", "converged", "min_per_class",
		"target_margin", "total", "widest_class", "widest_width"}
	if got := sortedKeys(status.Convergence); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("convergence keys:\ngot  %v\nwant %v", got, wantTop)
	}
	var total int64
	if err := json.Unmarshal(status.Convergence["total"], &total); err != nil || total != 5 {
		t.Errorf("convergence total = %d (%v), want the heartbeat-reported 5", total, err)
	}
	var classes []map[string]json.RawMessage
	if err := json.Unmarshal(status.Convergence["classes"], &classes); err != nil {
		t.Fatal(err)
	}
	if len(classes) == 0 {
		t.Fatal("convergence block tracks no classes")
	}
	wantClass := []string{"class", "converged", "fraction", "hi", "k", "lo", "n", "width"}
	for _, ci := range classes {
		if got := sortedKeys(ci); !reflect.DeepEqual(got, wantClass) {
			t.Fatalf("class interval keys:\ngot  %v\nwant %v", got, wantClass)
		}
	}

	// The Prometheus view of the same evaluation rides /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf [1 << 16]byte
	n, _ := mresp.Body.Read(buf[:])
	if text := string(buf[:n]); !containsAll(text,
		"sfi_ci_target_margin", "sfi_converged", "sfi_ci_width{class=") {
		t.Errorf("/metrics missing convergence gauges:\n%s", text)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
