package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/obs"
	"sfi/internal/stats"
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
	if st := c.Status(); !st.StoppedEarly || st.States["completed"] >= st.Shards || !reflect.DeepEqual(st.Convergence, decision) {
		t.Errorf("status does not show the early stop: done %d/%d, stopped_early %v, convergence %+v",
			st.States["completed"], st.Shards, st.StoppedEarly, st.Convergence)
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
	if st := c2.Status(); !st.StoppedEarly || !reflect.DeepEqual(st.Convergence, decision) {
		t.Errorf("replayed coordinator does not show the early stop: stopped_early %v, convergence %+v", st.StoppedEarly, st.Convergence)
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

// TestStatusShowsTheDecision: the status, /metrics and the progress line
// show the evaluation the stop rule decides on — the sealed counts, never a
// heartbeat snapshot. Two leases beat 12 injections each, which a
// heartbeat-fed view would call converged under a rule needing 20; the
// status shows n=0 and not converged until completions seal them, then the
// stop itself.
func TestStatusShowsTheDecision(t *testing.T) {
	spec := testSpec()
	spec.Stop = core.StopConfig{TargetMargin: 0.999, MinPerClass: 20, StopOnConverge: true}
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 12})

	var a, b leaseResponse
	for _, l := range []*leaseResponse{&a, &b} {
		if code := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, l); code != http.StatusOK {
			t.Fatalf("lease: status %d", code)
		}
		snap := obs.NewSnapshot()
		snap.Injections, snap.Outcomes["vanished"], snap.Outcomes["corrected"] = 12, 11, 1
		if code := rawPost(t, srv.URL+"/v1/heartbeat",
			heartbeatRequest{Worker: "w", Shard: l.Shard.ID, Metrics: snap}, nil); code != http.StatusOK {
			t.Fatalf("heartbeat: status %d", code)
		}
	}
	rule := spec.Stop.Rule()
	shows := func(label string, sealed int) *stats.Convergence {
		t.Helper()
		st := c.Status()
		want := (&core.Report{Total: sealed, Counts: map[core.Outcome]int{
			core.Vanished: sealed - sealed/12, core.Corrected: sealed / 12}}).PooledConvergence(rule)
		if !reflect.DeepEqual(st.Convergence, want) {
			t.Fatalf("%s: status shows %+v, want the sealed-counts evaluation %+v", label, st.Convergence, want)
		}
		if st.Injections != 24 {
			t.Errorf("%s: status counts %d live injections, want the 24 the fleet ran", label, st.Injections)
		}
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if gauge := fmt.Sprintf("sfi_converged %d\n", map[bool]int{false: 0, true: 1}[want.Converged]); !strings.Contains(string(body), gauge) {
			t.Errorf("%s: /metrics has no %q", label, gauge)
		}
		if line := progressLine(st); strings.Contains(line, "ci ok") != want.Converged {
			t.Errorf("%s: progress line %q, converged %v", label, line, want.Converged)
		}
		return st.Convergence
	}
	if shows("two heartbeats", 0).Converged {
		t.Fatal("heartbeat snapshots converged the evaluation")
	}
	complete := func(l leaseResponse) {
		t.Helper()
		if code := rawPost(t, srv.URL+"/v1/complete",
			completeRequest{Worker: "w", Shard: l.Shard.ID, Report: fakeWireFor(l.Shard)}, nil); code != http.StatusOK {
			t.Fatalf("complete: status %d", code)
		}
	}
	complete(a)
	if shows("one shard sealed", 12).Converged || c.Status().StoppedEarly {
		t.Fatal("12 sealed injections converged a rule needing 20")
	}
	complete(b)
	eval := shows("two shards sealed", 24)
	if st := c.Status(); !eval.Converged || !st.StoppedEarly || eval != c.StopDecision() {
		t.Fatalf("status %+v stopped_early %v, want the stop decision %+v", eval, st.StoppedEarly, c.StopDecision())
	}
}

// TestNeymanStatusShowsTheBarrier: a planned campaign decides at its epoch
// barriers over the sealed counts and sampling strata, so its status carries
// the per-stratum intervals, moves only when an epoch settles, and never
// shows a converged rule the coordinator has not stopped on.
func TestNeymanStatusShowsTheBarrier(t *testing.T) {
	for _, minPerClass := range []int{1, 2, 3} {
		t.Run(fmt.Sprint(minPerClass), func(t *testing.T) {
			cfg := fuzzCoordConfig(true, uint8(minPerClass), "")
			c, srv := startCoord(t, cfg)
			prev := c.Status()
			for {
				var l leaseResponse
				if code := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &l); code == http.StatusGone {
					break
				} else if code != http.StatusOK {
					t.Fatalf("lease: status %d", code)
				}
				if code := rawPost(t, srv.URL+"/v1/complete",
					completeRequest{Worker: "w", Shard: l.Shard.ID, Report: fakeWireFor(l.Shard)}, nil); code != http.StatusOK {
					t.Fatalf("complete: status %d", code)
				}
				st := c.Status()
				if len(st.Convergence.ByStratum) == 0 {
					t.Fatalf("after shard %d: status evaluation has no sampling strata: %+v", l.Shard.ID, st.Convergence)
				}
				if st.Convergence.Converged != st.StoppedEarly {
					t.Fatalf("after shard %d: status shows converged %v, stopped_early %v", l.Shard.ID, st.Convergence.Converged, st.StoppedEarly)
				}
				if st.StoppedEarly && st.Convergence != c.StopDecision() {
					t.Fatalf("after shard %d: status shows %+v, the coordinator stopped on %+v", l.Shard.ID, st.Convergence, c.StopDecision())
				}
				barrier := st.Allocation.Epochs != prev.Allocation.Epochs || st.StoppedEarly
				if !barrier && !reflect.DeepEqual(st.Convergence, prev.Convergence) {
					t.Fatalf("after shard %d: the evaluation moved within epoch %d", l.Shard.ID, st.Allocation.Epochs)
				}
				prev = st
			}
			if !prev.StoppedEarly {
				t.Errorf("min-per-class %d ran the whole budget: the rule never converged", minPerClass)
			}
		})
	}
}

// TestFleetProgressLine: ShowProgress draws the local progress line from one
// status read, with the shard ledger's counts after it — for a Neyman
// campaign with the widest sampling stratum, as a local Neyman run shows it —
// and returns once the campaign is over.
func TestFleetProgressLine(t *testing.T) {
	c, srv := startCoord(t, fuzzCoordConfig(true, 3, ""))
	line := progressLine(c.Status())
	for _, want := range []string{"0/24 (0.0%)", "  ci ", "  st ", " — shards 0/", " done, 0 leased, 0 requeued"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q lacks %q", line, want)
		}
	}
	var buf syncBuffer
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	c.ShowProgress(ctx, &buf, time.Millisecond)
	if drawn := string(buf.bytes()); !strings.HasPrefix(drawn, fmt.Sprintf("\r%-100s", line)) {
		t.Errorf("ShowProgress drew %q, want %q redrawn", drawn, line)
	}

	leaseAndComplete(t, srv.URL, -1)
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	go func() {
		c.ShowProgress(context.Background(), io.Discard, time.Hour)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("ShowProgress kept drawing a finished campaign")
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
	// A heartbeat snapshot feeds the live fleet view, not the evaluation.
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
	if err := json.Unmarshal(status.Convergence["total"], &total); err != nil || total != 0 {
		t.Errorf("convergence total = %d (%v), want the sealed 0, not the heartbeat-reported 5", total, err)
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

// orderShards is a keyless campaign of 12 shards of 10 injections whose
// reports, indexed by shard, mix outcomes unevenly: the first four are
// spread over three classes, the rest all vanished. Any two of the uniform
// shards converge the rule, the prefix only once enough of it is uniform.
func orderShards() (CoordConfig, []*WireReport) {
	spec := testSpec()
	spec.Flips = 120
	spec.Stop = core.StopConfig{TargetMargin: 0.35, MinPerClass: 20, StopOnConverge: true}
	reports := make([]*WireReport, 12)
	for i := range reports {
		counts := map[string]int{"vanished": 10}
		if i < 4 {
			counts = map[string]int{"vanished": 4, "corrected": 3 - i%2, "sdc": 3 + i%2}
		}
		reports[i] = &WireReport{Total: 10, Counts: counts, ByStratum: map[string]map[string]int{"FXU/FUNC": counts}}
	}
	return CoordConfig{Campaign: spec, ShardSize: 10}, reports
}

// pooledOf evaluates the keyless rule over the pooled counts of some shards.
func pooledOf(rule stats.StopRule, reports []*WireReport, ids ...int) *stats.Convergence {
	r := core.Report{Counts: make(map[core.Outcome]int)}
	for _, id := range ids {
		rep, _ := reports[id].Report()
		r.Merge(rep)
	}
	return r.PooledConvergence(rule)
}

// finishInOrder leases every shard a direct-call coordinator hands out, then
// completes them in order (shard ids; the ones it did not lease are
// skipped) until the campaign is over, and returns Wait's report as JSON.
func finishInOrder(t *testing.T, c *Coordinator, reports []*WireReport, order []int) []byte {
	t.Helper()
	leased := make(map[int]bool)
	for {
		l, code, err := c.lease(context.Background(), leaseRequest{Worker: "w"})
		if code != http.StatusOK {
			if err != nil || code != http.StatusNoContent && code != http.StatusGone {
				t.Fatalf("lease: status %d, %v", code, err)
			}
			break
		}
		leased[l.Shard.ID] = true
	}
	for _, id := range order {
		if !leased[id] {
			continue
		}
		code, err := c.complete(completeRequest{Worker: "w", Shard: id, Report: reports[id]})
		if code == http.StatusGone {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("complete shard %d: status %d, %v", id, code, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestUniformStopIgnoresCompletionOrder: a keyless campaign stops at the
// smallest converged prefix of its shards, whatever order they complete in.
// Over 60 seeded completion orders — most of which complete a converging
// set of uniform shards before the prefix converges — Wait's report, the
// stop decision and the journal's header and stop line are byte-identical,
// and the report covers exactly the prefix. A coordinator restarted over any
// of those journals, cut after any line, finishes to the same report.
func TestUniformStopIgnoresCompletionOrder(t *testing.T) {
	cfg, reports := orderShards()
	rule := cfg.Campaign.Stop.Rule()
	var k int
	for prefix := []int{0}; k == 0 && len(prefix) < len(reports); prefix = append(prefix, len(prefix)) {
		if pooledOf(rule, reports, prefix...).Converged {
			k = len(prefix)
		}
	}
	if k <= 4 || k == len(reports) || !pooledOf(rule, reports, 4, 5).Converged {
		t.Fatalf("the prefix first converges at %d shards: want a set of two uniform shards converged long before", k)
	}

	var wantReport, wantLines []byte
	var wantStop *stats.Convergence
	for seed := uint64(0); seed < 60; seed++ {
		order := rand.New(rand.NewPCG(seed, 0)).Perm(len(reports))
		cfg.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
		c, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		report := finishInOrder(t, c, reports, order)
		stop := c.StopDecision()
		c.Close()
		lines, _ := journalLines(t, cfg.Journal, `{"v":`, `{"shard":-1,`)
		if seed == 0 {
			wantReport, wantLines, wantStop = report, lines, stop
			var rep struct{ Total int }
			if err := json.Unmarshal(report, &rep); err != nil || rep.Total != 10*k || stop == nil || stop.Total != int64(10*k) {
				t.Fatalf("order %v: report of %d injections (%v), stop %+v; want the %d-shard prefix", order, rep.Total, err, stop, k)
			}
		}
		if !bytes.Equal(report, wantReport) || !reflect.DeepEqual(stop, wantStop) || !bytes.Equal(lines, wantLines) {
			t.Fatalf("order %v: report, stop decision or journal differ from order 0's:\n%s\n%+v\n%s\nwant\n%s\n%+v\n%s",
				order, report, stop, lines, wantReport, wantStop, wantLines)
		}

		journal, err := os.ReadFile(cfg.Journal)
		if err != nil {
			t.Fatal(err)
		}
		cut := bytes.SplitAfter(journal, []byte("\n"))
		for n := 1; n < len(cut); n++ {
			restart := cfg
			restart.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(restart.Journal, bytes.Join(cut[:n], nil), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewCoordinator(restart)
			if err != nil {
				t.Fatalf("order %v, cut after line %d: %v", order, n, err)
			}
			again := finishInOrder(t, c, reports, order)
			c.Close()
			if !bytes.Equal(again, wantReport) {
				t.Fatalf("order %v, cut after line %d: finished to\n%s\nwant\n%s", order, n, again, wantReport)
			}
		}
	}
}

// shardLines returns the journal lines of some shards' reports.
func shardLines(ids []int, reports []*WireReport) []journalEntry {
	var out []journalEntry
	for _, id := range ids {
		out = append(out, journalEntry{Shard: id, Report: reports[id]})
	}
	return out
}

// TestRacedStopLineRefused: a uniform journal whose stop line is not where
// the shards journaled before it fold to — it ends no prefix of them, or a
// longer one than the smallest that converges — was written by a
// coordinator that stopped on whichever shards had completed. Resuming it is
// refused, naming the journal, rather than merging a report no coordinator
// now produces.
func TestRacedStopLineRefused(t *testing.T) {
	cfg, reports := orderShards()
	cfg.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	header, err := os.ReadFile(cfg.Journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, sealed := range [][]int{{4, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
		stop := pooledOf(cfg.Campaign.Stop.Rule(), reports, sealed...)
		if !stop.Converged {
			t.Fatalf("shards %v do not converge: no coordinator stopped on them", sealed)
		}
		journal := bytes.Clone(header)
		for _, e := range append(shardLines(sealed, reports), journalEntry{Shard: journalShardStop, Stop: stop}) {
			line, _ := json.Marshal(e)
			journal = append(append(journal, line...), '\n')
		}
		if err := os.WriteFile(cfg.Journal, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(cfg)
		if err == nil {
			c.Close()
			t.Fatalf("resumed a journal that stopped on shards %v at n=%d", sealed, stop.Total)
		}
		if !strings.Contains(err.Error(), cfg.Journal) {
			t.Errorf("refusal %q does not name the journal", err)
		}
	}
}
