package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sfi/internal/core"
)

// stratifiedSpec is testSpec under Neyman allocation: small enough to run
// real models in tests, with enough flips for several allocation epochs.
func stratifiedSpec() CampaignSpec {
	spec := testSpec()
	spec.Flips = 120
	spec.KeepResults = false
	spec.Alloc = core.AllocConfig{Mode: core.AllocNeyman, Epochs: 3}
	return spec
}

// runStratifiedFleet drives a distributed campaign to its end with n workers
// — over HTTP to url, or calling c directly when url is "" — and returns the
// merged report.
func runStratifiedFleet(t *testing.T, c *Coordinator, url string, n int) *core.Report {
	t.Helper()
	return runFleet(t, c, url, n, WorkerConfig{})
}

// runFleet is runStratifiedFleet with every worker configured as base, but
// for its coordinator, ID and poll period.
func runFleet(t *testing.T, c *Coordinator, url string, n int, base WorkerConfig) *core.Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	workerErr := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			cfg := base
			cfg.Coordinator = url
			cfg.ID = fmt.Sprintf("w%d", i)
			cfg.PollEvery = 10 * time.Millisecond
			if url == "" {
				workerErr <- c.RunWorker(ctx, cfg)
			} else {
				workerErr <- RunWorker(ctx, cfg)
			}
		}(i)
	}
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-workerErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	return rep
}

// TestStratifiedLoopbackEquivalence: a distributed stratified campaign —
// shards planned per allocation epoch, executed by allocation-agnostic
// workers, re-allocated over sealed counts — must reproduce the local
// stratified executor's report exactly: same totals, same per-stratum
// draws, same outcome mix.
func TestStratifiedLoopbackEquivalence(t *testing.T) {
	spec := stratifiedSpec()
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})
	got := runStratifiedFleet(t, c, srv.URL, 3)

	local := core.CampaignConfig{
		Runner:  spec.Runner,
		Seed:    spec.Seed,
		Flips:   spec.Flips,
		Workers: 2,
		Alloc:   spec.Alloc,
	}
	want, err := core.RunCampaign(local)
	if err != nil {
		t.Fatal(err)
	}

	if got.Total != spec.Flips || got.Total != want.Total {
		t.Fatalf("total: distributed %d, local stratified %d, budget %d", got.Total, want.Total, spec.Flips)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("outcome counts differ:\ndist:  %v\nlocal: %v", got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(got.ByStratum, want.ByStratum) {
		t.Errorf("per-stratum counts differ:\ndist:  %v\nlocal: %v", got.ByStratum, want.ByStratum)
	}
	if !reflect.DeepEqual(got.ByUnit, want.ByUnit) {
		t.Errorf("per-unit counts differ:\ndist:  %v\nlocal: %v", got.ByUnit, want.ByUnit)
	}

	// The /v1/status allocation block reports the settled budget state.
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Allocation *struct {
			Mode       string `json:"mode"`
			Epochs     int    `json:"epochs_planned"`
			BudgetLeft int    `json:"budget_left"`
			Strata     []struct {
				Stratum    string `json:"stratum"`
				Population int    `json:"population"`
				Planned    int    `json:"planned"`
				Sealed     int64  `json:"sealed"`
			} `json:"strata"`
		} `json:"allocation"`
		Shards []struct {
			Stratum string `json:"stratum"`
		} `json:"shard_states"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	av := status.Allocation
	if av == nil {
		t.Fatal("status has no allocation block")
	}
	if av.Mode != core.AllocNeyman || av.Epochs != spec.Alloc.Epochs || av.BudgetLeft != 0 {
		t.Errorf("allocation block mode=%q epochs=%d budget_left=%d, want neyman/%d/0",
			av.Mode, av.Epochs, av.BudgetLeft, spec.Alloc.Epochs)
	}
	planned := 0
	for _, row := range av.Strata {
		if row.Population <= 0 {
			t.Errorf("stratum %s has population %d", row.Stratum, row.Population)
		}
		if row.Planned > row.Population {
			t.Errorf("stratum %s planned %d past population %d", row.Stratum, row.Planned, row.Population)
		}
		if row.Sealed != int64(row.Planned) {
			t.Errorf("stratum %s sealed %d of %d planned after completion", row.Stratum, row.Sealed, row.Planned)
		}
		planned += row.Planned
	}
	if planned != spec.Flips {
		t.Errorf("planned %d injections across strata, want %d", planned, spec.Flips)
	}
	for _, sv := range status.Shards {
		if sv.Stratum == "" {
			t.Error("stratified shard view is missing its stratum")
			break
		}
	}
}

// TestStratifiedJournalReplay: a stratified adaptive campaign journals
// every re-allocation decision; a coordinator restarted over the journal
// must replay to the identical merged report and stop decision without
// re-running anything. The loose margin guarantees convergence — and so an
// early stop — after at least one mid-campaign re-allocation epoch.
func TestStratifiedJournalReplay(t *testing.T) {
	spec := stratifiedSpec()
	spec.Flips = 180
	spec.Alloc.Epochs = 6
	spec.Stop = core.StopConfig{
		TargetMargin:   0.9,
		MinPerClass:    3,
		StopOnConverge: true,
	}
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg := CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal}
	c, srv := startCoord(t, cfg)
	rep := runStratifiedFleet(t, c, srv.URL, 3)

	decision := c.StopDecision()
	if decision == nil || !decision.Converged {
		t.Fatalf("stratified campaign did not stop on convergence: %+v", decision)
	}
	if rep.Total >= spec.Flips {
		t.Fatalf("adaptive stratified campaign spent the whole budget: %d/%d", rep.Total, spec.Flips)
	}
	if rep.Convergence == nil || !rep.Convergence.Converged {
		t.Fatalf("merged report not converged: %+v", rep.Convergence)
	}

	// The journal must record the allocation epochs themselves — at least
	// two, i.e. at least one re-allocation decided mid-campaign over sealed
	// counts — so replay re-plans identically.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	allocs, stops := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch e.Shard {
		case journalShardAlloc:
			allocs++
			if e.Alloc == nil || len(e.Alloc.Shards) == 0 {
				t.Fatalf("allocation record without planned shards: %q", line)
			}
			for _, l := range e.Alloc.Shards {
				if l.Stratum == "" {
					t.Fatalf("allocation-planned lease without a stratum: %+v", l)
				}
			}
		case journalShardStop:
			stops++
		}
	}
	if allocs < 2 {
		t.Fatalf("journal records %d allocation epochs, want >= 2 (a mid-campaign re-allocation)", allocs)
	}
	if stops != 1 {
		t.Fatalf("journal records %d stop decisions, want 1", stops)
	}

	// Restart over the journal: no workers, identical report and decision.
	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep2, err := c2.Wait(ctx)
	if err != nil {
		t.Fatalf("replayed coordinator did not finish immediately: %v", err)
	}
	if rep2.Total != rep.Total {
		t.Errorf("replayed total %d, original %d", rep2.Total, rep.Total)
	}
	if !reflect.DeepEqual(rep2.Counts, rep.Counts) {
		t.Errorf("replayed counts differ:\nreplay:   %v\noriginal: %v", rep2.Counts, rep.Counts)
	}
	if !reflect.DeepEqual(rep2.ByStratum, rep.ByStratum) {
		t.Errorf("replayed per-stratum counts differ:\nreplay:   %v\noriginal: %v", rep2.ByStratum, rep.ByStratum)
	}
	if d2 := c2.StopDecision(); !reflect.DeepEqual(d2, decision) {
		t.Errorf("replayed stop decision differs:\nreplay:   %+v\noriginal: %+v", d2, decision)
	}
	if st := c2.Status(); !st.StoppedEarly || !reflect.DeepEqual(st.Convergence, decision) {
		t.Errorf("replayed coordinator does not show the early stop: stopped_early %v, convergence %+v", st.StoppedEarly, st.Convergence)
	}
}

// TestJournalBindsAllocPolicy: a journal written under one allocation
// policy must refuse resumption under another — replaying stratum shards
// into a uniform plan (or vice versa) would corrupt the ledger.
func TestJournalBindsAllocPolicy(t *testing.T) {
	spec := stratifiedSpec()
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	uniform := spec
	uniform.Alloc = core.AllocConfig{}
	if _, err := NewCoordinator(CoordConfig{Campaign: uniform, ShardSize: 10, Journal: journal}); err == nil {
		t.Error("uniform coordinator accepted a stratified campaign's journal")
	}
}

// TestCompleteRejectsMisattributedReport: a shard report's per-stratum rows
// feed the allocator and the stratum intervals, so a report must attribute
// its injections to its lease's stratum — all of them, and to no other — and
// a keyless shard's report to none. Anything else is refused with 400, and a
// journal holding such a line refuses to replay.
func TestCompleteRejectsMisattributedReport(t *testing.T) {
	for _, mode := range ledgerModes {
		t.Run(mode.name, func(t *testing.T) {
			spec := testSpec()
			spec.Alloc = mode.alloc
			journal := filepath.Join(t.TempDir(), "journal.jsonl")
			cfg := CoordConfig{Campaign: spec, ShardSize: 12, Journal: journal}
			c, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			var l leaseResponse
			if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &l); s != http.StatusOK {
				t.Fatalf("lease: status %d", s)
			}
			good := fakeWireFor(l.Shard)
			other := "NOSUCH/FUNC"
			size := l.Shard.Hi - l.Shard.Lo
			bad := map[string]map[string]map[string]int{
				"a stratum on a keyless shard": {other: good.Counts},
			}
			if key := l.Shard.Stratum; key != "" {
				bad = map[string]map[string]map[string]int{
					"no stratum":       nil,
					"another stratum":  {other: good.Counts},
					"a second stratum": {key: good.Counts, other: {}},
					"a short row":      {key: {"vanished": size - 1}},
				}
			}
			for name, rows := range bad {
				w := *good
				w.ByStratum = rows
				if s := rawPost(t, srv.URL+"/v1/complete",
					completeRequest{Worker: "w", Shard: l.Shard.ID, Report: &w}, nil); s != http.StatusBadRequest {
					t.Errorf("report with %s: status %d, want 400", name, s)
				}
			}
			if done := c.Status().States["completed"]; done != 0 {
				t.Fatalf("%d shards done after only refused reports", done)
			}
			if s := rawPost(t, srv.URL+"/v1/complete",
				completeRequest{Worker: "w", Shard: l.Shard.ID, Report: good}, nil); s != http.StatusOK {
				t.Fatalf("well-attributed report: status %d", s)
			}
			c.Close()

			// The same defect in a journal line.
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			from, to := `"by_stratum":{"`+l.Shard.Stratum+`"`, `"by_stratum":{"`+other+`"`
			if l.Shard.Stratum == "" {
				from, to = `,"by_type":`, `,"by_stratum":{"`+other+`":{"vanished":11,"corrected":1}},"by_type":`
			}
			if !strings.Contains(string(data), from) {
				t.Fatalf("journal has no %s to damage:\n%s", from, data)
			}
			if err := os.WriteFile(journal, []byte(strings.Replace(string(data), from, to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			if c2, err := NewCoordinator(cfg); err == nil {
				c2.Close()
				t.Error("a journal line attributing a shard to the wrong stratum was replayed")
			}
			if err := os.WriteFile(journal, data, 0o644); err != nil {
				t.Fatal(err)
			}
			c3, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatalf("the undamaged journal no longer replays: %v", err)
			}
			c3.Close()
		})
	}
}
