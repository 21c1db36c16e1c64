package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfi/internal/obs"
)

// leaseRun asks c for a run on a worker's behalf and returns the shards it
// was granted.
func leaseRun(t *testing.T, c *Coordinator, worker string) []ShardLease {
	t.Helper()
	l, status, err := c.lease(context.Background(), leaseRequest{Worker: worker, Run: true})
	if status != http.StatusOK {
		t.Fatalf("run lease for %s: status %d (%v)", worker, status, err)
	}
	var run []ShardLease
	for _, g := range l.run() {
		run = append(run, g.ShardLease)
	}
	return run
}

// runCompletion is the completion a worker sends for a run, with fabricated
// reports.
func runCompletion(worker string, run []ShardLease) completeRequest {
	req := completeRequest{Worker: worker, Shard: run[0].ID, Report: fakeWireFor(run[0])}
	for _, l := range run[1:] {
		req.Rest = append(req.Rest, shardReport{Shard: l.ID, Report: fakeWireFor(l)})
	}
	return req
}

func ids(run []ShardLease) []int {
	var out []int
	for _, l := range run {
		out = append(out, l.ID)
	}
	return out
}

// TestRunLeaseCounts pins what runs save one HTTP worker over the campaign
// TestGoldenLoneWorkerJournal pins the bytes of: its 20 shards are leased as
// runs of 10, 5, 3, 1 and 1 (half the pending shards, rounded up), so the
// worker sends 11 requests — five leases, five completions and the poll that
// learns the campaign is over — where a shard a lease took 41, and the
// journal is synced 6 times — the header and once per run — where a sync per
// shard took 21.
func TestRunLeaseCounts(t *testing.T) {
	spec := testSpec()
	spec.Flips, spec.ShardWorkers = 500, 1
	c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 25, LeaseTTL: time.Minute,
		Journal: filepath.Join(t.TempDir(), "journal.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	var requests int
	var runs []int
	handler := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		requests++
		if r.URL.Path == "/v1/complete" {
			var req completeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("completion body: %v", err)
			}
			runs = append(runs, len(req.run()))
		}
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	rep := runFleet(t, c, srv.URL, 1, WorkerConfig{})
	if rep.Total != spec.Flips {
		t.Fatalf("report covers %d of %d flips", rep.Total, spec.Flips)
	}
	mu.Lock()
	if want := []int{10, 5, 3, 1, 1}; requests != 11 || !slices.Equal(runs, want) {
		t.Errorf("%d requests, runs %v; want 11, %v", requests, runs, want)
	}
	mu.Unlock()
	var scrape bytes.Buffer
	c.writeMetrics(&scrape)
	if want := "sfi_coord_journal_syncs_total 6\n"; !strings.Contains(scrape.String(), want) {
		t.Errorf("/metrics does not say %q:\n%s", want, scrape.String())
	}
}

// TestRunLengthRule: a lease that asks for a run gets half the pending
// shards' even share among the workers heard from, rounded up; one that does
// not ask gets one shard; and a keyless campaign that stops on convergence
// leases one shard at a time whatever the request, while a planned one that
// stops at its epoch barriers leases runs.
func TestRunLengthRule(t *testing.T) {
	spec := testSpec()
	spec.Flips = 40
	c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := ids(leaseRun(t, c, "a")); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("a lone worker's first run %v, want half of 20 pending shards", got)
	}
	if l, _, _ := c.lease(context.Background(), leaseRequest{Worker: "b"}); l == nil || l.Shard.ID != 10 || len(l.Rest) != 0 {
		t.Fatalf("a lease that asks for no run got %+v, want shard 10 alone", l)
	}
	// 9 pending among two workers heard from: ⌈9/4⌉.
	if got := ids(leaseRun(t, c, "a")); !slices.Equal(got, []int{11, 12, 13}) {
		t.Fatalf("second run %v, want shards 11-13", got)
	}

	uniform := adaptiveSpec()
	neyman := stratifiedSpec()
	neyman.Stop = uniform.Stop
	for _, tc := range []struct {
		name string
		spec CampaignSpec
		one  bool
	}{{"uniform stop", uniform, true}, {"neyman stop", neyman, false}} {
		c, err := NewCoordinator(CoordConfig{Campaign: tc.spec, ShardSize: 5})
		if err != nil {
			t.Fatal(err)
		}
		if run := leaseRun(t, c, "w"); (len(run) == 1) != tc.one {
			t.Errorf("%s: a run lease got %v", tc.name, ids(run))
		}
		c.Close()
	}
}

// TestRunSettlesAfterOneSync: a run's shard lines are written together and
// synced once before any of its shards settles or the worker hears back; a
// journal that cannot take them fails the campaign with nothing of the run
// settled; a run delivered again is acknowledged shard by shard and changes
// nothing.
func TestRunSettlesAfterOneSync(t *testing.T) {
	spec := testSpec()
	spec.Flips = 40
	for _, broken := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 4, Journal: path})
		if err != nil {
			t.Fatal(err)
		}
		run := leaseRun(t, c, "w")
		if broken {
			c.journal.f.Close()
		}
		status, _ := c.complete(runCompletion("w", run))
		st := c.Status()
		if broken {
			if status != http.StatusInternalServerError || !st.Failed || st.States["completed"] != 0 {
				t.Errorf("unwritable journal: status %d, failed %v, %d shards completed; want 500, a failed campaign, none",
					status, st.Failed, st.States["completed"])
			}
			c.Close()
			continue
		}
		if status != http.StatusOK || st.States["completed"] != len(run) || c.journal.syncs != 2 {
			t.Fatalf("run of %d: status %d, %d shards completed, %d syncs; want 200, all, the header's and one",
				len(run), status, st.States["completed"], c.journal.syncs)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ledger := ledgerOf(c)
		if status, _ := c.complete(runCompletion("w", run)); status != http.StatusOK {
			t.Fatalf("re-delivered run: status %d", status)
		}
		after, _ := os.ReadFile(path)
		if !bytes.Equal(before, after) || !reflect.DeepEqual(ledgerOf(c), ledger) || c.journal.syncs != 2 {
			t.Errorf("a re-delivered run moved the journal or the ledger")
		}
		if _, lines := journalLines(t, path, `{"shard":`); lines != len(run) {
			t.Errorf("journal holds %d shard lines for a run of %d", lines, len(run))
		}
		c.Close()
	}
}

// TestHeartbeatHoldsTheRun: a heartbeat that names the running shard extends
// every shard of its worker's run, and a fail gives the whole run back.
func TestHeartbeatHoldsTheRun(t *testing.T) {
	spec := testSpec()
	spec.Flips = 40
	c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 4, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := leaseRun(t, c, "w")
	if status, err := c.heartbeat(heartbeatRequest{Worker: "w", Shard: run[1].ID, Metrics: &obs.Snapshot{Injections: 2}}); status != http.StatusOK {
		t.Fatalf("heartbeat: status %d (%v)", status, err)
	}
	st := c.Status()
	for _, l := range run {
		if v := st.ShardsV[l.ID]; v.State != "heartbeating" || v.Worker != "w" {
			t.Errorf("shard %d of the run after a beat: %+v", l.ID, v)
		}
	}
	if live := st.ShardsV[run[1].ID].LiveInjections; live != 2 || st.Injections != 2 {
		t.Errorf("the beat's snapshot shows %d live on its shard, %d in the fleet; want 2 and 2", live, st.Injections)
	}
	if status, _ := c.fail(failRequest{Worker: "w", Shard: run[1].ID, Error: "boom"}); status != http.StatusOK {
		t.Fatalf("fail: status %d", status)
	}
	st = c.Status()
	if st.States["requeued"] != len(run) || st.Requeues != len(run) || st.Injections != 0 {
		t.Errorf("after a fail mid-run: states %v, %d requeues, %d live; want the %d shards requeued, nothing live",
			st.States, st.Requeues, st.Injections, len(run))
	}
}

// TestPostKeepsTheConnection: a worker's calls reuse one keep-alive
// connection whatever the reply holds — a heartbeat's document the caller
// does not read, a refusal's reason — because the body is read to its end
// before it is closed.
func TestPostKeepsTheConnection(t *testing.T) {
	spec := testSpec()
	spec.Flips = 8
	c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 4, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(c.Handler())
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	h := httpCoordinator{base: srv.URL, client: &http.Client{Transport: transport}}

	l, status, err := h.lease(context.Background(), leaseRequest{Worker: "w"})
	if status != http.StatusOK {
		t.Fatalf("lease: status %d (%v)", status, err)
	}
	for i := 0; i < 5; i++ {
		if status, err := h.heartbeat(heartbeatRequest{Worker: "w", Shard: l.Shard.ID}); status != http.StatusOK {
			t.Fatalf("heartbeat %d: status %d (%v)", i, status, err)
		}
	}
	refused := completeRequest{Worker: "w", Shard: 99, Report: fakeWire(4)}
	if status, _ := h.complete(refused); status != http.StatusBadRequest {
		t.Fatalf("completion of an unknown shard: status %d, want 400", status)
	}
	if status, err := h.heartbeat(heartbeatRequest{Worker: "w", Shard: l.Shard.ID}); status != http.StatusOK {
		t.Fatalf("heartbeat after the refusal: status %d (%v)", status, err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d connections for 8 calls, want one kept alive", n)
	}
}

// TestWorkerBeatsOverItsRun: a worker's heartbeats name the shard it is
// running and hold the rest of its run. One direct worker leases shards 0
// and 1 as a run under a 90 ms TTL, and its runner holds shard 1's last
// injection until the status shows shard 1's live count and shard 0 still
// held by a beat: shard 0, which finished long before, outlives its TTL
// only because the beats over shard 1 extend it, and nothing is requeued.
func TestWorkerBeatsOverItsRun(t *testing.T) {
	spec := testSpec()
	spec.Flips, spec.ShardWorkers, spec.KeepResults = 4*heldInjection/2, 1, false
	c, _ := startCoord(t, CoordConfig{Campaign: spec, ShardSize: heldInjection / 2,
		LeaseTTL: 90 * time.Millisecond, MaxAttempts: 100})
	gate := &injectionGate{open: func() bool {
		st := c.Status()
		return st.ShardsV[1].LiveInjections > 0 && st.ShardsV[0].State == "heartbeating"
	}}
	rep := runFleet(t, c, "", 1, WorkerConfig{NewRunner: gate.newRunner()})
	if !gate.opened.Load() {
		t.Error("no heartbeat over shard 1 reached the coordinator while shard 0 waited in the run")
	}
	if st := c.Status(); rep.Total != spec.Flips || st.Requeues != 0 {
		t.Errorf("report of %d injections with %d requeues, want %d and none", rep.Total, st.Requeues, spec.Flips)
	}
}
