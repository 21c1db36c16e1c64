package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/obs"
)

// testSpec is a real (model-executing) campaign small enough for tests.
func testSpec() CampaignSpec {
	rc := core.DefaultRunnerConfig()
	rc.AVP.Testcases = 6
	rc.AVP.BodyOps = 14
	return CampaignSpec{
		Runner:       rc,
		Seed:         7,
		Flips:        48,
		KeepResults:  true,
		ShardWorkers: 2,
	}
}

func startCoord(t *testing.T, cfg CoordConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

// rawPost speaks the wire protocol directly — used to play misbehaving or
// dying workers that the real RunWorker loop would never be.
func rawPost(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// fakeWire fabricates a valid wire report for a size-injection keyless
// shard (protocol tests don't need to run the model): every injection in
// one cell of the cross.
func fakeWire(size int) *WireReport {
	counts := map[string]int{"vanished": size - 1, "corrected": 1}
	return &WireReport{
		Total:     size,
		Counts:    counts,
		ByStratum: map[string]map[string]int{"FXU/FUNC": counts},
	}
}

// fakeWireFor is fakeWire for one lease: a stratum shard's report attributes
// its injections to the lease's stratum.
func fakeWireFor(l ShardLease) *WireReport {
	w := fakeWire(l.Hi - l.Lo)
	if l.Stratum != "" {
		w.ByStratum = map[string]map[string]int{l.Stratum: w.Counts}
	}
	return w
}

// ledgerModes are the two epoch sources a coordinator's one ledger runs:
// the ledger's lease, requeue, completion and journal behaviour must not
// depend on which one planned its shards.
var ledgerModes = []struct {
	name  string
	alloc core.AllocConfig
}{
	{"uniform", core.AllocConfig{}},
	{"neyman", core.AllocConfig{Mode: core.AllocNeyman, Epochs: 2}},
}

// leaseAndComplete plays an honest worker by hand: it leases up to n shards
// (n < 0: until the campaign is over) and completes each with a fabricated
// report, returning the leases it was granted.
func leaseAndComplete(t *testing.T, url string, n int) []ShardLease {
	t.Helper()
	var got []ShardLease
	for n < 0 || len(got) < n {
		var l leaseResponse
		switch s := rawPost(t, url+"/v1/lease", leaseRequest{Worker: "w"}, &l); s {
		case http.StatusOK:
		case http.StatusGone:
			return got
		default:
			t.Fatalf("lease %d: status %d", len(got), s)
		}
		if s := rawPost(t, url+"/v1/complete",
			completeRequest{Worker: "w", Shard: l.Shard.ID, Report: fakeWireFor(l.Shard)}, nil); s != http.StatusOK {
			t.Fatalf("complete shard %d: status %d", l.Shard.ID, s)
		}
		got = append(got, l.Shard)
	}
	return got
}

// TestLoopbackEquivalence is the subsystem's consistency acceptance test:
// a 4-worker distributed campaign must produce outcome totals — the unit ×
// latch-type cross included — identical to the same-seed single-process run,
// and the kept per-injection results must match bit for bit.
func TestLoopbackEquivalence(t *testing.T) {
	spec := testSpec()
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 12})

	got := runFleet(t, c, srv.URL, 4, WorkerConfig{})

	sameAsLocal(t, got, localReport(t, spec))
}

// localReport runs spec whole in this process, on two model copies and with
// metrics: the report a fleet's merged one must equal.
func localReport(t *testing.T, spec CampaignSpec) *core.Report {
	t.Helper()
	ccfg, err := spec.CampaignConfig(&ShardLease{Lo: 0, Hi: spec.Flips})
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Workers = 2
	ccfg.Obs.Live = new(core.Live)
	rep, err := core.RunCampaign(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameAsLocal holds a fleet's report to the local one: totals, the unit ×
// latch-type cross, and the kept results bit for bit in sample order.
func sameAsLocal(t *testing.T, got, want *core.Report) {
	t.Helper()
	if got.Total != want.Total || !reflect.DeepEqual(got.Counts, want.Counts) || !reflect.DeepEqual(got.ByStratum, want.ByStratum) {
		t.Fatalf("distributed %d %v\n%v\nsingle-process %d %v\n%v", got.Total, got.Counts, got.ByStratum, want.Total, want.Counts, want.ByStratum)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("kept results: distributed %d, single-process %d", len(got.Results), len(want.Results))
	}
	for i, g := range got.Results {
		if w := want.Results[i]; g.Bit != w.Bit || g.Outcome != w.Outcome {
			t.Fatalf("result %d differs: dist bit %d %v, single bit %d %v", i, g.Bit, g.Outcome, w.Bit, w.Outcome)
		}
	}
}

// TestDirectWorkersShareHeartbeats runs workers that call the coordinator
// directly (Coordinator.RunWorker) under a lease short enough that heartbeats
// carry metric snapshots while the shards run: the coordinator then reads
// lease, heartbeat and report values the workers built, not JSON copies of
// them, which `make race` checks. That a snapshot arrives while a shard runs
// is not left to the model's speed: the workers' runners hold the campaign's
// heldInjection-th injection until the coordinator's status shows a shard's
// live count. The report must be the one an HTTP fleet produces.
func TestDirectWorkersShareHeartbeats(t *testing.T) {
	spec := testSpec()
	spec.Flips = 400
	spec.KeepResults = false
	run := func(direct bool) (rep *core.Report, sawLive bool) {
		cfg := CoordConfig{Campaign: spec, ShardSize: 200}
		if direct {
			cfg.LeaseTTL, cfg.MaxAttempts = 90*time.Millisecond, 100
		}
		c, srv := startCoord(t, cfg)
		if !direct {
			return runFleet(t, c, srv.URL, 2, WorkerConfig{}), false
		}
		gate := &injectionGate{open: func() bool {
			for _, sv := range c.Status().ShardsV {
				if sv.LiveInjections > 0 {
					return true
				}
			}
			return false
		}}
		rep = runFleet(t, c, "", 2, WorkerConfig{NewRunner: gate.newRunner()})
		return rep, gate.opened.Load()
	}
	want, _ := run(false)
	got, sawLive := run(true)
	if !sawLive {
		t.Error("no heartbeat snapshot reached the coordinator while a shard ran")
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("direct workers' report differs from the HTTP fleet's:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestFleetUtilizationCountsCopies runs two direct workers that override
// the campaign's one model copy a shard with two each, and reads the status
// while they run: its utilization divides the fleet's busy time by the four
// copies the workers said they run, so it never exceeds one, and once the
// campaign is over it is the merged report's busy time over four copies and
// the status's elapsed time.
func TestFleetUtilizationCountsCopies(t *testing.T) {
	spec := testSpec()
	spec.Flips, spec.KeepResults, spec.ShardWorkers = 400, false, 1
	c, _ := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 100})
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		most := 0.0
		for {
			select {
			case <-stop:
				peak <- most
				return
			case <-time.After(time.Millisecond):
				most = max(most, c.Status().Utilization)
			}
		}
	}()
	rep := runFleet(t, c, "", 2, WorkerConfig{Workers: 2})
	close(stop)
	if most := <-peak; most > 1 {
		t.Errorf("utilization read %.2f while the fleet ran", most)
	}
	if rep.Workers != 2 {
		t.Fatalf("the report ran %d model copies a shard, want 2", rep.Workers)
	}
	// The status's elapsed time is cut to whole milliseconds: the time the
	// utilization was taken over lies in [ElapsedMs, ElapsedMs+1) ms.
	st := c.Status()
	over := func(ms int64) float64 { return float64(rep.Metrics.BusyNs) / (4 * float64(ms) * 1e6) }
	if st.Utilization > 1 || st.Utilization <= over(st.ElapsedMs+1) || st.Utilization > over(st.ElapsedMs) {
		t.Errorf("utilization %.3f after the campaign, want %.3f: busy %v over 4 copies × %d ms",
			st.Utilization, over(st.ElapsedMs), time.Duration(rep.Metrics.BusyNs), st.ElapsedMs)
	}
}

// TestFleetUtilizationCountsCopiesRun: a worker that asks for more model
// copies than a shard has injections runs as many as core's pool does, one
// an injection, and the status counts those: what the worker's shard reports
// and heartbeats counted, not what its lease request claimed.
func TestFleetUtilizationCountsCopiesRun(t *testing.T) {
	spec := testSpec()
	spec.Flips, spec.KeepResults, spec.ShardWorkers = 16, false, 1
	c, _ := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 4})
	rep := runFleet(t, c, "", 1, WorkerConfig{Workers: 8})
	if rep.Workers != 4 {
		t.Fatalf("the report ran %d model copies a 4-injection shard, want 4", rep.Workers)
	}
	c.mu.Lock()
	copies := c.copiesLocked()
	c.mu.Unlock()
	if copies != 4 {
		t.Errorf("the status divides busy time by %d copies, want the 4 the shards ran", copies)
	}
}

// heldInjection is the injection an injectionGate holds: late enough that
// the shard holding it has finished some before it.
const heldInjection = 8

// injectionGate holds the heldInjection-th injection made through any of the
// runners it builds (a prototype and its clones) until open reports true, or
// a deadline passes; opened records which.
type injectionGate struct {
	open   func() bool
	n      atomic.Int64
	opened atomic.Bool
}

// newRunner is a WorkerConfig.NewRunner building the campaign's runner on a
// backend registered for this gate alone, which wraps the configured one.
func (g *injectionGate) newRunner() func(core.RunnerConfig) (*core.Runner, error) {
	name := fmt.Sprintf("gated-%p", g)
	engine.Register(name, func(cfg engine.Config) (engine.Backend, error) {
		cfg.Backend = ""
		be, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		return gatedBackend{be, g}, nil
	})
	return func(rc core.RunnerConfig) (*core.Runner, error) {
		rc.Backend = name
		return core.NewRunner(rc)
	}
}

// wait is called before every injection and holds the gated one.
func (g *injectionGate) wait() {
	if g.n.Add(1) != heldInjection {
		return
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if g.open() {
			g.opened.Store(true)
			return
		}
	}
}

// gatedBackend is a backend whose injections pass its gate first.
type gatedBackend struct {
	engine.Backend
	g *injectionGate
}

func (b gatedBackend) Inject(inj engine.Injection) error {
	b.g.wait()
	return b.Backend.Inject(inj)
}

func (b gatedBackend) Clone() engine.Backend { return gatedBackend{b.Backend.Clone(), b.g} }

// TestDeadWorkerShardRequeued kills a worker mid-shard (it leases and then
// vanishes without heartbeats); the lease must expire, the shard must be
// re-queued and completed by a surviving worker, and the campaign must
// still finish completely.
func TestDeadWorkerShardRequeued(t *testing.T) {
	for _, mode := range ledgerModes {
		t.Run(mode.name, func(t *testing.T) {
			spec := testSpec()
			spec.Flips = 24
			spec.Alloc = mode.alloc
			c, srv := startCoord(t, CoordConfig{
				Campaign:  spec,
				ShardSize: 12,
				LeaseTTL:  300 * time.Millisecond,
			})

			// The zombie takes shard 0 and dies.
			var zl leaseResponse
			if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "zombie"}, &zl); s != http.StatusOK {
				t.Fatalf("zombie lease: status %d", s)
			}

			rep := runFleet(t, c, srv.URL, 1, WorkerConfig{}) // the survivor
			if rep.Total != spec.Flips {
				t.Fatalf("campaign total %d, want %d", rep.Total, spec.Flips)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			s0 := c.shards[zl.Shard.ID]
			if s0.attempts < 2 {
				t.Errorf("abandoned shard re-leased %d times, want >= 2", s0.attempts)
			}
			if s0.status != shardDone {
				t.Errorf("abandoned shard not completed")
			}
		})
	}
}

// TestCompleteIdempotent delivers the same shard report twice (a worker
// retrying a complete whose ack it lost); the shard must count once.
func TestCompleteIdempotent(t *testing.T) {
	for _, mode := range ledgerModes {
		t.Run(mode.name, func(t *testing.T) {
			spec := testSpec()
			spec.Flips = 20
			spec.Alloc = mode.alloc
			c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})

			var l leaseResponse
			if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &l); s != http.StatusOK {
				t.Fatalf("lease: status %d", s)
			}
			size := l.Shard.Hi - l.Shard.Lo
			req := completeRequest{Worker: "w", Shard: l.Shard.ID, Report: fakeWireFor(l.Shard)}
			for i := 0; i < 2; i++ {
				if s := rawPost(t, srv.URL+"/v1/complete", req, nil); s != http.StatusOK {
					t.Fatalf("complete #%d: status %d", i+1, s)
				}
			}
			if l := ledgerOf(c); len(l.Done) != 1 || l.Sealed.Total != size {
				t.Fatalf("after double complete: done %v, injections %d; want 1 shard, %d", l.Done, l.Sealed.Total, size)
			}

			// Finish the other shards and confirm the merge counted the first once
			// (every fabricated report holds one corrected injection).
			rest := leaseAndComplete(t, srv.URL, -1)
			rep, err := c.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total != 20 || rep.Counts[core.Corrected] != 1+len(rest) {
				t.Fatalf("merged: total %d corrected %d; want 20, %d", rep.Total, rep.Counts[core.Corrected], 1+len(rest))
			}
		})
	}
}

// TestCompleteRejectsMiscountedReport: every interval a view shows is
// computed over a report's pooled counts or its cross, so each must count the
// report's injections once. A negative count, or pooled counts or cells that
// do not sum to the total, is refused and seals nothing, as is a cell whose
// key names no unit and latch type.
func TestCompleteRejectsMiscountedReport(t *testing.T) {
	spec := testSpec()
	spec.Flips = 10
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})
	var l leaseResponse
	if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &l); s != http.StatusOK {
		t.Fatalf("lease: status %d", s)
	}
	for name, spoil := range map[string]func(*WireReport){
		"pooled counts over the total": func(w *WireReport) { w.Counts = map[string]int{"vanished": 100} },
		"a negative pooled count":      func(w *WireReport) { w.Counts = map[string]int{"vanished": 11, "sdc": -1} },
		"pooled counts that overflow to the total": func(w *WireReport) {
			w.Counts = map[string]int{"vanished": 1 << 62, "corrected": 1 << 62, "hang": 1 << 62, "sdc": 1<<62 + 10}
		},
		"a short cell": func(w *WireReport) { w.ByStratum = map[string]map[string]int{"FXU/FUNC": {"vanished": 9}} },
		"a negative cell count": func(w *WireReport) {
			w.ByStratum = map[string]map[string]int{"FXU/FUNC": {"vanished": 11, "corrected": -1}}
		},
		"no cross": func(w *WireReport) { w.ByStratum = nil },
		"a cell of no latch type": func(w *WireReport) {
			w.ByStratum = map[string]map[string]int{"FXU/BOGUS": w.Counts}
		},
	} {
		w := fakeWire(10)
		spoil(w)
		if s := rawPost(t, srv.URL+"/v1/complete", completeRequest{Worker: "w", Shard: l.Shard.ID, Report: w}, nil); s != http.StatusBadRequest {
			t.Errorf("report with %s: status %d, want 400", name, s)
		}
	}
	if got := ledgerOf(c); len(got.Done) != 0 || got.Sealed.Total != 0 {
		t.Fatalf("refused reports sealed shards %v, %d injections", got.Done, got.Sealed.Total)
	}
	if s := rawPost(t, srv.URL+"/v1/complete", completeRequest{Worker: "w", Shard: l.Shard.ID, Report: fakeWire(10)}, nil); s != http.StatusOK {
		t.Fatalf("well-counted report: status %d", s)
	}
}

// TestJournalRestart kills a coordinator after two of three shards are
// durably complete; its successor over the same journal must resume with
// those shards done and finish from there.
func TestJournalRestart(t *testing.T) {
	for _, mode := range ledgerModes {
		t.Run(mode.name, func(t *testing.T) {
			spec := testSpec()
			spec.Flips = 30
			spec.Alloc = mode.alloc
			journal := filepath.Join(t.TempDir(), "campaign.journal")
			cfg := CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal}

			c1, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv1 := httptest.NewServer(c1.Handler())
			injections := 0
			for _, l := range leaseAndComplete(t, srv1.URL, 2) {
				injections += l.Hi - l.Lo
			}
			srv1.Close()
			c1.Close() // the "kill": no graceful campaign finish

			c2, srv2 := startCoord(t, cfg)
			if l := ledgerOf(c2); len(l.Done) != 2 || l.Sealed.Total != injections {
				t.Fatalf("restarted coordinator: done %v injections %d; want 2 shards, %d", l.Done, l.Sealed.Total, injections)
			}
			rest := leaseAndComplete(t, srv2.URL, -1)
			if got, want := rest[0].ID, 2; got != want {
				t.Fatalf("post-restart lease handed shard %d, want the unfinished shard %d", got, want)
			}
			rep, err := c2.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total != 30 {
				t.Fatalf("resumed campaign total %d, want 30", rep.Total)
			}
		})
	}
}

// TestJournalTornTailSurvivesRestarts: a crash mid-append leaves a torn last
// line. The restart must cut it off before appending — a record glued onto
// the fragment would be unreadable on the restart after that, taking every
// later shard with it — so two restarts later the journal still replays
// every shard to the undisturbed report. Damage followed by intact records
// is not a torn tail and must refuse to open.
func TestJournalTornTailSurvivesRestarts(t *testing.T) {
	spec := testSpec()
	spec.Flips = 40
	// Distinct per-shard reports, so a dropped shard shows in the counts.
	wire := func(id int) *WireReport {
		w := fakeWire(10)
		w.Counts = map[string]int{"vanished": 9 - id, "corrected": 1 + id}
		return w
	}
	// run opens a coordinator over journal, checks how many shards the
	// replay recovered, then leases and completes n more.
	run := func(journal string, n int, wantDone int) (*Coordinator, func()) {
		t.Helper()
		c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c.Handler())
		if done := c.Status().States["completed"]; done != wantDone {
			t.Fatalf("coordinator over %s replayed %d shards, want %d", journal, done, wantDone)
		}
		for i := 0; i < n; i++ {
			var l leaseResponse
			if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &l); s != http.StatusOK {
				t.Fatalf("lease: status %d", s)
			}
			if s := rawPost(t, srv.URL+"/v1/complete",
				completeRequest{Worker: "w", Shard: l.Shard.ID, Report: wire(l.Shard.ID)}, nil); s != http.StatusOK {
				t.Fatalf("complete shard %d: status %d", l.Shard.ID, s)
			}
		}
		return c, func() { srv.Close(); c.Close() }
	}
	wait := func(c *Coordinator) []byte {
		t.Helper()
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

	dir := t.TempDir()
	c, stop := run(filepath.Join(dir, "undisturbed"), 4, 0)
	want := wait(c)
	stop()

	journal := filepath.Join(dir, "torn")
	_, stop = run(journal, 2, 0)
	stop()
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard":2,"report":{"total":10,"cou`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, stop = run(journal, 1, 2) // first restart: the torn shard reruns
	stop()
	c, stop = run(journal, 1, 3) // second restart: nothing was lost to the tear
	if got := wait(c); !bytes.Equal(got, want) {
		t.Errorf("report after a torn tail and two restarts differs from the undisturbed run:\n got %s\nwant %s", got, want)
	}
	stop()
	c, stop = run(journal, 0, 4) // and the finished journal replays whole
	if got := wait(c); !bytes.Equal(got, want) {
		t.Errorf("replayed report differs from the undisturbed run:\n got %s\nwant %s", got, want)
	}
	stop()

	// Mid-file corruption: damage line 3 of the finished journal in place.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[2] = append([]byte("#"), lines[2]...)
	if err := os.WriteFile(journal, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal}); err == nil {
		c.Close()
		t.Error("journal with a corrupt line before intact ones was accepted")
	}
}

// TestJournalRejectsForeignCampaign: resuming a different campaign over an
// existing journal must fail loudly, naming the header field that differs,
// instead of merging unrelated shards. The fault model is part of the
// campaign: a toggle, checkers-on journal resumed by a sticky, raw or
// results-keeping campaign would hand back the toggle report as its own.
func TestJournalRejectsForeignCampaign(t *testing.T) {
	spec := testSpec()
	spec.Flips = 30
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	c1, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	for _, tc := range []struct {
		field string
		mut   func(*CoordConfig)
	}{
		{"seed", func(c *CoordConfig) { c.Campaign.Seed = 99 }},
		{"shard_size", func(c *CoordConfig) { c.ShardSize = 15 }},
		{"model", func(c *CoordConfig) { c.Campaign.Runner.Mode = engine.Sticky }},
		{"model", func(c *CoordConfig) { c.Campaign.Runner.CheckersOn = false }},
		{"model", func(c *CoordConfig) { c.Campaign.Runner.Window = 20_000 }},
		{"model", func(c *CoordConfig) { c.Campaign.KeepResults = !c.Campaign.KeepResults }},
	} {
		cfg := CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal}
		tc.mut(&cfg)
		if c, err := NewCoordinator(cfg); err == nil {
			c.Close()
			t.Errorf("coordinator accepted a journal from a campaign with another %s", tc.field)
		} else if !strings.HasSuffix(err.Error(), "differs in "+tc.field) {
			t.Errorf("refusal %q does not name header field %q alone", err, tc.field)
		}
	}
	// Nothing a refused restart did keeps the campaign itself from resuming,
	// under either spelling of what does not change its results.
	spec.ShardWorkers = 3
	c2, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal})
	if err != nil {
		t.Fatalf("the journal's own campaign was refused: %v", err)
	}
	c2.Close()
}

// TestShardAttemptsExhausted: a shard abandoned MaxAttempts times fails
// the whole campaign (bounded retries, then campaign-level error).
func TestShardAttemptsExhausted(t *testing.T) {
	for _, mode := range ledgerModes {
		t.Run(mode.name, func(t *testing.T) {
			spec := testSpec()
			spec.Flips = 10
			spec.Alloc = mode.alloc
			c, srv := startCoord(t, CoordConfig{
				Campaign:    spec,
				ShardSize:   10,
				LeaseTTL:    100 * time.Millisecond,
				MaxAttempts: 1,
			})
			if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "zombie"}, &leaseResponse{}); s != http.StatusOK {
				t.Fatalf("lease: status %d", s)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := c.Wait(ctx); err == nil {
				t.Fatal("campaign succeeded despite an exhausted shard")
			} else if ctx.Err() != nil {
				t.Fatalf("campaign did not fail before timeout: %v", err)
			}
		})
	}
}

// TestLeaseLostAtItsDeadline: a lease is lost the moment its deadline
// passes, with no worker polling: the first call or view made after it,
// whichever it is, finds the shard requeued. A heartbeat with metrics first
// gives the fleet snapshot something to lose.
func TestLeaseLostAtItsDeadline(t *testing.T) {
	const shards = 12
	for _, tc := range []struct {
		name string
		lost func(c *Coordinator, id int) bool
	}{
		{"status", func(c *Coordinator, id int) bool { return c.Status().ShardsV[id].State == "requeued" }},
		{"metrics", func(c *Coordinator, id int) bool {
			var b strings.Builder
			c.writeMetrics(&b)
			return strings.Contains(b.String(), fmt.Sprintf("sfi_coord_shards{state=\"pending\"} %d\n", shards))
		}},
		{"fleet", func(c *Coordinator, id int) bool { return c.FleetSnapshot().Injections == 0 }},
		{"heartbeat", func(c *Coordinator, id int) bool {
			status, _ := c.heartbeat(heartbeatRequest{Worker: "silent", Shard: id})
			return status == http.StatusConflict
		}},
		{"fail", func(c *Coordinator, id int) bool {
			status, _ := c.fail(failRequest{Worker: "silent", Shard: id, Error: "late"})
			return status == http.StatusConflict
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := startCoord(t, CoordConfig{Campaign: testSpec(), ShardSize: 48 / shards, LeaseTTL: 100 * time.Millisecond})
			l, status, _ := c.lease(context.Background(), leaseRequest{Worker: "silent"})
			if status != http.StatusOK {
				t.Fatalf("lease: status %d", status)
			}
			beat := obs.NewSnapshot()
			beat.Injections = 2
			if status, err := c.heartbeat(heartbeatRequest{Worker: "silent", Shard: l.Shard.ID, Metrics: beat}); status != http.StatusOK {
				t.Fatalf("heartbeat: status %d (%v)", status, err)
			}
			c.mu.Lock()
			deadline := c.shards[l.Shard.ID].deadline
			c.mu.Unlock()
			time.Sleep(time.Until(deadline) + time.Millisecond)
			if !tc.lost(c, l.Shard.ID) {
				t.Errorf("the %s still holds the lease 1 ms past its deadline", tc.name)
			}
		})
	}
}

// TestCoordinatorRunsNoGoroutine: a coordinator, journaled or not, starts no
// goroutine of its own, and closing it twice is closing it once.
func TestCoordinatorRunsNoGoroutine(t *testing.T) {
	for _, journal := range []string{"", filepath.Join(t.TempDir(), "campaign.journal")} {
		base := runtime.NumGoroutine()
		c, err := NewCoordinator(CoordConfig{Campaign: testSpec(), Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("journal %q: %d goroutines after NewCoordinator, %d before", journal, n, base)
		}
		c.Close()
		c.Close()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("journal %q: %d goroutines after Close, %d before", journal, n, base)
		}
	}
}

// TestWireReportRoundTrip: encode/decode must be lossless for everything
// the merge consumes.
func TestWireReportRoundTrip(t *testing.T) {
	rep, err := (&WireReport{
		Total:     5,
		Counts:    map[string]int{"vanished": 3, "sdc": 2},
		ByStratum: map[string]map[string]int{"LSU/REGFILE": {"vanished": 3}, "IFU/FUNC": {"sdc": 2}},
	}).Report()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(EncodeReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	var back WireReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	rep2, err := back.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, rep2)
	}
	if _, err := (&WireReport{Counts: map[string]int{"nope": 1}}).Report(); err == nil {
		t.Fatal("decoded a report with an unknown outcome")
	}
	for _, key := range []string{"LSU", "LSU/", "LSU/regfile"} {
		if _, err := (&WireReport{ByStratum: map[string]map[string]int{key: {"sdc": 1}}}).Report(); err == nil {
			t.Errorf("decoded a report with a cell keyed %q", key)
		}
	}
}

// TestZeroTTLLeaseRejected: the lease TTL arrives off the network and paces
// the worker's heartbeat ticker, so a lease carrying ttl_ms < 1 must come
// back as an error (and a /v1/fail hand-back), not a ticker panic; and the
// coordinator must not mint such leases from a sub-millisecond LeaseTTL.
func TestZeroTTLLeaseRejected(t *testing.T) {
	failed := make(chan failRequest, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, leaseResponse{Shard: ShardLease{ID: 3, Lo: 0, Hi: 4}, Campaign: testSpec(), TTLMs: 0})
	})
	mux.HandleFunc("/v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req failRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		failed <- req
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, ID: "w0"}); err == nil {
		t.Fatal("worker accepted a lease with ttl_ms 0")
	} else if ctx.Err() != nil {
		t.Fatalf("worker did not reject the lease before timeout: %v", err)
	}
	select {
	case req := <-failed:
		if req.Shard != 3 || req.Worker != "w0" {
			t.Errorf("hand-back names shard %d worker %q, want 3 w0", req.Shard, req.Worker)
		}
	default:
		t.Error("worker did not hand the shard back with /v1/fail")
	}

	if _, err := NewCoordinator(CoordConfig{Campaign: testSpec(), LeaseTTL: 500 * time.Microsecond}); err == nil {
		t.Error("NewCoordinator accepted a sub-millisecond LeaseTTL")
	}
}

// TestCoordinatorRejectsUnbuildableRunner: a campaign whose runner config no
// model can be built from (a spec decoded from partial JSON) is refused when
// the coordinator is made, with the field named, before any census or
// worker build is attempted from it.
func TestCoordinatorRejectsUnbuildableRunner(t *testing.T) {
	for want, mut := range map[string]func(*CampaignSpec){
		"Window":        func(s *CampaignSpec) { s.Runner = core.RunnerConfig{} },
		"Proc.MemBytes": func(s *CampaignSpec) { s.Runner.Proc.MemBytes = 0; s.Alloc.Mode = core.AllocNeyman },
	} {
		spec := testSpec()
		mut(&spec)
		if c, err := NewCoordinator(CoordConfig{Campaign: spec}); err == nil {
			c.Close()
			t.Errorf("NewCoordinator accepted a runner with a bad %s", want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
