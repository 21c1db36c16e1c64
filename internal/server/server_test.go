package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/dist"
	"sfi/internal/engine"
	_ "sfi/internal/engine/p6lite" // default backend for real campaign runs
)

// tinySpec builds a campaign spec small enough to run for real in tests.
// Campaigns sharing avp tuning share a checkpoint image; the seed keeps
// their spec digests (and thus reports) distinct.
func tinySpec(tenant string, seed uint64, flips, shardSize int) Spec {
	rc := core.DefaultRunnerConfig()
	rc.AVP.Testcases = 2
	rc.AVP.BodyOps = 4
	return Spec{
		Tenant:    tenant,
		Campaign:  dist.CampaignSpec{Runner: rc, Seed: seed, Flips: flips},
		ShardSize: shardSize,
	}
}

// heavySpec builds a campaign whose boot is slow enough to act as a
// scheduler blocker while the test manipulates the queue behind it.
func heavySpec(seed uint64) Spec {
	rc := core.DefaultRunnerConfig()
	rc.AVP.Testcases = 8
	rc.AVP.BodyOps = 64
	return Spec{
		Campaign:  dist.CampaignSpec{Runner: rc, Seed: seed, Flips: 64},
		ShardSize: 64,
	}
}

func newTestServer(t *testing.T, dir string, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Dir:           dir,
		MaxConcurrent: 2,
		LeaseTTL:      time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitState(t *testing.T, s *Server, id, want string, timeout time.Duration) Campaign {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c, ok := s.Get(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if c.State == want {
			return c
		}
		if c.State == StateFailed && want != StateFailed {
			t.Fatalf("campaign %s failed: %s", id, c.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q, want %q", id, c.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLoopbackSubmitConvergeReport is the end-to-end smoke test `make ci`
// runs: boot a server, submit an adaptive campaign over real HTTP, watch
// it converge, and pull the report, events, status and metrics back out.
func TestLoopbackSubmitConvergeReport(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec("smoke", 7, 300, 20)
	spec.Campaign.Stop = core.StopConfig{
		TargetMargin:   0.25,
		Confidence:     0.90,
		MinPerClass:    1,
		StopOnConverge: true,
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", resp.StatusCode)
	}
	var c Campaign
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if c.State != StateQueued || c.ID == "" || c.Digest == "" || c.ImageDigest == "" {
		t.Fatalf("submitted campaign = %+v, want a queued record with digests", c)
	}

	// Poll the REST status until the campaign settles.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/campaigns/" + c.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&c); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if c.State == StateDone {
			break
		}
		if c.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("campaign %s in state %q (%s), want done", c.ID, c.State, c.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if c.Injections == 0 || c.ReportHash == "" {
		t.Fatalf("done campaign = %+v, want injections and a report hash", c)
	}

	// The stored report document: totals, convergence, stable ETag.
	r, err := http.Get(ts.URL + "/v1/campaigns/" + c.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d, want 200", r.StatusCode)
	}
	if etag := r.Header.Get("ETag"); !strings.Contains(etag, c.ReportHash) {
		t.Fatalf("report ETag %q does not carry the object hash %s", etag, c.ReportHash)
	}
	var doc ReportDoc
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if doc.SpecDigest != c.Digest {
		t.Fatalf("report spec digest %s, want %s", doc.SpecDigest, c.Digest)
	}
	if doc.Report == nil || doc.Report.Total != c.Injections {
		t.Fatalf("report total = %+v, want %d injections", doc.Report, c.Injections)
	}
	if doc.Convergence == nil {
		t.Fatal("adaptive campaign stored no convergence evaluation")
	}
	if doc.Report.Metrics != nil {
		t.Fatal("stored report kept its metrics snapshot (breaks content addressing)")
	}

	// Shard events were traced.
	r, err = http.Get(ts.URL + "/v1/campaigns/" + c.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	raw.ReadFrom(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || raw.Len() == 0 {
		t.Fatalf("events = status %d, %d bytes; want traced shards", r.StatusCode, raw.Len())
	}

	// Server-wide views.
	r, err = http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Campaigns[StateDone] < 1 {
		t.Fatalf("server status %+v, want at least one done campaign", st.Campaigns)
	}
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(bytes.Buffer)
	metrics.ReadFrom(r.Body)
	r.Body.Close()
	if !strings.Contains(metrics.String(), `sfi_server_campaigns{state="done"} `) {
		t.Fatalf("metrics exposition missing campaign states:\n%s", metrics.String())
	}
}

// TestReportDedup submits the same spec twice: the second submission must
// settle instantly from the content-addressed store with an identical
// report.
func TestReportDedup(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	spec := tinySpec("t", 21, 60, 20)

	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first = waitState(t, s, first.ID, StateDone, 30*time.Second)

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Dedup {
		t.Fatalf("identical resubmission = %+v, want instant dedup done", second)
	}
	if second.ReportHash != first.ReportHash {
		t.Fatalf("dedup hash %s != original %s", second.ReportHash, first.ReportHash)
	}
	d1, _, err := s.Report(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := s.Report(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("dedup served different report bytes")
	}
}

// TestDefaultShardSize pins what the server cuts a campaign into when
// nobody says: ~64 shards, but none under minShardSize, with the spec's
// size and then the server's taking precedence. An explicit size equal to
// the default shares its spec digest, and so its report.
func TestDefaultShardSize(t *testing.T) {
	def := newTestServer(t, t.TempDir(), nil)
	cfg := newTestServer(t, t.TempDir(), func(c *Config) { c.ShardSize = 5 })
	for _, tc := range []struct {
		s                 *Server
		flips, spec, want int
	}{
		{def, 8, 0, 16},
		{def, 64, 0, 16},
		{def, 1024, 0, 16},
		{def, 1025, 0, 17},
		{def, 6400, 0, 100},
		{def, 64, 3, 3},
		{cfg, 64, 0, 5},
		{cfg, 64, 3, 3},
	} {
		if got := tc.s.shardSize(tinySpec("t", 1, tc.flips, tc.spec)); got != tc.want {
			t.Errorf("shardSize(flips %d, spec size %d, server size %d) = %d, want %d",
				tc.flips, tc.spec, tc.s.cfg.ShardSize, got, tc.want)
		}
	}
	if a, b := def.specDigest(tinySpec("t", 1, 64, 0)), def.specDigest(tinySpec("t", 1, 64, 16)); a != b {
		t.Errorf("default and explicit shard size 16 digest differently: %s, %s", a, b)
	}

	// Dedup must survive an upgrade: a stored report is found under the
	// digest the server computed when it ran the campaign. Recorded at the
	// commit before the digest moved to dist.CampaignSpec.Digest.
	uniform := Spec{Campaign: dist.CampaignSpec{Runner: core.DefaultRunnerConfig(), Seed: 7, Flips: 640}}
	neyman := Spec{Tenant: "t", ShardSize: 50, Campaign: dist.CampaignSpec{
		Runner: core.DefaultRunnerConfig(), Seed: 9, Flips: 2000,
		Filter: dist.FilterSpec{Kind: "unit", Arg: "FXU"},
		Stop:   core.StopConfig{TargetMargin: 0.02, Confidence: 0.95, StopOnConverge: true},
		Alloc:  core.AllocConfig{Mode: core.AllocNeyman, Epochs: 8},
	}}
	neyman.Campaign.Runner.Backend = "p6lite"
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{uniform, "5ceff9d01760bdc4ac363260a5f1da418eb30a7b67dbaa059433b3682224578b"},
		{neyman, "ee853925af17210e475f1c9ed5f11c6d727d5a8b3a11c7b985f883f8564d112b"},
	} {
		if got := def.specDigest(tc.spec); got != tc.want {
			t.Errorf("specDigest(%+v) = %s, want the recorded %s", tc.spec, got, tc.want)
		}
	}
}

// TestImageCacheShared runs two campaigns that differ only in seed: they
// share one warm checkpoint image, so the second boots from a clone.
func TestImageCacheShared(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.MaxConcurrent = 1 })
	a, err := s.Submit(tinySpec("t", 31, 40, 40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(tinySpec("t", 32, 40, 40))
	if err != nil {
		t.Fatal(err)
	}
	if a.ImageDigest != b.ImageDigest {
		t.Fatalf("same runner config produced different image digests %s vs %s",
			a.ImageDigest, b.ImageDigest)
	}
	a = waitState(t, s, a.ID, StateDone, 30*time.Second)
	b = waitState(t, s, b.ID, StateDone, 30*time.Second)
	if a.ImageHit {
		t.Fatal("first campaign claims a warm-cache hit")
	}
	if !b.ImageHit {
		t.Fatal("second campaign with the same image digest missed the warm cache")
	}
	if st := s.Status(); st.ImageCache.Hits < 1 || st.ImageCache.Images < 1 {
		t.Fatalf("image cache stats %+v, want a recorded hit", st.ImageCache)
	}
}

// TestCancelQueuedNeverLeases parks a campaign behind a running blocker,
// cancels it while queued, and verifies it never started: no journal, no
// start time, state cancelled.
func TestCancelQueuedNeverLeases(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.MaxConcurrent = 1 })
	blocker, err := s.Submit(heavySpec(41))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning, 30*time.Second)

	victim, err := s.Submit(tinySpec("t", 42, 40, 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, victim.ID, StateCancelled, time.Second)
	if got.StartedAt != nil {
		t.Fatalf("cancelled-while-queued campaign has a start time %v", got.StartedAt)
	}
	if err := s.Cancel(victim.ID); err != ErrFinished {
		t.Fatalf("cancelling a settled campaign = %v, want ErrFinished", err)
	}

	waitState(t, s, blocker.ID, StateDone, 60*time.Second)
	// The freed slot must not revive the cancelled campaign.
	time.Sleep(20 * time.Millisecond)
	if c, _ := s.Get(victim.ID); c.State != StateCancelled {
		t.Fatalf("cancelled campaign revived into %q", c.State)
	}
	if s.st.HasJournal(victim.ID) {
		t.Fatal("cancelled queued campaign opened a coordinator journal (leased shards)")
	}
}

// TestWeightedTenantsConverge queues unequal tenant loads behind a
// blocker on a single-slot server and verifies the start order realizes
// the configured 3:1 weights while both tenants stay backlogged.
func TestWeightedTenantsConverge(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MaxConcurrent = 1
		c.TenantWeights = map[string]float64{"a": 3, "b": 1}
	})
	blocker, err := s.Submit(heavySpec(51))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning, 30*time.Second)

	ids := map[string]string{} // id -> tenant
	for i := 0; i < 6; i++ {
		a, err := s.Submit(tinySpec("a", uint64(100+i), 24, 24))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Submit(tinySpec("b", uint64(200+i), 24, 24))
		if err != nil {
			t.Fatal(err)
		}
		ids[a.ID], ids[b.ID] = "a", "b"
	}
	var last Campaign
	for id := range ids {
		last = waitState(t, s, id, StateDone, 60*time.Second)
	}
	_ = last

	// Reconstruct service order from start times.
	type started struct {
		tenant string
		at     time.Time
	}
	var order []started
	for id, tenant := range ids {
		c, _ := s.Get(id)
		if c.StartedAt == nil {
			t.Fatalf("done campaign %s has no start time", id)
		}
		order = append(order, started{tenant, *c.StartedAt})
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].at.Before(order[i].at) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	// While both tenants were backlogged (the first 8 starts), stride
	// scheduling serves exactly 3 a's per b.
	counts := map[string]int{}
	for _, sv := range order[:8] {
		counts[sv.tenant]++
	}
	if counts["a"] != 6 || counts["b"] != 2 {
		t.Fatalf("first 8 services = %v, want 6 a / 2 b under 3:1 weights (order %v)", counts, order)
	}
	if st := s.Status(); st.Tenants["a"].Served != 6 || st.Tenants["b"].Served != 6 {
		t.Fatalf("tenant ledger %+v, want 6 served each after drain", st.Tenants)
	}
}

// TestServerRestartResumes kills a server mid-campaign and reopens it
// over the same store: the campaign resumes from its journal and the
// final report is byte-identical to an uninterrupted control run.
func TestServerRestartResumes(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("t", 61, 240, 8) // 30 shards: wide window to interrupt
	spec.Campaign.Runner.AVP.Testcases = 4
	spec.Campaign.Runner.AVP.BodyOps = 16

	s1 := newTestServer(t, dir, func(c *Config) { c.MaxConcurrent = 1 })
	c, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the journal holds the header plus at least two sealed
	// shards, then pull the plug mid-campaign.
	journal := s1.st.JournalPath(c.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(journal); err == nil && bytes.Count(data, []byte("\n")) >= 3 {
			break
		}
		if cc, _ := s1.Get(c.ID); cc.State == StateDone {
			t.Skip("campaign finished before the interrupt window; nothing to resume")
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never accumulated sealed shards")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	interrupted, ok := s1.Get(c.ID)
	if !ok || (interrupted.State != StateQueued && interrupted.State != StateDone) {
		t.Fatalf("after shutdown campaign is %q, want queued (resumable) or done", interrupted.State)
	}
	if interrupted.State == StateDone {
		t.Skip("campaign finished during drain; nothing to resume")
	}

	// Reopen over the same store: recovery re-queues and the coordinator
	// replays the journal instead of redoing sealed shards.
	s2 := newTestServer(t, dir, func(c *Config) { c.MaxConcurrent = 1 })
	resumed := waitState(t, s2, c.ID, StateDone, 60*time.Second)
	if resumed.Injections != spec.Campaign.Flips {
		t.Fatalf("resumed campaign ran %d injections, want %d", resumed.Injections, spec.Campaign.Flips)
	}
	resumedDoc, resumedHash, err := s2.Report(c.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Control: the same spec, uninterrupted, in a fresh store.
	s3 := newTestServer(t, t.TempDir(), func(c *Config) { c.MaxConcurrent = 1 })
	control, err := s3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	control = waitState(t, s3, control.ID, StateDone, 60*time.Second)
	controlDoc, controlHash, err := s3.Report(control.ID)
	if err != nil {
		t.Fatal(err)
	}

	if resumedHash != controlHash {
		t.Fatalf("resumed report hash %s != control %s", resumedHash, controlHash)
	}
	if !bytes.Equal(resumedDoc, controlDoc) {
		t.Fatal("resumed report is not byte-identical to the uninterrupted control run")
	}
}

// TestServerCrashResumes copies a server's store mid-campaign — what a crash
// leaves on disk, a torn journal or events line included — and opens a server
// over the copy: the campaign's record there is the submit-time one, since
// starting a campaign saves nothing recovery could use, and the campaign
// resumes from its journal to the report bytes an uninterrupted run serves.
func TestServerCrashResumes(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("t", 67, 240, 8) // 30 shards: wide window to copy in
	spec.Campaign.Runner.AVP.Testcases = 4
	spec.Campaign.Runner.AVP.BodyOps = 16

	s1 := newTestServer(t, filepath.Join(dir, "live"), func(c *Config) { c.MaxConcurrent = 1 })
	c, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	journal := s1.st.JournalPath(c.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(journal); err == nil && bytes.Count(data, []byte("\n")) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never accumulated sealed shards")
		}
		time.Sleep(time.Millisecond)
	}
	crashed := filepath.Join(dir, "crashed")
	err = os.CopyFS(crashed, os.DirFS(filepath.Join(dir, "live")))
	if cc, _ := s1.Get(c.ID); cc.State != StateRunning {
		t.Skipf("campaign %s before the copy was complete; nothing to resume", cc.State)
	}
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	data, err := os.ReadFile(filepath.Join(crashed, "campaigns", c.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec Campaign
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued || rec.StartedAt != nil {
		t.Fatalf("the record a running campaign left on disk is %q (started %v), want the submit-time queued one", rec.State, rec.StartedAt)
	}

	s2 := newTestServer(t, crashed, func(c *Config) { c.MaxConcurrent = 1 })
	resumed := waitState(t, s2, c.ID, StateDone, 60*time.Second)
	if resumed.Injections != spec.Campaign.Flips {
		t.Fatalf("resumed campaign ran %d injections, want %d", resumed.Injections, spec.Campaign.Flips)
	}
	resumedDoc, _, err := s2.Report(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, t.TempDir(), func(c *Config) { c.MaxConcurrent = 1 })
	control, err := s3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s3, control.ID, StateDone, 60*time.Second)
	controlDoc, _, err := s3.Report(control.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedDoc, controlDoc) {
		t.Fatal("the report resumed after a crash is not byte-identical to the uninterrupted control run")
	}
}

// TestServerMatchesDistLoopback: the server's embedded worker calls its
// coordinator directly, a remote worker reaches one over HTTP+JSON. The
// same spec must yield the same report document either way, byte for byte —
// which fails the day the direct path and the wire path diverge (a field
// the wire drops, a decision only one of them makes).
func TestServerMatchesDistLoopback(t *testing.T) {
	uniform := tinySpec("t", 23, 96, 16)
	uniform.Campaign.KeepResults = true
	neyman := tinySpec("t", 29, 320, 16)
	neyman.Campaign.Alloc = core.AllocConfig{Mode: core.AllocNeyman, Epochs: 8}
	// Converges — and stops — with half of its eight epochs unspent.
	neyman.Campaign.Stop = core.StopConfig{TargetMargin: 0.9, MinPerClass: 3, StopOnConverge: true}
	for name, spec := range map[string]Spec{"uniform": uniform, "neyman": neyman} {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, t.TempDir(), nil)
			c, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			c = waitState(t, s, c.ID, StateDone, 60*time.Second)
			served, _, err := s.Report(c.ID)
			if err != nil {
				t.Fatal(err)
			}

			coord, err := dist.NewCoordinator(dist.CoordConfig{Campaign: spec.Campaign, ShardSize: spec.ShardSize})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			ts := httptest.NewServer(coord.Handler())
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			workerErr := make(chan error, 1)
			go func() {
				workerErr <- dist.RunWorker(ctx, dist.WorkerConfig{Coordinator: ts.URL, PollEvery: time.Millisecond})
			}()
			rep, err := coord.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-workerErr; err != nil {
				t.Fatal(err)
			}
			stopped := coord.StopDecision() != nil
			wired, err := reportDoc(c.Digest, rep, stopped)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(served, wired) {
				t.Errorf("report documents differ:\nserver: %s\n  dist: %s", served, wired)
			}
			if c.StoppedEarly != stopped || c.Injections != rep.Total || stopped != (name == "neyman") {
				t.Errorf("server ran %d injections (stopped early %v), the loopback fleet %d (%v)",
					c.Injections, c.StoppedEarly, rep.Total, stopped)
			}
		})
	}
}

// postSpec submits a raw JSON spec through the server's handler and returns
// the status code and the decoded campaign record (or error document).
func postSpec(t *testing.T, h http.Handler, body string) (int, Campaign, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", strings.NewReader(body)))
	var doc struct {
		Campaign
		Err string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("submit answered %d with %q: %v", rec.Code, rec.Body.String(), err)
	}
	return rec.Code, doc.Campaign, doc.Err
}

func init() {
	engine.Register("server-test-panics", func(engine.Config) (engine.Backend, error) {
		panic("size 0 is not a power of two")
	})
}

// TestUnbuildableRunnerCostsOneCampaign: a runner config off the wire that
// no model can be built from is a 400 naming the field, and one whose build
// panics anyway fails its own campaign; either way the server goes on to
// finish another tenant's campaign.
func TestUnbuildableRunnerCostsOneCampaign(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	h := s.Handler()

	code, _, msg := postSpec(t, h, `{"campaign":{"flips":8,"runner":{}}}`)
	if code != http.StatusBadRequest || !strings.Contains(msg, "Window") {
		t.Fatalf(`"runner":{} answered %d %q, want 400 naming Window`, code, msg)
	}
	partial, _ := json.Marshal(tinySpec("a", 1, 8, 8))
	partial = bytes.Replace(partial, []byte(`"MemBytes":262144`), []byte(`"MemBytes":0`), 1)
	code, _, msg = postSpec(t, h, string(partial))
	if code != http.StatusBadRequest || !strings.Contains(msg, "Proc.MemBytes") {
		t.Fatalf("MemBytes 0 answered %d %q, want 400 naming Proc.MemBytes", code, msg)
	}
	huge := tinySpec("a", 1, 8, 8)
	huge.Campaign.Runner.Backend = "awan"
	huge.Campaign.Runner.Awan.Lanes = 1_000_000_000
	body, _ := json.Marshal(huge)
	code, _, msg = postSpec(t, h, string(body))
	if want := huge.Campaign.Validate(); code != http.StatusBadRequest || want == nil || !strings.Contains(msg, want.Error()) {
		t.Fatalf("a billion ALUs answered %d %q, want 400 saying what Validate says (%v)", code, msg, want)
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("%d campaigns recorded after three refused submissions", n)
	}

	bad := tinySpec("a", 2, 8, 8)
	bad.Campaign.Runner.Backend = "server-test-panics"
	body, _ = json.Marshal(bad)
	code, c, msg := postSpec(t, h, string(body))
	if code != http.StatusCreated {
		t.Fatalf("submit answered %d %q, want 201", code, msg)
	}
	if c = waitState(t, s, c.ID, StateFailed, 30*time.Second); !strings.Contains(c.Error, "panicked") {
		t.Errorf("failed campaign's error = %q, want the build's panic", c.Error)
	}

	good, _ := json.Marshal(tinySpec("b", 3, 8, 8))
	code, c, msg = postSpec(t, h, string(good))
	if code != http.StatusCreated {
		t.Fatalf("second tenant's submit answered %d %q, want 201", code, msg)
	}
	if c = waitState(t, s, c.ID, StateDone, 30*time.Second); c.Injections != 8 {
		t.Errorf("second tenant's campaign ran %d injections, want 8", c.Injections)
	}
}
