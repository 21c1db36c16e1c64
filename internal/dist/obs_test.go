package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfi/internal/obs"
)

// TestLoopbackSnapshotEquivalence is the fleet-observability acceptance
// test: after a 4-worker distributed campaign, the coordinator's merged
// fleet snapshot must be counter-exactly equal to the same-seed
// single-process campaign's snapshot — injections, restores, cycles,
// outcome mix, per-unit and per-type breakdowns, and histogram counts.
// (Latency values and BusyNs are timing-dependent and excluded.)
func TestLoopbackSnapshotEquivalence(t *testing.T) {
	spec := testSpec()
	c, srv := startCoord(t, CoordConfig{
		Campaign:  spec,
		ShardSize: 12,
		// Short TTL so shards outlive several heartbeats and the fleet view
		// really is built from piggybacked deltas plus sealed finals.
		LeaseTTL: 300 * time.Millisecond,
	})

	got := runFleet(t, c, srv.URL, 4, WorkerConfig{})
	if got.Metrics == nil {
		t.Fatal("merged distributed report has no metrics snapshot")
	}

	want := localReport(t, spec)

	assertSnapshotCountersEqual(t, "merged report", got.Metrics, want.Metrics)
	// The converged fleet view (sealed finals for every shard) must show
	// exactly the same counters — no delta double-counting, nothing lost.
	assertSnapshotCountersEqual(t, "fleet view", c.FleetSnapshot(), want.Metrics)

	// And the coordinator's status must agree.
	st := c.Status()
	if st.Injections != want.Metrics.Injections {
		t.Errorf("status injections %d, want %d", st.Injections, want.Metrics.Injections)
	}
	if st.States["completed"] != st.Shards {
		t.Errorf("status states %v, want all %d completed", st.States, st.Shards)
	}
}

// assertSnapshotCountersEqual compares the deterministic counters of two
// snapshots: everything except wall-time-valued fields (BusyNs, the
// latency histograms' bucket shapes) which legitimately differ between
// runs.
func assertSnapshotCountersEqual(t *testing.T, label string, got, want *obs.Snapshot) {
	t.Helper()
	if got.Injections != want.Injections || got.Restores != want.Restores || got.Cycles != want.Cycles {
		t.Errorf("%s: injections/restores/cycles %d/%d/%d, want %d/%d/%d", label,
			got.Injections, got.Restores, got.Cycles,
			want.Injections, want.Restores, want.Cycles)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Errorf("%s: outcome mix %v, want %v", label, got.Outcomes, want.Outcomes)
	}
	if !reflect.DeepEqual(got.ByUnit, want.ByUnit) {
		t.Errorf("%s: per-unit counters differ:\n%v\n%v", label, got.ByUnit, want.ByUnit)
	}
	if !reflect.DeepEqual(got.ByType, want.ByType) {
		t.Errorf("%s: per-type counters differ:\n%v\n%v", label, got.ByType, want.ByType)
	}
	// Cycle-valued histograms are deterministic in full; latency histograms
	// only in their observation counts.
	if !reflect.DeepEqual(got.PropagateCycles, want.PropagateCycles) {
		t.Errorf("%s: propagate-cycles histogram differs", label)
	}
	if !reflect.DeepEqual(got.DetectCycles, want.DetectCycles) {
		t.Errorf("%s: detect-cycles histogram differs", label)
	}
	if got.InjectionNs.Count != want.InjectionNs.Count {
		t.Errorf("%s: injection latency count %d, want %d", label,
			got.InjectionNs.Count, want.InjectionNs.Count)
	}
	if got.RestoreNs.Count != want.RestoreNs.Count {
		t.Errorf("%s: restore latency count %d, want %d", label,
			got.RestoreNs.Count, want.RestoreNs.Count)
	}
}

// shardTraceEvents decodes the shard-trace JSONL buffer into per-kind
// event lists.
func shardTraceEvents(t *testing.T, data []byte) map[string][]obs.ShardEvent {
	t.Helper()
	byKind := make(map[string][]obs.ShardEvent)
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var ev obs.ShardEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("shard trace decode: %v", err)
		}
		if ev.Kind != "" {
			byKind[ev.Kind] = append(byKind[ev.Kind], ev)
		}
	}
	return byKind
}

// TestDeadWorkerRequeueTraced: when a worker leases a shard and dies, the
// shard trace must record the full forensic sequence — the zombie's lease
// grant, the expiry, the requeue with its attempt count, and the
// surviving worker's completion with a latency.
func TestDeadWorkerRequeueTraced(t *testing.T) {
	var traceBuf, logBuf syncBuffer
	sink := obs.NewTraceSink(&traceBuf, obs.TraceOptions{})

	spec := testSpec()
	spec.Flips = 24
	c, srv := startCoord(t, CoordConfig{
		Campaign:   spec,
		ShardSize:  12,
		LeaseTTL:   300 * time.Millisecond,
		ShardTrace: sink,
		Log:        obs.NewLogger(&logBuf, slog.LevelDebug, true),
	})

	var zl leaseResponse
	if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "zombie"}, &zl); s != http.StatusOK {
		t.Fatalf("zombie lease: status %d", s)
	}

	runFleet(t, c, srv.URL, 1, WorkerConfig{}) // w0, the survivor

	events := shardTraceEvents(t, traceBuf.bytes())
	var zombieLease bool
	for _, ev := range events["lease"] {
		if ev.Shard == zl.Shard.ID && ev.Worker == "zombie" {
			zombieLease = true
		}
	}
	if !zombieLease {
		t.Errorf("no lease event for the zombie's grant of shard %d", zl.Shard.ID)
	}
	if len(events["expired"]) == 0 {
		t.Error("no expired event for the abandoned lease")
	}
	requeued := false
	for _, ev := range events["requeued"] {
		if ev.Shard == zl.Shard.ID && ev.Attempt >= 1 {
			requeued = true
		}
	}
	if !requeued {
		t.Errorf("no requeued event with attempt count for shard %d; got %+v",
			zl.Shard.ID, events["requeued"])
	}
	if len(events["completed"]) != 2 {
		t.Errorf("completed events: %d, want 2 (one per shard)", len(events["completed"]))
	}
	for _, ev := range events["completed"] {
		if ev.Worker != "w0" {
			t.Errorf("shard %d completed by %q, want the survivor w0", ev.Shard, ev.Worker)
		}
		if ev.LatencyMs < 0 {
			t.Errorf("shard %d completion latency %dms < 0", ev.Shard, ev.LatencyMs)
		}
	}
	// Each transition is said once, to the trace and to the log from the same
	// value: the log holds the trace's events, field for field, each at the
	// level its kind carries.
	levels := map[string]string{"lease": "DEBUG", "completed": "INFO", "requeued": "INFO", "expired": "WARN"}
	say := func(level, kind string, ev obs.ShardEvent) string {
		return fmt.Sprintf("%s %s shard=%d [%d,%d) worker=%q attempt=%d gap=%d latency=%d detail=%q",
			level, kind, ev.Shard, ev.Lo, ev.Hi, ev.Worker, ev.Attempt, ev.GapMs, ev.LatencyMs, ev.Detail)
	}
	var traced, logged []string
	for kind, evs := range events {
		for _, ev := range evs {
			traced = append(traced, say(levels[kind], kind, ev))
		}
	}
	for _, line := range bytes.Split(bytes.TrimSpace(logBuf.bytes()), []byte("\n")) {
		var rec struct {
			Level, Msg string
			obs.ShardEvent
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %s: %v", line, err)
		}
		if kind, ok := strings.CutPrefix(rec.Msg, "shard "); ok {
			logged = append(logged, say(rec.Level, kind, rec.ShardEvent))
		}
	}
	slices.Sort(traced)
	slices.Sort(logged)
	if !slices.Equal(traced, logged) {
		t.Errorf("shard trace and log disagree:\ntrace %q\nlog   %q", traced, logged)
	}
	// The requeue discarded the zombie's (empty) live contribution: the
	// converged fleet view counts every injection exactly once.
	if snap := c.FleetSnapshot(); snap.Injections != uint64(spec.Flips) {
		t.Errorf("fleet injections %d, want %d", snap.Injections, spec.Flips)
	}
}

// syncBuffer is an io.Writer usable from the coordinator's handler
// goroutines and read by the test after Wait.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// bytes returns the accumulated contents.
func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// TestHeartbeatLastValue drives the wire protocol by hand. A heartbeat
// carries its shard's cumulative snapshot, and the newest one is the shard's
// whole contribution to every live view: the same heartbeat twice, a
// heartbeat lost between two others and an older snapshot arriving after a
// newer one all leave the status, /metrics, the worker's credit and the
// shard's live count at the newest snapshot. A body from a worker older
// than the snapshot field (increments under "delta") extends the lease and
// changes no view, a snapshot counting more than its lease covers is
// refused, and completion seals the exact final.
func TestHeartbeatLastValue(t *testing.T) {
	spec := testSpec()
	spec.Flips = 20
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})

	var l leaseResponse
	if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &l); s != http.StatusOK {
		t.Fatalf("lease: status %d", s)
	}
	snap := func(n uint64) *obs.Snapshot {
		s := obs.NewSnapshot()
		s.Injections, s.Restores, s.Outcomes["vanished"] = n, n, n
		return s
	}
	beat := func(label string, metrics string, want int) {
		t.Helper()
		body := json.RawMessage(fmt.Sprintf(`{"worker":"w","shard":%d,%s}`, l.Shard.ID, metrics))
		if s := rawPost(t, srv.URL+"/v1/heartbeat", body, nil); s != want {
			t.Fatalf("%s: heartbeat status %d, want %d", label, s, want)
		}
	}
	beatSnap := func(label string, n uint64) {
		t.Helper()
		data, _ := json.Marshal(snap(n))
		beat(label, `"metrics":`+string(data), http.StatusOK)
	}
	// Nothing moves between the scrapes of one call, so they must be the
	// same bytes, line order included: two orderings of the three
	// shard-state lines coincide one time in six, hence eight scrapes.
	scrape := func() []byte {
		t.Helper()
		var body []byte
		for i := 0; i < 8; i++ {
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			again, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if i > 0 && !bytes.Equal(again, body) {
				t.Fatalf("/metrics scrape %d of an idle coordinator differs from the one before:\n%s\nbefore:\n%s", i, again, body)
			}
			body = again
		}
		return body
	}
	// views checks every live view against a newest snapshot of n
	// injections and returns the /metrics bytes.
	views := func(label string, n uint64) []byte {
		t.Helper()
		st := c.Status()
		sv := st.ShardsV[l.Shard.ID]
		if st.Injections != n || sv.LiveInjections != n || st.Workers["w"].Injections != n || st.Outcomes["vanished"] != n {
			t.Fatalf("%s: status counts %d injections (%v), shard view %+v, worker view %+v; want %d everywhere",
				label, st.Injections, st.Outcomes, sv, st.Workers["w"], n)
		}
		if sv.State != "heartbeating" || sv.Worker != "w" || st.States["heartbeating"] != 1 || st.States["queued"] != 1 {
			t.Fatalf("%s: shard view %+v in states %v, want 1 heartbeating by w + 1 queued", label, sv, st.States)
		}
		if got := c.FleetSnapshot(); !reflect.DeepEqual(got, snap(n)) {
			t.Fatalf("%s: fleet view %+v, want the newest snapshot", label, got)
		}
		body := scrape()
		for _, want := range []string{
			fmt.Sprintf("sfi_injections_total %d\n", n),
			fmt.Sprintf(`sfi_outcome_total{outcome="vanished"} %d`, n),
			`sfi_coord_shards{state="leased"} 1`,
			"sfi_coord_lease_grants_total 1",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s: /metrics missing %q", label, want)
			}
		}
		return body
	}
	same := func(label string, n uint64, want []byte) {
		t.Helper()
		if got := views(label, n); !bytes.Equal(got, want) {
			t.Errorf("%s: /metrics moved:\n%s\nbefore:\n%s", label, got, want)
		}
	}

	beatSnap("first", 4)
	at4 := views("first", 4)
	beatSnap("replayed", 4)
	same("replayed", 4, at4)
	// The snapshots of 5 and 6 injections never arrive.
	beatSnap("after a gap", 7)
	at7 := views("after a gap", 7)
	beatSnap("overtaken", 4)
	same("overtaken", 7, at7)
	beat("delta only", `"delta":{"injections":3,"outcomes":{"vanished":3}}`, http.StatusOK)
	same("delta only", 7, at7)
	beat("over the lease", `"metrics":{"injections":11}`, http.StatusBadRequest)
	beat("far over the lease", `"metrics":{"injections":1000000000000000000}`, http.StatusBadRequest)
	same("refused", 7, at7)

	// Complete the shard: sealing replaces the live snapshot with the exact
	// final — which a report may not inflate either.
	final := obs.NewSnapshot()
	final.Injections = 1e18
	final.Restores = 10
	final.Outcomes["vanished"] = 9
	final.Outcomes["corrected"] = 1
	wire := fakeWire(10)
	wire.Metrics = final
	done := completeRequest{Worker: "w", Shard: l.Shard.ID, Report: wire}
	if s := rawPost(t, srv.URL+"/v1/complete", done, nil); s != http.StatusBadRequest {
		t.Fatalf("complete with metrics counting 1e18 injections in a 10-injection report: status %d, want 400", s)
	}
	same("refused completion", 7, at7)
	final.Injections = 10
	if s := rawPost(t, srv.URL+"/v1/complete", done, nil); s != http.StatusOK {
		t.Fatalf("complete: status %d", s)
	}
	if got := c.FleetSnapshot(); !reflect.DeepEqual(got, final) {
		t.Fatalf("fleet view after seal: %+v, want exactly the final snapshot", got)
	}
	st := c.Status()
	if w := st.Workers["w"]; w.Injections != 10 || w.ShardsDone != 1 || st.Injections != 10 {
		t.Fatalf("after complete: worker view %+v, %d fleet injections; want 10 injections, 1 shard done", w, st.Injections)
	}
}

// snapshotOf is a heartbeat snapshot of n injections, sdc of them SDCs.
func snapshotOf(n, sdc uint64) *obs.Snapshot {
	s := obs.NewSnapshot()
	s.Injections, s.Restores = n, n
	s.Outcomes["vanished"], s.Outcomes["sdc"] = n-sdc, sdc
	return s
}

// merged is the snapshots merged, as the fleet view merges them.
func merged(snaps ...*obs.Snapshot) *obs.Snapshot {
	s := obs.NewSnapshot()
	for _, o := range snaps {
		s.Merge(o)
	}
	return s
}

// ledgerClient plays workers by hand against a coordinator's HTTP API.
type ledgerClient struct {
	t   *testing.T
	url string
}

func (lc ledgerClient) lease(worker string) ShardLease {
	lc.t.Helper()
	var l leaseResponse
	if s := rawPost(lc.t, lc.url+"/v1/lease", leaseRequest{Worker: worker}, &l); s != http.StatusOK {
		lc.t.Fatalf("lease for %s: status %d", worker, s)
	}
	return l.Shard
}

func (lc ledgerClient) post(path string, req any) {
	lc.t.Helper()
	if s := rawPost(lc.t, lc.url+path, req, nil); s != http.StatusOK {
		lc.t.Fatalf("%s %+v: status %d", path, req, s)
	}
}

// TestCompletionWithoutMetricsKeepsHeartbeat: a shard report is the
// exact final word on its shard's metrics and replaces whatever the
// heartbeats said, but a report carrying no metrics keeps the newest
// heartbeat snapshot — the best count the ledger has of work that ran.
func TestCompletionWithoutMetricsKeepsHeartbeat(t *testing.T) {
	spec := testSpec()
	spec.Flips = 20
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})
	lc := ledgerClient{t, srv.URL}

	a := lc.lease("w")
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "w", Shard: a.ID, Metrics: snapshotOf(3, 0)})
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "w", Shard: a.ID, Metrics: snapshotOf(7, 1)})
	lc.post("/v1/complete", completeRequest{Worker: "w", Shard: a.ID, Report: fakeWire(10)})
	if got := c.FleetSnapshot(); !reflect.DeepEqual(got, snapshotOf(7, 1)) {
		t.Fatalf("after a completion without metrics the fleet view is %+v, want the newest heartbeat's", got)
	}
	st := c.Status()
	if sv := st.ShardsV[a.ID]; sv.State != "completed" || sv.LiveInjections != 0 || st.Injections != 7 {
		t.Fatalf("shard view %+v, %d fleet injections; want completed, nothing live, 7", sv, st.Injections)
	}

	// A report with metrics replaces its lease's heartbeats exactly.
	b := lc.lease("w")
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "w", Shard: b.ID, Metrics: snapshotOf(4, 0)})
	final := fakeWire(10)
	final.Metrics = snapshotOf(10, 2)
	lc.post("/v1/complete", completeRequest{Worker: "w", Shard: b.ID, Report: final})
	if got, want := c.FleetSnapshot(), merged(snapshotOf(7, 1), snapshotOf(10, 2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed fleet view %+v, want the kept heartbeat plus the final %+v", got, want)
	}
}

// TestRequeueDropsLeaseSnapshot: the injections of a lost lease will be
// redone, and counted, by the next one, so its heartbeat snapshot leaves
// the fleet view when the shard is requeued.
func TestRequeueDropsLeaseSnapshot(t *testing.T) {
	spec := testSpec()
	spec.Flips = 20
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})
	lc := ledgerClient{t, srv.URL}

	a, b := lc.lease("lost"), lc.lease("kept")
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "lost", Shard: a.ID, Metrics: snapshotOf(4, 1)})
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "kept", Shard: b.ID, Metrics: snapshotOf(6, 1)})
	lc.post("/v1/fail", failRequest{Worker: "lost", Shard: a.ID, Error: "boom"})
	if got := c.FleetSnapshot(); !reflect.DeepEqual(got, snapshotOf(6, 1)) {
		t.Fatalf("after the requeue the fleet view is %+v, want the kept lease's snapshot alone", got)
	}
	if sv := c.Status().ShardsV[a.ID]; sv.State != "requeued" || sv.LiveInjections != 0 {
		t.Fatalf("requeued shard view %+v, want requeued with nothing live", sv)
	}

	// The shard's next lease starts from nothing.
	if again := lc.lease("next"); again.ID != a.ID {
		t.Fatalf("re-lease handed shard %d, want the requeued %d", again.ID, a.ID)
	}
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "next", Shard: a.ID, Metrics: snapshotOf(2, 0)})
	if got, want := c.FleetSnapshot(), merged(snapshotOf(6, 1), snapshotOf(2, 0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet view %+v, want %+v", got, want)
	}
}

// TestHeartbeatMovesOnlyItsShard: a heartbeat replaces its own lease's
// snapshot and no other — every shard's live count is its own newest
// snapshot — and a fleet view handed out is the caller's to change.
func TestHeartbeatMovesOnlyItsShard(t *testing.T) {
	spec := testSpec()
	spec.Flips = 20
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})
	lc := ledgerClient{t, srv.URL}

	a, b := lc.lease("wa"), lc.lease("wb")
	live := func(label string, wantA, wantB uint64) {
		t.Helper()
		st := c.Status()
		if gotA, gotB := st.ShardsV[a.ID].LiveInjections, st.ShardsV[b.ID].LiveInjections; gotA != wantA || gotB != wantB {
			t.Fatalf("%s: live injections %d and %d, want %d and %d", label, gotA, gotB, wantA, wantB)
		}
	}
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "wa", Shard: a.ID, Metrics: snapshotOf(5, 0)})
	live("a beat", 5, 0)
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "wb", Shard: b.ID, Metrics: snapshotOf(3, 1)})
	live("b beat", 5, 3)
	lc.post("/v1/heartbeat", heartbeatRequest{Worker: "wa", Shard: a.ID, Metrics: snapshotOf(8, 2)})
	live("a beat again", 8, 3)

	view := c.FleetSnapshot()
	view.Injections, view.Outcomes["vanished"] = 999, 999
	if got, want := c.FleetSnapshot(), merged(snapshotOf(8, 2), snapshotOf(3, 1)); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet view %+v after a caller changed its copy, want %+v", got, want)
	}
}

// wireCount counts what workers send a coordinator: every request, and the
// shards of a completion that carry a "trace" key with the trace lines under
// it.
type wireCount struct {
	requests, traceKeys, lines atomic.Int64
}

// countTrace counts one completion shard's trace key and lines.
func (wc *wireCount) countTrace(doc map[string]json.RawMessage) {
	if trace, ok := doc["trace"]; ok {
		var lines []json.RawMessage
		json.Unmarshal(trace, &lines)
		wc.traceKeys.Add(1)
		wc.lines.Add(int64(len(lines)))
	}
}

// run serves cfg's coordinator through the count and runs one worker
// against it to the campaign's end.
func (wc *wireCount) run(t *testing.T, cfg CoordConfig, wcfg WorkerConfig) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	handler := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wc.requests.Add(1)
		if r.URL.Path == "/v1/complete" {
			body, _ := io.ReadAll(r.Body)
			var doc map[string]json.RawMessage
			var rest []map[string]json.RawMessage
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Errorf("completion body %s: %v", body, err)
			}
			if r, ok := doc["rest"]; ok {
				if err := json.Unmarshal(r, &rest); err != nil {
					t.Errorf("completion body %s: %v", body, err)
				}
			}
			for _, d := range append(rest, doc) {
				wc.countTrace(d)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	wcfg.Coordinator, wcfg.ID = srv.URL, "w"
	if err := RunWorker(context.Background(), wcfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardCostIndependentOfSize pins what fleet observability costs the
// control plane, by count: a run of shards is one lease, one completion and
// a heartbeat per TTL/3 it runs for (none here: the TTL outlasts the run); a
// shard in it carries TraceAttach attached trace lines when the coordinator
// records a shard trace, none when it does not — however many injections it
// holds. A lone worker's runs are half the pending shards, rounded up: 4, 2,
// 1 and 1 of 8, 1 and 1 of 2. One more request is the lease poll that
// learns the campaign is over. A worker's own trace (TraceW) gets a line per
// injection either way.
func TestShardCostIndependentOfSize(t *testing.T) {
	const attach = 4
	for size, runs := range map[int]int{12: 4, 48: 2} {
		for _, traced := range []bool{false, true} {
			for _, local := range []bool{false, true} {
				var traceBuf syncBuffer
				spec := testSpec()
				spec.Flips = 96
				cfg := CoordConfig{Campaign: spec, ShardSize: size, LeaseTTL: 10 * time.Minute}
				if traced {
					cfg.ShardTrace = obs.NewTraceSink(&traceBuf, obs.TraceOptions{})
				}
				wcfg := WorkerConfig{TraceAttach: attach}
				var localBuf bytes.Buffer
				if local {
					wcfg.TraceW = &localBuf
				}
				var wc wireCount
				wc.run(t, cfg, wcfg)
				shards, lines, keys := spec.Flips/size, 0, 0
				label := fmt.Sprintf("%d shards of %d, shard trace %v, local trace %v", shards, size, traced, local)
				if traced {
					lines, keys = attach*shards, shards
				}
				recorded := bytes.Count(traceBuf.bytes(), []byte(`"injection":`))
				if wc.requests.Load() != int64(2*runs+1) || wc.lines.Load() != int64(lines) ||
					wc.traceKeys.Load() != int64(keys) || recorded != lines {
					t.Errorf("%s: %d requests, %d completed shards with a trace key, %d attached lines, %d recorded; want %d, %d, %d, %d",
						label, wc.requests.Load(), wc.traceKeys.Load(), wc.lines.Load(), recorded,
						2*runs+1, keys, lines, lines)
				}
				if got := bytes.Count(localBuf.Bytes(), []byte("\n")); local && got != spec.Flips {
					t.Errorf("%s: the worker's local trace has %d lines, want one per injection, %d", label, got, spec.Flips)
				}
			}
		}
	}
}

// TestCompleteAttachesTrace: injection-trace lines a worker attaches to a
// completion must land in the coordinator's shard trace wrapped with
// shard/worker provenance.
func TestCompleteAttachesTrace(t *testing.T) {
	var traceBuf syncBuffer
	sink := obs.NewTraceSink(&traceBuf, obs.TraceOptions{})

	spec := testSpec()
	spec.Flips = 10
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10, ShardTrace: sink})

	var l leaseResponse
	if s := rawPost(t, srv.URL+"/v1/lease", leaseRequest{Worker: "w"}, &l); s != http.StatusOK {
		t.Fatalf("lease: status %d", s)
	}
	if s := rawPost(t, srv.URL+"/v1/complete", completeRequest{
		Worker: "w", Shard: l.Shard.ID, Report: fakeWire(10),
		Trace: []json.RawMessage{
			json.RawMessage(`{"seq":0,"bit":42,"outcome":"vanished"}`),
			json.RawMessage(`{"seq":5,"bit":77,"outcome":"sdc"}`),
		},
	}, nil); s != http.StatusOK {
		t.Fatalf("complete: status %d", s)
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	var attached []attachedTrace
	dec := json.NewDecoder(bytes.NewReader(traceBuf.bytes()))
	for {
		var raw map[string]json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if _, ok := raw["injection"]; !ok {
			continue // a shard lifecycle event
		}
		var at attachedTrace
		data, _ := json.Marshal(raw)
		if err := json.Unmarshal(data, &at); err != nil {
			t.Fatal(err)
		}
		attached = append(attached, at)
	}
	if len(attached) != 2 {
		t.Fatalf("attached trace lines in shard trace: %d, want 2", len(attached))
	}
	for _, at := range attached {
		if at.Shard != l.Shard.ID || at.Worker != "w" {
			t.Errorf("attached line provenance %+v, want shard %d worker w", at, l.Shard.ID)
		}
	}
	var ev struct {
		Bit int `json:"bit"`
	}
	if err := json.Unmarshal(attached[0].Injection, &ev); err != nil || ev.Bit != 42 {
		t.Errorf("first attached injection = %s, want bit 42 (err %v)", attached[0].Injection, err)
	}
}

// TestFinishedStatusHoldsStill: once Wait returns, the status is measured
// up to the campaign's end, so elapsed time, rates, utilization and the
// worker rows read the same however long after it is read.
func TestFinishedStatusHoldsStill(t *testing.T) {
	c, srv := startCoord(t, fuzzCoordConfig(false, 0, ""))
	if err := RunWorker(context.Background(), WorkerConfig{Coordinator: srv.URL, PollEvery: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := c.Status()
	if first.Rate <= 0 || len(first.Workers) != 1 {
		t.Fatalf("finished status shows rate %v and %d workers, want a rate and one worker", first.Rate, len(first.Workers))
	}
	time.Sleep(120 * time.Millisecond)
	if later := c.Status(); !reflect.DeepEqual(later, first) {
		t.Errorf("finished status moved:\nfirst: %+v\nlater: %+v", first, later)
	}
}
