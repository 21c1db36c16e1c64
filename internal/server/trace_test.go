package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"sfi/internal/obs"

	_ "sfi/internal/engine/awan" // batch-capable backend for per-batch spans
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestTraceEndToEnd locks the trace query surface and the cross-process
// span propagation it documents: submit a batch-capable campaign over real
// HTTP, let the embedded coordinator lease shards to the in-process
// worker, then check that (a) the /v1/traces and /v1/campaigns/{id}/trace
// JSON schemas hold key-for-key, (b) a worker-side engine "batch" span
// chains through ParentID links all the way to the server's root span —
// i.e. trace context survived the lease protocol — and (c) the critical
// path's self times decompose the root's wall-clock duration.
func TestTraceEndToEnd(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec("tracing", 17, 60, 20)
	spec.Campaign.Runner.Backend = "awan"
	spec.Campaign.Runner.BatchLanes = 16
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var c Campaign
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", resp.StatusCode)
	}
	waitState(t, s, c.ID, StateDone, 30*time.Second)

	// --- /v1/campaigns/{id}/trace: golden key sets ---
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + c.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", resp.StatusCode)
	}
	var bodyBuf bytes.Buffer
	if _, err := bodyBuf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(bodyBuf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	wantDoc := []string{"attribution", "critical_path", "root", "spans", "trace_id"}
	if got := sortedKeys(raw); !reflect.DeepEqual(got, wantDoc) {
		t.Errorf("trace doc keys:\ngot  %v\nwant %v", got, wantDoc)
	}
	var att map[string]json.RawMessage
	if err := json.Unmarshal(raw["attribution"], &att); err != nil {
		t.Fatal(err)
	}
	wantAtt := []string{"critical_path_fraction", "image_ms", "merge_ms",
		"other_ms", "queue_ms", "run_ms", "total_ms"}
	if got := sortedKeys(att); !reflect.DeepEqual(got, wantAtt) {
		t.Errorf("attribution keys:\ngot  %v\nwant %v", got, wantAtt)
	}
	var steps []map[string]json.RawMessage
	if err := json.Unmarshal(raw["critical_path"], &steps); err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("critical path is empty")
	}
	wantStep := []string{"dur_ms", "layer", "self_ms", "span", "span_id"}
	for _, st := range steps {
		if got := sortedKeys(st); !reflect.DeepEqual(got, wantStep) {
			t.Fatalf("critical-path step keys:\ngot  %v\nwant %v", got, wantStep)
		}
	}

	var doc obs.TraceDoc
	if err := json.Unmarshal(bodyBuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Root == nil || doc.Root.Name != "campaign" || doc.Root.Layer != "server" || doc.Root.ParentID != "" {
		t.Fatalf("root span = %+v, want the server's parentless campaign span", doc.Root)
	}
	if doc.TraceID == "" || doc.Root.TraceID != doc.TraceID {
		t.Errorf("trace IDs inconsistent: doc %q, root %q", doc.TraceID, doc.Root.TraceID)
	}

	// --- cross-process propagation: batch span chains to the root ---
	byID := map[string]*obs.SpanNode{}
	var flatten func(n *obs.SpanNode)
	flatten = func(n *obs.SpanNode) {
		byID[n.SpanID] = n
		for _, ch := range n.Children {
			flatten(ch)
		}
	}
	flatten(doc.Root)
	var batch *obs.SpanNode
	for _, n := range byID {
		if n.Name == "batch" && n.Layer == "engine" {
			batch = n
			break
		}
	}
	if batch == nil {
		t.Fatal("no engine batch span in the tree — worker spans did not ride the complete message home")
	}
	sawWorker := false
	hops := 0
	var chain []string
	for n := batch; n != doc.Root; hops++ {
		if hops > 32 {
			t.Fatal("ParentID chain from batch span never reaches the root")
		}
		chain = append(chain, n.Layer+"/"+n.Name)
		if n.Layer == "worker" {
			sawWorker = true
		}
		parent := byID[n.ParentID]
		if parent == nil {
			t.Fatalf("span %s/%s has no parent %q in the tree — propagation broke at this hop (chain so far %v)",
				n.Layer, n.Name, n.ParentID, chain)
		}
		n = parent
	}
	if !sawWorker {
		t.Errorf("batch span's ancestry skips the worker layer (no shard.run span); chain to root: %v", chain)
	}

	// --- critical path decomposes the root's duration ---
	var selfSum float64
	for _, st := range doc.CriticalPath {
		selfSum += st.SelfMs
	}
	total := doc.Attribution.TotalMs
	if tol := math.Max(1, total*0.02); math.Abs(selfSum-total) > tol {
		t.Errorf("critical-path self times sum to %.3fms, want the root duration %.3fms (±%.1f)",
			selfSum, total, tol)
	}
	if total <= 0 {
		t.Errorf("attribution total = %g, want > 0", total)
	}

	// --- /v1/status carries the attribution block ---
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + c.ID + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.TraceID != doc.TraceID {
		t.Errorf("status trace_id = %q, want %q", status.TraceID, doc.TraceID)
	}
	if status.Latency == nil || status.Latency.TotalMs != total {
		t.Errorf("status latency = %+v, want the trace attribution (total %.3fms)", status.Latency, total)
	}

	// --- /v1/traces: summary row schema ---
	resp, err = http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("traces rows = %d, want 1", len(rows))
	}
	wantRow := []string{"campaign", "latency", "spans", "state", "tenant", "trace_id"}
	if got := sortedKeys(rows[0]); !reflect.DeepEqual(got, wantRow) {
		t.Errorf("traces row keys:\ngot  %v\nwant %v", got, wantRow)
	}

	// --- /metrics exports per-layer span histograms ---
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mbuf bytes.Buffer
	mbuf.ReadFrom(resp.Body) //nolint:errcheck
	for _, want := range []string{"sfi_server_span_server_ns", "sfi_server_span_engine_ns", "sfi_server_span_worker_ns"} {
		if !bytes.Contains(mbuf.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing span histogram %s", want)
		}
	}
}

// TestTraceNotFound: unknown campaigns 404 on the trace endpoint.
func TestTraceNotFound(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/campaigns/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown campaign: status %d, want 404", resp.StatusCode)
	}
}

// spanNames flattens a trace tree into its span names.
func spanNames(n *obs.SpanNode) []string {
	names := []string{n.Name}
	for _, ch := range n.Children {
		names = append(names, spanNames(ch)...)
	}
	return names
}

// TestSettledTraceServedFromEvents: once a campaign settles its tracer is
// released and the trace is rebuilt from the spans mirrored into its
// events JSONL — complete with the root and queue-wait spans, which finish
// outside the executor — with the retained summary row agreeing with it.
// That holds for a campaign that ran, for a dedup hit that never did, and
// for a fresh server process over the same store.
func TestSettledTraceServedFromEvents(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	ran, err := s.Submit(tinySpec("a", 3, 24, 8))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, ran.ID, StateDone, 30*time.Second)
	dup, err := s.Submit(tinySpec("a", 3, 24, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Dedup {
		t.Fatal("re-submission was not a dedup hit")
	}
	// waitState returns as soon as the state flips; the tracer is retired
	// a moment later.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		live := len(s.tracers)
		s.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d tracers still held after every campaign settled", live)
		}
	}

	doc, ok := s.Trace(ran.ID)
	if !ok || doc.Root == nil {
		t.Fatal("settled campaign has no trace")
	}
	if doc.Root.Name != "campaign" || doc.Root.Attrs["state"] != StateDone {
		t.Errorf("root = %s %v, want the settled campaign span", doc.Root.Name, doc.Root.Attrs)
	}
	names := spanNames(doc.Root)
	for _, want := range []string{"queue.wait", "executor", "merge", "shard.run"} {
		if !slices.Contains(names, want) {
			t.Errorf("stored trace lacks a %q span (has %v)", want, names)
		}
	}
	sum, ok := s.traceSummary(ran.ID)
	if !ok || sum.TraceID != doc.TraceID || sum.Spans != doc.Spans ||
		sum.Latency == nil || *sum.Latency != doc.Attribution {
		t.Errorf("summary %+v (latency %+v) disagrees with the stored trace: id %s, %d spans, %+v",
			sum, sum.Latency, doc.TraceID, doc.Spans, doc.Attribution)
	}

	ddoc, ok := s.Trace(dup.ID)
	if !ok || ddoc.Root == nil || ddoc.Root.Attrs["dedup"] != "true" {
		t.Errorf("dedup hit's trace = %+v, want its lone root span", ddoc)
	}
	if rows := s.Traces(); len(rows) != 2 || rows[0].Campaign != dup.ID || rows[1].Spans != doc.Spans {
		t.Errorf("traces = %+v, want the dedup hit then the run", rows)
	}

	rows := s.Traces()
	s.Close()
	s2 := newTestServer(t, dir, nil)
	doc2, ok := s2.Trace(ran.ID)
	if !ok || doc2.TraceID != doc.TraceID || doc2.Spans != doc.Spans {
		t.Errorf("trace after restart = %+v, want the same %d spans", doc2, doc.Spans)
	}
	// The summaries come back with the spans: the list and the status of a
	// campaign settled under the previous process read as they did there,
	// from one pass over its events kept as the campaign's row.
	if rows2 := s2.Traces(); !reflect.DeepEqual(rows2, rows) {
		t.Errorf("traces after restart = %+v, want %+v", rows2, rows)
	}
	s2.mu.Lock()
	_, kept := s2.settled[ran.ID]
	s2.mu.Unlock()
	if !kept {
		t.Error("the recovered summary row was not kept")
	}
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/campaigns/"+ran.ID+"/status", nil))
	var st CampaignStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != doc.TraceID || st.Latency == nil || *st.Latency != doc.Attribution {
		t.Errorf("status after restart: trace %q latency %+v, want %q %+v", st.TraceID, st.Latency, doc.TraceID, doc.Attribution)
	}
}

// TestSettledCampaignsReleaseTheirTracers is the retention bound: a
// long-lived server must not grow by a trace per campaign. 200 campaigns
// (every fourth a dedup hit) may leave at most 20 KB of live heap each —
// the campaign record and its summary row — where a held tracer alone is
// an order of magnitude more.
func TestSettledCampaignsReleaseTheirTracers(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	run := func(from, to int) {
		for i := from; i < to; i++ {
			seed := uint64(1000 + i)
			if i%4 == 3 {
				seed-- // exact re-submission of the previous spec
			}
			c, err := s.Submit(tinySpec("t", seed, 64, 4))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, c.ID, StateDone, 30*time.Second)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(0, 8) // warm the image cache, the store and the runtime's pools
	before := heap()
	const n = 200
	run(8, 8+n)
	after := heap()
	var perCampaign int64
	if after > before {
		perCampaign = int64(after-before) / n
	}
	t.Logf("live heap %d -> %d bytes over %d campaigns: %d bytes each", before, after, n, perCampaign)
	if perCampaign > 20<<10 {
		t.Errorf("%d bytes of live heap retained per settled campaign, want < 20 KB", perCampaign)
	}
}

// treeIDs walks a trace tree and returns how many times each span ID sits
// in it; a synthetic root (no ID) is not counted.
func treeIDs(n *obs.SpanNode, ids map[string]int) map[string]int {
	if n == nil {
		return ids
	}
	if n.Layer != "synthetic" {
		ids[n.SpanID]++
	}
	for _, ch := range n.Children {
		treeIDs(ch, ids)
	}
	return ids
}

// TestResumedTraceIDsAreUnique: a campaign interrupted by a shutdown and
// resumed by a new process over the same store keeps one trace with
// unique span IDs. The resumed run mixes the count of spans its file
// already holds into its tracer, so it re-mints none of the IDs the first
// run stored: both starts' executor spans are there, and the document's
// span count is the number of nodes in its tree. A torn last line left by
// the interrupt is cut off before the resumed run appends, so every stored
// line parses.
func TestResumedTraceIDsAreUnique(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("t", 61, 240, 8)
	spec.Campaign.Runner.AVP.Testcases = 4
	spec.Campaign.Runner.AVP.BodyOps = 16

	s1 := newTestServer(t, dir, func(c *Config) { c.MaxConcurrent = 1 })
	c, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	journal := s1.st.JournalPath(c.ID)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if data, err := os.ReadFile(journal); err == nil && bytes.Count(data, []byte("\n")) >= 3 {
			break
		}
		if cc, _ := s1.Get(c.ID); cc.State == StateDone {
			t.Skip("campaign finished before the interrupt window; nothing to resume")
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never accumulated sealed shards")
		}
	}
	s1.Close()
	if cc, _ := s1.Get(c.ID); cc.State != StateQueued {
		t.Skipf("campaign is %q after the interrupt; nothing to resume", cc.State)
	}
	first, _ := s1.Trace(c.ID)
	// A crash mid-write leaves a torn last line: the resumed run must not
	// append to it.
	f, err := os.OpenFile(s1.st.EventsPath(c.ID), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"shard_event":"lease","ts_ns":17`) //nolint:errcheck
	f.Close()

	s2 := newTestServer(t, dir, func(c *Config) { c.MaxConcurrent = 1 })
	waitState(t, s2, c.ID, StateDone, 60*time.Second)
	var spans []obs.Span
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if spans, _, _ = readSpans(s2.st.EventsPath(c.ID), 0); len(spans) > 0 && spans[len(spans)-1].Name == "campaign" {
			break // the root is the last span written
		}
		if time.Now().After(deadline) {
			t.Fatal("the resumed campaign's root span never reached its events file")
		}
	}
	stored := map[string]bool{}
	for _, sp := range spans {
		stored[sp.SpanID] = true
	}
	if len(stored) != len(spans) {
		t.Errorf("%d spans stored under %d distinct IDs", len(spans), len(stored))
	}
	data, err := os.ReadFile(s2.st.EventsPath(c.ID))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if !json.Valid(line) {
			t.Errorf("events line %d of the resumed campaign does not parse: %q", i, line)
		}
	}
	doc, ok := s2.Trace(c.ID)
	if !ok {
		t.Fatal("resumed campaign has no trace")
	}
	if doc.TraceID != first.TraceID {
		t.Errorf("resumed trace ID %s, want the first run's %s", doc.TraceID, first.TraceID)
	}
	nodes := treeIDs(doc.Root, map[string]int{})
	if doc.Spans != len(nodes) || len(nodes) != len(spans) {
		t.Errorf("doc.Spans = %d, %d nodes in the tree, %d spans stored: want all equal", doc.Spans, len(nodes), len(spans))
	}
	executors := 0
	for _, sp := range spans {
		if sp.Name == "executor" {
			executors++
		}
	}
	if executors != 2 {
		t.Errorf("%d executor spans stored, want one for each start", executors)
	}
}

// TestMidRunReadsAreWhole holds a campaign mid-run — a hand-made worker
// leases one shard through the coordinator passthrough and never reports —
// after its other shards have written well over a buffer's worth of
// events. Every line GET /events serves then parses, GET /trace holds every
// span the campaign's tracer has finished, under the same IDs, and a
// campaign queued behind it answers /trace with its trace ID and no spans.
func TestMidRunReadsAreWhole(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MaxConcurrent = 1
		c.LeaseTTL = time.Minute
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := s.Submit(tinySpec("t", 71, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/campaigns/" + c.ID
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Post(base+"/coord/v1/lease", "application/json", bytes.NewReader([]byte(`{"worker":"holder"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if cc, _ := s.Get(c.ID); cc.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("no shard leased to the holder (campaign %s, last answer %d)", cc.State, resp.StatusCode)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := s.CoordStatus(c.ID); st != nil && st.States["completed"] == st.Shards-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the other shards never completed: %+v", s.CoordStatus(c.ID))
		}
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	s.mu.Lock()
	tracer := s.tracers[c.ID].tracer
	s.mu.Unlock()
	before := tracer.Spans()

	events := get("/events")
	if len(events) <= 4<<10 {
		t.Fatalf("only %d bytes of events mid-run, want more than a 4 KB buffer's worth", len(events))
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(events, []byte("\n")), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("served events line %d does not parse: %q", i, line)
		}
	}

	var doc obs.TraceDoc
	if err := json.Unmarshal(get("/trace"), &doc); err != nil {
		t.Fatal(err)
	}
	after := map[string]bool{}
	for _, sp := range tracer.Spans() {
		after[sp.SpanID] = true
	}
	nodes := treeIDs(doc.Root, map[string]int{})
	for _, sp := range before {
		if nodes[sp.SpanID] != 1 {
			t.Errorf("finished span %s/%s %s is in the mid-run trace %d times, want once", sp.Layer, sp.Name, sp.SpanID, nodes[sp.SpanID])
		}
	}
	for id := range nodes {
		if !after[id] {
			t.Errorf("mid-run trace holds span %s its tracer never finished", id)
		}
	}
	if doc.Spans != len(nodes) || doc.TraceID != tracer.TraceID() {
		t.Errorf("doc: %d spans under %s, want %d under %s", doc.Spans, doc.TraceID, len(nodes), tracer.TraceID())
	}

	queued, err := s.Submit(tinySpec("t", 72, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	var qdoc obs.TraceDoc
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + queued.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&qdoc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qdoc.TraceID == "" || qdoc.Spans != 0 {
		t.Errorf("queued campaign's trace: %d, %+v; want 200 with its trace ID and no spans", resp.StatusCode, qdoc)
	}
	// Cancelled while queued, it never runs: its queue wait and root end
	// with its events file attached, under the same trace ID.
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	cdoc, ok := s.Trace(queued.ID)
	if !ok || cdoc.TraceID != qdoc.TraceID || cdoc.Spans != 2 || cdoc.Root == nil ||
		cdoc.Root.Attrs["state"] != StateCancelled || !slices.Equal(spanNames(cdoc.Root), []string{"campaign", "queue.wait"}) {
		t.Errorf("cancelled campaign's trace = %+v, want its root (cancelled) over its queue wait", cdoc)
	}
}

// TestLiveTraceReadsOnlyNewLines grows an unsettled campaign's events
// file in steps that end mid-line. After each step, Trace (which parses
// only the bytes added since its last read) must equal a document built
// from the file's whole lines read from the start, and GET /events must
// serve exactly those lines.
func TestLiveTraceReadsOnlyNewLines(t *testing.T) {
	events, err := os.ReadFile("testdata/events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, t.TempDir(), nil)
	s.mu.Lock()
	c := &Campaign{ID: "live", State: StateQueued, SubmittedAt: time.Now()}
	s.campaigns[c.ID] = c
	ct := s.newTraceLocked(c, nil, 0)
	s.mu.Unlock()
	ct.tracer.SetTraceID(storedSpans(events)[0].TraceID)
	h := s.Handler()
	last := 0
	for _, cut := range []int{len(events) / 3, len(events)/3 + 5, len(events)/2 + 7, len(events)} {
		if err := os.WriteFile(s.st.EventsPath(c.ID), events[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := events[:bytes.LastIndexByte(events[:cut], '\n')+1]
		want := obs.BuildTraceDoc(ct.tracer.TraceID(), storedSpans(whole), 0)
		doc, ok := s.Trace(c.ID)
		if !ok || !reflect.DeepEqual(doc, want) {
			t.Fatalf("after %d bytes: Trace = %+v, want %+v", cut, doc, want)
		}
		if doc.Spans < last {
			t.Fatalf("after %d bytes: %d spans, %d before", cut, doc.Spans, last)
		}
		last = doc.Spans
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/campaigns/live/events", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), whole) {
			t.Fatalf("after %d bytes: /events served %d, %d bytes; want the %d bytes of whole lines", cut, rec.Code, rec.Body.Len(), len(whole))
		}
	}
	if last == 0 {
		t.Fatal("no span read")
	}
}

// FuzzStoredSpans feeds arbitrary bytes, as a campaign's events file, to
// Server.Trace — the one reader of a server campaign's trace. It must not
// panic; the tree it builds must hold each span once, under one root (the
// earliest parentless span, or a synthetic one when there is none), with
// doc.Spans counting its nodes; and a torn last line (bytes after the last
// newline) must read as if it were not there. The seed is a real 16-flip
// campaign's events file.
func FuzzStoredSpans(f *testing.F) {
	events, err := os.ReadFile("testdata/events.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(events)
	f.Add(events[:len(events)*2/3])
	f.Add([]byte("{\"span_id\":\"a\",\"parent_id\":\"b\"}\n{\"span_id\":\"b\",\"parent_id\":\"a\"}\n"))
	f.Add([]byte("{\"span_id\":\"a\",\"start_ns\":5}\n{\"span_id\":\"b\",\"start_ns\":5}\n{\"span_id\":\"a\",\"parent_id\":\"a\"}\n"))

	s, err := New(Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	const id = "fuzz"
	s.mu.Lock()
	s.campaigns[id] = &Campaign{ID: id, State: StateDone}
	s.mu.Unlock()
	read := func(t *testing.T, data []byte) (*obs.TraceDoc, bool) {
		if err := os.WriteFile(s.st.EventsPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return s.Trace(id)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, ok := read(t, data)
		if ok {
			nodes := treeIDs(doc.Root, map[string]int{})
			for id, n := range nodes {
				if n != 1 {
					t.Fatalf("span %q placed %d times", id, n)
				}
			}
			if doc.Spans != len(nodes) || (doc.Root == nil) != (doc.Spans == 0) {
				t.Fatalf("doc.Spans = %d with %d nodes placed (root %v)", doc.Spans, len(nodes), doc.Root != nil)
			}
			if r := doc.Root; r != nil && r.Layer != "synthetic" {
				if r.ParentID != "" {
					t.Fatalf("root %q has parent %q", r.SpanID, r.ParentID)
				}
				var walk func(n *obs.SpanNode)
				walk = func(n *obs.SpanNode) {
					if n.ParentID == "" && (n.StartNs < r.StartNs || n.StartNs == r.StartNs && n.SpanID < r.SpanID) {
						t.Fatalf("parentless span %q precedes the root %q", n.SpanID, r.SpanID)
					}
					for _, ch := range n.Children {
						walk(ch)
					}
				}
				walk(r)
			}
		}
		if whole := data[:bytes.LastIndexByte(data, '\n')+1]; len(whole) < len(data) {
			wdoc, wok := read(t, whole)
			if wok != ok || !reflect.DeepEqual(wdoc, doc) {
				t.Fatalf("a torn last line changed the trace: %+v (ok %v) without it, %+v (ok %v) with it", wdoc, wok, doc, ok)
			}
		}
	})
}

// BenchmarkTraceSummaryRunning times one GET …/status trace read of a
// running campaign: 64 shards, each with its lease and completion events,
// 32 injection lines and perShard attached spans (5 is what a p6lite shard
// sends, 512 the worker's SpanAttach limit).
func BenchmarkTraceSummaryRunning(b *testing.B) {
	lines, err := os.ReadFile("testdata/events.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	var injection json.RawMessage
	for _, line := range bytes.Split(lines, []byte("\n")) {
		if bytes.Contains(line, []byte(`"injection"`)) {
			injection = line
			break
		}
	}
	for _, perShard := range []int{5, 512} {
		b.Run(fmt.Sprintf("spans=%d", perShard), func(b *testing.B) {
			s, err := New(Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ct := runningTrace(b, s, "bench")
			for shard := range 64 {
				ev := obs.ShardEvent{Kind: "lease", Shard: shard, Lo: shard * 32, Hi: shard*32 + 32, Worker: "w", Attempt: 1}
				ct.events.RecordJSON(ev)
				sp := ct.tracer.StartSpan("shard", "coord", ct.root.Context()).AttrInt("shard", int64(shard))
				for range perShard {
					ct.tracer.StartSpan("batch", "engine", sp.Context()).AttrInt("lanes", 64).End()
				}
				for range 32 {
					ct.events.RecordJSON(injection)
				}
				ev.Kind = "completed"
				ct.events.RecordJSON(ev)
				sp.End()
			}
			b.ResetTimer()
			for range b.N {
				if row, ok := s.traceSummary("bench"); !ok || row.Spans == 0 {
					b.Fatal("no trace row")
				}
			}
		})
	}
}

// runningTrace registers a running campaign with its trace attached to its
// events file, as execute leaves it.
func runningTrace(tb testing.TB, s *Server, id string) *campaignTrace {
	s.mu.Lock()
	c := &Campaign{ID: id, State: StateRunning, SubmittedAt: time.Now()}
	s.campaigns[id] = c
	ct := s.newTraceLocked(c, nil, 0)
	s.mu.Unlock()
	if err := s.attachEvents(id, ct); err != nil {
		tb.Fatal(err)
	}
	ct.queue.End()
	return ct
}
