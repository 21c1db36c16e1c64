package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
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
	if !ok || sum.traceID != doc.TraceID || sum.spans != doc.Spans ||
		sum.latency == nil || *sum.latency != doc.Attribution {
		t.Errorf("summary %+v (latency %+v) disagrees with the stored trace: id %s, %d spans, %+v",
			sum, sum.latency, doc.TraceID, doc.Spans, doc.Attribution)
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
