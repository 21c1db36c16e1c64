package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/obs"
)

// shardWire runs one 25-injection shard of testSpec's campaign with metrics,
// as a worker does, and returns its wire report.
func shardWire(tb testing.TB) *WireReport {
	tb.Helper()
	cfg, err := testSpec().CampaignConfig(&ShardLease{Lo: 0, Hi: 25})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Obs.Live = new(core.Live)
	rep, err := core.RunCampaign(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return EncodeReport(rep)
}

// codecDocs are completions and journal lines the writer must render as
// encoding/json does: a real shard's report (results, metrics with per-unit
// rows and histograms) alone and in a run, a stratified report, and reports
// whose strings, maps and optional fields take each of the writer's
// branches, trace lines and spans included.
func codecDocs(tb testing.TB) []any {
	real := shardWire(tb)
	strat := fakeWire(7)
	strat.Workers = 3
	escaped := fakeWire(2)
	escaped.Counts = map[string]int{"van<ished>": 1, "é": 1, `"q"`: 0, "\x01": -1}
	escaped.Results = []core.Result{{Bit: -1, Group: "a&b", Unit: " ", FirstChecker: "\xff", Detected: true,
		DetectLatency: 1<<64 - 1, Recoveries: 1, Cycles: 2, TestEnds: -3}}
	nilMaps := &WireReport{Total: 1, Metrics: &obs.Snapshot{}}
	emptyMaps := &WireReport{Total: 1, Counts: map[string]int{}, ByStratum: map[string]map[string]int{},
		Results: []core.Result{}, Metrics: obs.NewSnapshot()}
	rest := []shardReport{{Shard: 4, Report: real}, {Shard: 5, Report: strat}}
	return []any{
		completeRequest{Worker: "w0", Shard: 3, Report: real},
		completeRequest{Worker: "bench-1", Shard: 3, Report: real, Rest: rest},
		completeRequest{Worker: "w<1>", Shard: -7, Report: escaped, Rest: []shardReport{{Shard: 1, Report: nilMaps}}},
		completeRequest{Worker: "w", Shard: 0, Report: emptyMaps, Rest: []shardReport{}},
		completeRequest{Worker: "w", Shard: 0},
		completeRequest{Worker: "w", Shard: 1, Report: strat, Trace: []json.RawMessage{json.RawMessage(`{"seq":1}`)}},
		completeRequest{Worker: "w", Shard: 1, Report: strat, Rest: []shardReport{{Shard: 2, Report: strat, Trace: []json.RawMessage{}}}},
		completeRequest{Worker: "w", Shard: 1, Report: strat, Spans: []obs.Span{{TraceID: "t", SpanID: "s", Name: "shard.run"},
			{TraceID: "t", SpanID: "u", ParentID: "s", Name: "campaign.run", Layer: "core", StartNs: -1, DurNs: 1 << 59,
				Attrs: map[string]string{"worker": "w0", "lo": "25"}}}},
		completeRequest{Worker: "w", Shard: 1, Report: strat, Spans: []obs.Span{{TraceID: "t", SpanID: "s", Name: "prototype.build",
			Attrs: map[string]string{"error": "build runner: <nil>"}}}},
		journalEntry{Shard: 0, Report: real},
		journalEntry{Shard: 9, Report: escaped},
		journalEntry{Shard: 2, Report: nilMaps},
		journalEntry{Shard: 1},
		journalEntry{Shard: journalShardAlloc, Alloc: &allocRecord{Shards: []ShardLease{{ID: 1, Hi: 4, Stratum: "FXU/FUNC"}}}},
		journalHeader{V: 1, Seed: 7},
	}
}

// TestCodecWritesWhatEncodingJSONWrites holds the writer to json.Marshal byte
// for byte, and the reader, wherever it accepts what the writer wrote, to
// what encoding/json decodes from it.
func TestCodecWritesWhatEncodingJSONWrites(t *testing.T) {
	accepted := 0
	for i, doc := range codecDocs(t) {
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		if req, ok := doc.(completeRequest); ok {
			got, err = encodeComplete(&req)
		} else {
			got, err = appendJournalLine(nil, doc)
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("doc %d: the codec wrote (%v)\n%s\nencoding/json\n%s", i, err, got, want)
		}
		if _, ok := doc.(completeRequest); ok {
			accepted += checkRead(t, want, readComplete, decodeComplete)
		} else {
			accepted += checkRead(t, want, readJournalLine, decodeJournalLine)
		}
	}
	// The real report alone, in a run and on a journal line, the empty maps,
	// the run whose empty trace encoding/json leaves out and the plain spans;
	// the rest carry escapes, null or trace lines, or are no shard line.
	if accepted != 6 {
		t.Errorf("the reader accepted %d of the documents, want 6", accepted)
	}
}

// checkRead fails t unless read, wherever it accepts data, reads what
// encoding/json does, and decode always does; it returns 1 when read
// accepted.
func checkRead[T any](t *testing.T, data []byte, read func([]byte) (T, bool), decode func([]byte, *T) error) int {
	t.Helper()
	var want, got T
	wantErr := json.Unmarshal(data, &want)
	fast, ok := read(data)
	if ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("the reader accepted %s\nas %+v; encoding/json: %+v (%v)", data, fast, want, wantErr)
	}
	if err := decode(data, &got); (err != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %s gave %+v (%v); encoding/json: %+v (%v)", data, got, err, want, wantErr)
	}
	if ok {
		return 1
	}
	return 0
}

// TestCodecFallsBack feeds the reader documents outside its canonical
// subset, each a small edit of a canonical completion or journal line: it
// must refuse every one, and the decoders must answer what encoding/json
// answers, a value or an error.
func TestCodecFallsBack(t *testing.T) {
	done, err := encodeComplete(&completeRequest{Worker: "w", Shard: 2, Report: shardWire(t),
		Rest: []shardReport{{Shard: 3, Report: fakeWire(5)}}})
	if err != nil {
		t.Fatal(err)
	}
	line, err := appendJournalLine(nil, journalEntry{Shard: 2, Report: fakeWire(4)})
	if err != nil {
		t.Fatal(err)
	}
	small, err := appendJournalLine(nil, journalEntry{Shard: 1, Report: &WireReport{Total: 5, Counts: map[string]int{"vanished": 5},
		Metrics: &obs.Snapshot{Injections: 5, Outcomes: map[string]uint64{"vanished": 5}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := readComplete(done); !ok {
		t.Fatalf("the reader refuses the canonical completion %s", done)
	}
	for _, l := range [][]byte{line, small} {
		if _, ok := readJournalLine(l); !ok {
			t.Fatalf("the reader refuses the canonical journal line %s", l)
		}
	}
	edit := func(doc []byte, old, new string) []byte {
		if !bytes.Contains(doc, []byte(old)) {
			t.Fatalf("%q is not in %s", old, doc)
		}
		return bytes.Replace(doc, []byte(old), []byte(new), 1)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, done, "", "  "); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		doc        []byte
		completion bool
	}{
		{"whitespace", indented.Bytes(), true},
		{"a space after a colon", edit(done, `"shard":2`, `"shard": 2`), true},
		{"a trailing newline", append(bytes.Clone(done), '\n'), true},
		{"reordered keys", edit(done, `{"worker":"w","shard":2,`, `{"shard":2,"worker":"w",`), true},
		{"reordered map keys", edit(line, `"corrected":1,"vanished":3`, `"vanished":3,"corrected":1`), false},
		{"an escaped string", edit(done, `"worker":"w"`, `"worker":"\u0077"`), true},
		{"an escaped map key", edit(line, `"vanished"`, `"\u0076anished"`), false},
		{"a non-ASCII string", edit(done, `"worker":"w"`, `"worker":"wé"`), true},
		{"invalid UTF-8", edit(done, `"worker":"w"`, "\"worker\":\"w\xff\""), true},
		{"a control character", edit(done, `"worker":"w"`, "\"worker\":\"w\x01\""), true},
		{"null metrics", edit(small, `"metrics":{`, `"metrics":null,"unknown":{`), false},
		{"a null report", []byte(`{"shard":1,"report":null}`), false},
		{"null counts", edit(line, `"counts":{"corrected":1,"vanished":3}`, `"counts":null`), false},
		{"null outcomes", edit(small, `"outcomes":{"vanished":5}`, `"outcomes":null`), false},
		{"duplicate counts", edit(line, `"counts":{"corrected":1,"vanished":3}`, `"counts":{"corrected":1,"vanished":3},"counts":{"vanished":4}`), false},
		{"a duplicate map key", edit(line, `"corrected":1,"vanished":3`, `"corrected":1,"corrected":2,"vanished":3`), false},
		{"an unknown field", edit(done, `"shard":2,`, `"shard":2,"extra":[1,{"a":null}],`), true},
		{"a key in another case", edit(done, `"worker":`, `"Worker":`), true},
		{"trace lines", edit(done, `,"rest":`, `,"trace":[{"seq":1,"bit":2}],"rest":`), true},
		{"trace lines in the run", edit(done, `"by_stratum":{"FXU/FUNC":{"corrected":1,"vanished":4}}}}`,
			`"by_stratum":{"FXU/FUNC":{"corrected":1,"vanished":4}}},"trace":[{"seq":9}]}`), true},
		{"spans before the run", edit(done, `,"rest":`, `,"spans":[{"trace_id":"t","span_id":"s","span":"shard.run","layer":"worker","start_ns":1,"dur_ns":2}],"rest":`), true},
		{"a span with an escaped attribute", append(bytes.Clone(done[:len(done)-1]), `,"spans":[{"trace_id":"t","span_id":"s","span":"shard.run","layer":"worker","start_ns":1,"dur_ns":2,"attrs":{"error":"\u003cnil\u003e"}}]}`...), true},
		{"a float", edit(done, `"shard":2`, `"shard":2.0`), true},
		{"an exponent", edit(done, `"shard":2`, `"shard":2e0`), true},
		{"a leading zero", edit(done, `"shard":2`, `"shard":02`), true},
		{"a negative zero count", edit(line, `"corrected":1`, `"corrected":-0`), false},
		{"a negative uint", edit(small, `"injections":5`, `"injections":-5`), false},
		{"an int past int64", edit(done, `"shard":2`, `"shard":9223372036854775808`), true},
		{"a uint of 20 digits", edit(small, `"injections":5`, `"injections":18446744073709551615`), false},
		{"a uint past uint64", edit(small, `"injections":5`, `"injections":18446744073709551616`), false},
		{"a short histogram", edit(small, `"buckets":[0,`, `"buckets":[`), false},
		{"a long histogram", edit(small, `"buckets":[0,`, `"buckets":[0,0,`), false},
		{"an empty results array", edit(line, `"by_stratum":`, `"results":[],"by_stratum":`), false},
		{"a string for a number", edit(line, `"total":4`, `"total":"4"`), false},
		{"a number for a bool", edit(done, `"Detected":false`, `"Detected":0`), true},
		{"a stop line", []byte(`{"shard":-1,"stop":{"converged":true}}`), false},
		{"trailing junk", append(bytes.Clone(done), " junk"...), true},
		{"a second document", append(bytes.Clone(line), line...), false},
		{"a truncated document", done[:len(done)/2], true},
		{"no document", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var accepted int
			if tc.completion {
				accepted = checkRead(t, tc.doc, readComplete, decodeComplete)
			} else {
				accepted = checkRead(t, tc.doc, readJournalLine, decodeJournalLine)
			}
			if accepted != 0 {
				t.Errorf("the reader accepted %s", tc.doc)
			}
		})
	}
}

// TestRequestIsOneDocument posts bodies that are not exactly one JSON
// document to the four protocol calls: each is refused with 400, where a
// streaming decoder would have read the first document and ignored the rest.
func TestRequestIsOneDocument(t *testing.T) {
	spec := testSpec()
	spec.Flips = 20
	_, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10})
	done, err := json.Marshal(completeRequest{Worker: "a", Shard: 0, Report: fakeWire(10)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/lease", `{"worker":"a"} trailing junk`},
		{"/v1/lease", `{"worker":"a"}{"worker":"b"}`},
		{"/v1/heartbeat", `{"worker":"a","shard":0} x`},
		{"/v1/complete", string(done) + ` trailing junk`},
		{"/v1/complete", string(done) + string(done)},
		{"/v1/fail", `{"worker":"a","shard":0,"error":"boom"} ]`},
		{"/v1/lease", ``},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	// Whitespace after the document is no second one.
	resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader("{\"worker\":\"a\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a lease request with a trailing newline: status %d, want 200", resp.StatusCode)
	}
}

// TestDeclaredLengthIsNoAllocation: a request that declares a length far
// past what it sends gets a buffer sized to maxPresizedBody at most, and
// the bytes it did send.
func TestDeclaredLengthIsNoAllocation(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/lease", strings.NewReader(`{"worker":"a"}`))
	r.ContentLength = 64 << 20
	body, err := readBody(r)
	if err != nil || string(body) != `{"worker":"a"}` {
		t.Fatalf("readBody = %q, %v; want the body sent", body, err)
	}
	if c := cap(body); c > maxPresizedBody+bytes.MinRead {
		t.Errorf("a declared 64 MiB presized %d bytes, want at most %d", c, maxPresizedBody+bytes.MinRead)
	}
}

// TestWorkerSendsWhatEncodingJSONSends runs real HTTP workers, untraced
// and traced (with spans), and requires every completion body they post to
// be json.Marshal of the completeRequest the worker handed its transport:
// old coordinators read what new workers send.
func TestWorkerSendsWhatEncodingJSONSends(t *testing.T) {
	for _, tracer := range []*obs.Tracer{nil, obs.NewTracer(1)} {
		spec := testSpec()
		spec.Flips = 60
		c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var posted []string
		h := c.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/complete" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				posted = append(posted, string(body))
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		}))
		sent := &sentCompletions{httpCoordinator: httpCoordinator{base: srv.URL, client: srv.Client()}}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, err = c.Run(ctx, 2, func(ctx context.Context, i int) error {
			return runWorker(ctx, WorkerConfig{ID: fmt.Sprintf("w%d", i), PollEvery: 10 * time.Millisecond}, sent)
		})
		cancel()
		srv.Close()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(posted) == 0 || len(posted) != len(sent.reqs) {
			t.Fatalf("%d completions posted of %d sent", len(posted), len(sent.reqs))
		}
		want := make(map[string]int)
		for _, req := range sent.reqs {
			if (tracer != nil) != (len(req.Spans) > 0) {
				t.Errorf("a completion with %d spans from a worker traced %v", len(req.Spans), tracer != nil)
			}
			data, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			want[string(data)]++
		}
		for _, body := range posted {
			if want[body] == 0 {
				t.Errorf("a worker posted\n%s\nwhich is json.Marshal of no completion it sent", body)
			}
			want[body]--
		}
	}
}

// sentCompletions is an HTTP coordinator that keeps every completion a
// worker hands it before encoding it.
type sentCompletions struct {
	httpCoordinator
	mu   sync.Mutex
	reqs []completeRequest
}

func (s *sentCompletions) complete(req completeRequest) (int, error) {
	s.mu.Lock()
	s.reqs = append(s.reqs, req)
	s.mu.Unlock()
	return s.httpCoordinator.complete(req)
}
