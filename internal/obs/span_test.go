package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestTracerDeterministicIDs locks the ID scheme: a tracer's trace ID and
// span-ID sequence are a pure function of the campaign seed, so two runs
// of the same campaign mint identical IDs.
func TestTracerDeterministicIDs(t *testing.T) {
	a, b := NewTracer(42), NewTracer(42)
	if a.TraceID() != b.TraceID() {
		t.Errorf("trace IDs differ for equal seeds: %s vs %s", a.TraceID(), b.TraceID())
	}
	if len(a.TraceID()) != 32 {
		t.Errorf("trace ID %q is not 32 hex chars", a.TraceID())
	}
	for i := 0; i < 5; i++ {
		sa := a.StartSpan("x", "core", SpanContext{})
		sb := b.StartSpan("x", "core", SpanContext{})
		if sa.SpanID != sb.SpanID {
			t.Errorf("draw %d: span IDs diverge: %s vs %s", i, sa.SpanID, sb.SpanID)
		}
		if len(sa.SpanID) != 16 {
			t.Errorf("span ID %q is not 16 hex chars", sa.SpanID)
		}
	}
	if c := NewTracer(43); c.TraceID() == a.TraceID() {
		t.Error("different seeds minted the same trace ID")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(7)
	sp := tr.StartSpan("shard", "coord", SpanContext{})
	wire := sp.Context().Traceparent()
	if !strings.HasPrefix(wire, "00-") || !strings.HasSuffix(wire, "-01") {
		t.Errorf("traceparent %q is not W3C shaped", wire)
	}
	got, ok := ParseTraceparent(wire)
	if !ok || got != sp.Context() {
		t.Errorf("round trip: got %+v ok=%v, want %+v", got, ok, sp.Context())
	}
	const tid, sid = "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"
	for _, bad := range []string{
		"", "00", "00-short-beef-01", "junk",
		"00-" + tid + "-b7ad6b716920333g-01", "00-" + tid + "-B7AD6B7169203331-01", // non-hex, uppercase
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", "00-" + tid + "-0000000000000000-01", // all zero
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed value", bad)
		}
	}
	if (SpanContext{}).Traceparent() != "" {
		t.Error("zero context rendered a traceparent")
	}
}

// FuzzParseTraceparent: no wire value panics the parser, and what it accepts
// survives its own wire form and has a span id a worker can seed from.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333g-01")
	f.Add("cc-00000000000000000000000000000001-0000000000000001")
	f.Fuzz(func(t *testing.T, s string) {
		ctx, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		again, ok := ParseTraceparent(ctx.Traceparent())
		if _, err := strconv.ParseUint(ctx.SpanID, 16, 64); err != nil || !ok || again != ctx {
			t.Fatalf("ParseTraceparent(%q) = %+v: span id hex error %v, re-parses to %+v ok=%v", s, ctx, err, again, ok)
		}
	})
}

// TestTracerNilSafe locks the no-branch instrumentation contract: every
// method on a nil tracer or nil span is a no-op.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", "y", SpanContext{})
	sp.Attr("k", "v").AttrInt("n", 1).End()
	tr.Add(Span{})
	tr.SetSink(nil)
	tr.SetTraceID("deadbeef")
	if tr.TraceID() != "" || tr.Total() != 0 || tr.Spans() != nil {
		t.Error("nil tracer leaked state")
	}
	if doc := tr.Doc(); doc == nil || doc.Spans != 0 {
		t.Errorf("nil tracer Doc = %+v", doc)
	}
	if sp.Context().Valid() {
		t.Error("nil span has a valid context")
	}
}

// TestTracerRingBound fills the ring past capacity and checks the
// overwrite accounting: the ring holds the most recent tracerRingCap
// spans, Total counts everything, and Doc reports the overflow as Dropped.
func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(1)
	const extra = 10
	for i := 0; i < tracerRingCap+extra; i++ {
		tr.Add(Span{TraceID: tr.TraceID(), SpanID: fmt.Sprintf("%016x", i+1), Name: "batch", Layer: "engine"})
	}
	spans := tr.Spans()
	if len(spans) != tracerRingCap {
		t.Fatalf("ring holds %d spans, want %d", len(spans), tracerRingCap)
	}
	if tr.Total() != tracerRingCap+extra {
		t.Errorf("Total = %d, want %d", tr.Total(), tracerRingCap+extra)
	}
	// Oldest survivors are the ones just past the overwrite window.
	if want := fmt.Sprintf("%016x", extra+1); spans[0].SpanID != want {
		t.Errorf("oldest surviving span = %s, want %s", spans[0].SpanID, want)
	}
	if doc := tr.Doc(); doc.Dropped != extra {
		t.Errorf("Doc.Dropped = %d, want %d", doc.Dropped, extra)
	}
}

func TestTracerSinkMirrorsSpans(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, TraceOptions{})
	tr := NewTracer(3)
	tr.SetSink(sink)
	tr.StartSpan("sample", "core", SpanContext{}).AttrInt("idx", 9).End()
	tr.SetSink(nil)
	tr.StartSpan("sample", "core", SpanContext{}).End() // after detach: ring only
	var line Span
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("sink line is not one span JSONL record: %v\n%s", err, buf.String())
	}
	if line.Name != "sample" || line.Layer != "core" || line.Attrs["idx"] != "9" {
		t.Errorf("sink span = %+v", line)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Errorf("sink saw %d lines, want 1 (detach must stop mirroring)", n)
	}
	if tr.Total() != 2 {
		t.Errorf("ring Total = %d, want 2", tr.Total())
	}
}

// span is a test helper building a finished span with explicit boundaries.
func span(id, parent, name, layer string, start, dur int64) Span {
	return Span{TraceID: "t", SpanID: id, ParentID: parent, Name: name, Layer: layer, StartNs: start, DurNs: dur}
}

// TestBuildTraceDocCriticalPath checks the structural invariants the
// latency attribution rests on: a single root, critical-path steps whose
// self times sum exactly to the root duration, and attribution buckets
// keyed by the span naming convention.
func TestBuildTraceDocCriticalPath(t *testing.T) {
	// A miniature service-shaped trace, times in ms-as-ns:
	//   campaign[server] 0..100
	//     queue.wait 0..20
	//     executor 20..95
	//       image.build[store] 20..30
	//       shard 30..80
	//         batch[engine] 35..75
	//       merge 80..90
	spans := []Span{
		span("01", "", "campaign", "server", 0, 100e6),
		span("02", "01", "queue.wait", "server", 0, 20e6),
		span("03", "01", "executor", "server", 20e6, 75e6),
		span("04", "03", "image.build", "store", 20e6, 10e6),
		span("05", "03", "shard", "coord", 30e6, 50e6),
		span("06", "05", "batch", "engine", 35e6, 40e6),
		span("07", "03", "merge", "server", 80e6, 10e6),
	}
	doc := BuildTraceDoc("t", spans, 0)
	if doc.Root == nil || doc.Root.Name != "campaign" || doc.Root.Layer != "server" {
		t.Fatalf("root = %+v", doc.Root)
	}
	if doc.Spans != len(spans) {
		t.Errorf("Spans = %d, want %d", doc.Spans, len(spans))
	}
	// Critical path descends into the child that finishes last at each
	// level: campaign → executor → merge.
	var names []string
	var selfSum float64
	for _, st := range doc.CriticalPath {
		names = append(names, st.Name)
		selfSum += st.SelfMs
	}
	if want := []string{"campaign", "executor", "merge"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("critical path %v, want %v", names, want)
	}
	if doc.Attribution.TotalMs != 100 {
		t.Errorf("TotalMs = %g, want 100", doc.Attribution.TotalMs)
	}
	if selfSum != doc.Attribution.TotalMs {
		t.Errorf("critical-path self times sum to %gms, want the root duration %gms",
			selfSum, doc.Attribution.TotalMs)
	}
	// Buckets: campaign(server) self 100-75=25 → other, executor self
	// 75-10=65 → run, merge self 10 → merge.
	at := doc.Attribution
	if at.OtherMs != 25 || at.RunMs != 65 || at.MergeMs != 10 || at.QueueMs != 0 || at.ImageMs != 0 {
		t.Errorf("attribution = %+v", at)
	}
	if f := at.CriticalPathFraction; f != 0.75 {
		t.Errorf("CriticalPathFraction = %g, want 0.75", f)
	}
}

// TestBuildTraceDocQueueBoundPath exercises the queue/image buckets by
// making queue wait the gating child.
func TestBuildTraceDocQueueBoundPath(t *testing.T) {
	spans := []Span{
		span("01", "", "campaign", "server", 0, 100e6),
		span("02", "01", "queue.wait", "server", 0, 90e6),
		span("03", "01", "image.clone", "store", 90e6, 10e6),
	}
	doc := BuildTraceDoc("t", spans, 0)
	at := doc.Attribution
	if at.QueueMs != 0 || at.ImageMs != 10 {
		// queue.wait ends at 90, image.clone at 100: image gates.
		t.Errorf("attribution = %+v", at)
	}
	// Flip the order so queue gates.
	spans[2] = span("03", "01", "image.clone", "store", 0, 10e6)
	at = BuildTraceDoc("t", spans, 0).Attribution
	if at.QueueMs != 90 || at.OtherMs != 10 {
		t.Errorf("queue-gated attribution = %+v", at)
	}
}

// TestBuildTraceDocSyntheticRoot covers the mid-run view: no parentless
// span has finished yet, so a synthetic root spans the observed range and
// its self time lands in OtherMs, never in an execution bucket.
func TestBuildTraceDocSyntheticRoot(t *testing.T) {
	spans := []Span{
		span("05", "99", "shard", "coord", 10e6, 30e6),
		span("06", "99", "shard", "coord", 50e6, 20e6),
	}
	doc := BuildTraceDoc("t", spans, 0)
	if doc.Root == nil || doc.Root.Layer != "synthetic" {
		t.Fatalf("root = %+v", doc.Root)
	}
	if doc.Root.StartNs != 10e6 || doc.Root.DurNs != 60e6 {
		t.Errorf("synthetic root covers [%d, +%d], want [10ms, +60ms]", doc.Root.StartNs, doc.Root.DurNs)
	}
	if len(doc.Root.Children) != 2 {
		t.Errorf("orphans not attached: %d children", len(doc.Root.Children))
	}
	at := doc.Attribution
	if at.RunMs != 20 || at.OtherMs != 40 {
		t.Errorf("attribution = %+v", at)
	}
}

// TestBuildTraceDocOrphansUnderRoot: spans whose parent was overwritten by
// the ring still attach under the real root so the tree stays connected.
func TestBuildTraceDocOrphansUnderRoot(t *testing.T) {
	spans := []Span{
		span("01", "", "campaign.run", "core", 0, 50e6),
		span("06", "dead", "batch", "engine", 5e6, 10e6),
	}
	doc := BuildTraceDoc("t", spans, 0)
	if doc.Root == nil || doc.Root.Name != "campaign.run" {
		t.Fatalf("root = %+v", doc.Root)
	}
	if len(doc.Root.Children) != 1 || doc.Root.Children[0].Name != "batch" {
		t.Fatalf("orphan batch span not reattached under root")
	}
	// A local run's root is execution itself: self time goes to RunMs.
	if at := doc.Attribution; at.RunMs != at.TotalMs {
		t.Errorf("local-run attribution = %+v, want all RunMs", at)
	}
}

// TestTracerDocEndToEnd runs real spans through a tracer and checks the
// doc view: tree shape survives the ring, and the layer histograms count
// every span.
func TestTracerDocEndToEnd(t *testing.T) {
	tr := NewTracer(11)
	root := tr.StartSpan("campaign.run", "core", SpanContext{})
	for i := 0; i < 3; i++ {
		tr.StartSpan("sample", "core", root.Context()).AttrInt("idx", int64(i)).End()
	}
	root.End()
	doc := tr.Doc()
	if doc.TraceID != tr.TraceID() {
		t.Errorf("doc trace ID %s, want %s", doc.TraceID, tr.TraceID())
	}
	if doc.Spans != 4 || doc.Dropped != 0 {
		t.Errorf("Spans=%d Dropped=%d, want 4/0", doc.Spans, doc.Dropped)
	}
	if doc.Root == nil || doc.Root.Name != "campaign.run" || len(doc.Root.Children) != 3 {
		t.Fatalf("tree shape wrong: %+v", doc.Root)
	}
	snaps := tr.LayerSnapshots()
	if snap, ok := snaps["core"]; !ok || snap.Count != 4 {
		t.Errorf("core layer histogram count = %+v", snaps)
	}
	var buf bytes.Buffer
	if err := tr.WriteSpanHists(&buf, "sfi"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sfi_span_core_ns_bucket") {
		t.Errorf("span histogram exposition missing:\n%s", buf.String())
	}
}
