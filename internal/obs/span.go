package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Campaign tracing: causal spans from REST submit down to individual
// bit-parallel batch passes. A Tracer mints trace/span IDs from the
// campaign-seeded splitmix64 stream (so ID sequences are reproducible per
// campaign), keeps finished spans in a bounded in-memory ring for the
// /v1/traces query APIs, and optionally mirrors every span as one JSONL
// line through the existing TraceSink plumbing. Context crosses process
// boundaries as a W3C-style traceparent string carried on the dist lease
// protocol, so worker shard and per-batch spans parent correctly under the
// server's root span.

// spanGamma is the splitmix64 sequence increment (Weyl constant); each ID
// draw advances the seeded stream by one gamma step.
const spanGamma = 0x9e3779b97f4a7c15

// spanMix is the splitmix64 output mix — the same finalizer as
// engine.Splitmix64, replicated here because obs sits below engine in the
// import graph.
func spanMix(x uint64) uint64 {
	x += spanGamma
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SpanContext is the propagated half of a span: enough to parent a child
// span in another goroutine, process, or host.
type SpanContext struct {
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Valid reports whether the context carries a usable trace/span pair.
func (c SpanContext) Valid() bool { return c.TraceID != "" && c.SpanID != "" }

// Traceparent renders the context in the W3C trace-context wire form
// (version 00, sampled flag set): "00-<trace-id>-<parent-id>-01".
func (c SpanContext) Traceparent() string {
	if !c.Valid() {
		return ""
	}
	return "00-" + c.TraceID + "-" + c.SpanID + "-01"
}

// ParseTraceparent decodes a W3C traceparent header value back into a
// SpanContext. The value comes off the network (the dist lease) and its ids
// are parsed as hex and stamped on every span minted under them, so both
// must be what trace-context allows: lowercase hex of the exact width, not
// all zero. Unknown versions and flags are accepted.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(s, "-")
	if len(parts) < 3 || !validTraceID(parts[1], 32) || !validTraceID(parts[2], 16) {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: parts[1], SpanID: parts[2]}, true
}

// validTraceID reports whether id is n lowercase hex digits, not all zero.
func validTraceID(id string, n int) bool {
	return len(id) == n && strings.Trim(id, "0123456789abcdef") == "" && strings.Trim(id, "0") != ""
}

// Span is one timed operation in a campaign's causal tree. The exported
// fields are the wire/JSONL form; a span returned by Tracer.StartSpan is
// live until End, which stamps the duration and records it.
type Span struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"span"`
	Layer    string            `json:"layer"`
	StartNs  int64             `json:"start_ns"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`

	tr    *Tracer
	start time.Time
}

// Context returns the propagation context for parenting children under
// this span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// Attr sets a string attribute and returns the span for chaining. Attrs
// are owned by the starting goroutine; set them before handing the span's
// Context to concurrent children.
func (s *Span) Attr(k, v string) *Span {
	if s == nil {
		return nil
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
	return s
}

// AttrInt sets an integer attribute.
func (s *Span) AttrInt(k string, v int64) *Span {
	return s.Attr(k, fmt.Sprintf("%d", v))
}

// End stamps the span's duration and hands it to the tracer's ring, layer
// histogram and JSONL sink. End is idempotent in effect only in that a
// second call re-records; call it exactly once.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	s.DurNs = time.Since(s.start).Nanoseconds()
	s.tr.add(*s)
}

// tracerRingCap bounds the in-memory span ring: enough for the structural
// spans of a large campaign (root, queue, image, executor, per-shard,
// per-batch) while keeping a long-lived server at a fixed footprint. The
// JSONL sink still sees every span; only the query ring overwrites.
const tracerRingCap = 4096

// Tracer mints spans for one campaign trace. IDs come from a splitmix64
// stream seeded by the campaign seed: draw n yields
// spanMix(seed + n*gamma), so two runs of the same campaign mint the same
// ID sequence. All methods are safe for concurrent use and nil-safe, so
// instrumentation sites need no "tracing enabled" branches.
type Tracer struct {
	seed uint64
	seq  atomic.Uint64

	mu      sync.Mutex
	traceID string
	sink    *TraceSink
	ring    []Span
	next    int // ring write cursor once len(ring) == cap
	total   int // spans ever added (total - len(ring) were overwritten)
	byLayer map[string]*Hist
}

// NewTracer builds a tracer whose ID stream is seeded by the campaign
// seed. The trace ID itself is the stream's first two draws; adopt a
// propagated ID instead with SetTraceID.
func NewTracer(seed uint64) *Tracer {
	t := &Tracer{seed: seed, byLayer: make(map[string]*Hist)}
	t.traceID = fmt.Sprintf("%016x%016x", t.nextID(), t.nextID())
	return t
}

func (t *Tracer) nextID() uint64 {
	n := t.seq.Add(1)
	return spanMix(t.seed + n*spanGamma)
}

// SetTraceID adopts a propagated trace ID (a worker joining a server's
// trace). Set it before starting spans.
func (t *Tracer) SetTraceID(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the trace ID spans are minted under.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// SetSink mirrors every subsequently finished span as one JSONL line
// through the sink (unsampled, like shard events). Nil detaches.
func (t *Tracer) SetSink(s *TraceSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// StartSpan opens a span under parent (zero SpanContext for a root span).
func (t *Tracer) StartSpan(name, layer string, parent SpanContext) *Span {
	return t.StartSpanAt(name, layer, parent, time.Now())
}

// StartSpanAt opens a span whose start boundary is a recorded timestamp
// (e.g. a campaign's submit time) rather than "now".
func (t *Tracer) StartSpanAt(name, layer string, parent SpanContext, at time.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		TraceID:  t.TraceID(),
		SpanID:   fmt.Sprintf("%016x", t.nextID()),
		ParentID: parent.SpanID,
		Name:     name,
		Layer:    layer,
		StartNs:  at.UnixNano(),
		tr:       t,
		start:    at,
	}
}

// Add imports an already-finished span — the path for worker span segments
// carried home on the dist complete message.
func (t *Tracer) Add(sp Span) {
	if t == nil {
		return
	}
	sp.tr = nil
	t.add(sp)
}

func (t *Tracer) add(sp Span) {
	sp.tr = nil
	t.mu.Lock()
	h := t.byLayer[sp.Layer]
	if h == nil {
		h = &Hist{}
		t.byLayer[sp.Layer] = h
	}
	if len(t.ring) < tracerRingCap {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.next = (t.next + 1) % tracerRingCap
	}
	t.total++
	sink := t.sink
	t.mu.Unlock()
	h.Observe(uint64(sp.DurNs))
	sink.RecordJSON(&sp)
}

// Spans returns the ring's finished spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Total returns how many spans were ever finished; Total() - len(Spans())
// were overwritten by the bounded ring.
func (t *Tracer) Total() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// LayerSnapshots returns the per-layer span-duration histograms in their
// mergeable snapshot form — a multi-campaign server merges these across
// its per-campaign tracers before exporting.
func (t *Tracer) LayerSnapshots() map[string]HistSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snaps := make(map[string]HistSnapshot, len(t.byLayer))
	for layer, h := range t.byLayer {
		snaps[layer] = h.Snapshot()
	}
	return snaps
}

// WriteSpanHists renders the per-layer span-duration histograms in the
// Prometheus text format as {prefix}_span_{layer}_ns — the log2 latency
// shape of each tracing layer (server, store, coord, worker, core,
// engine).
func (t *Tracer) WriteSpanHists(w io.Writer, prefix string) error {
	return WriteSpanHistSnapshots(w, prefix, t.LayerSnapshots())
}

// WriteSpanHistSnapshots renders per-layer span-duration snapshots (e.g.
// merged across tracers) as {prefix}_span_{layer}_ns.
func WriteSpanHistSnapshots(w io.Writer, prefix string, snaps map[string]HistSnapshot) error {
	for _, layer := range sortedKeys(snaps) {
		if err := WriteHistPrometheus(w, prefix, "span_"+layer+"_ns", snaps[layer]); err != nil {
			return err
		}
	}
	return nil
}
