package obs

import (
	"cmp"
	"slices"
	"strings"
)

// TraceDoc is the span-tree view served by the trace query APIs
// (GET /v1/traces, /v1/campaigns/{id}/trace and the coordinator's
// /v1/trace): the reassembled causal tree, the computed critical path,
// and the latency attribution derived from it.
type TraceDoc struct {
	TraceID string `json:"trace_id"`
	// Spans is how many spans the tree was built from; Dropped counts
	// spans the bounded ring overwrote before the query.
	Spans   int `json:"spans"`
	Dropped int `json:"dropped,omitempty"`

	Root         *SpanNode   `json:"root"`
	CriticalPath []PathStep  `json:"critical_path"`
	Attribution  Attribution `json:"attribution"`
}

// SpanNode is one span with its children attached; Critical marks the
// nodes on the trace's critical path.
type SpanNode struct {
	Span
	Critical bool        `json:"critical,omitempty"`
	Children []*SpanNode `json:"children,omitempty"`
}

// PathStep is one critical-path node with its exclusive (self)
// contribution: the part of its duration not covered by the next critical
// child. Self times along the path sum to the root's duration, so the
// critical path decomposes wall-clock campaign latency without double
// counting nested spans.
type PathStep struct {
	SpanID string  `json:"span_id"`
	Name   string  `json:"span"`
	Layer  string  `json:"layer"`
	DurMs  float64 `json:"dur_ms"`
	SelfMs float64 `json:"self_ms"`
}

// Attribution buckets the critical path's self times into the campaign
// lifecycle phases the service controls: tenant queue wait, checkpoint
// image build, shard/batch execution, and report merge. OtherMs is
// scheduler/transition time on the path that fits none of the four;
// CriticalPathFraction is the attributed share of total latency.
type Attribution struct {
	QueueMs              float64 `json:"queue_ms"`
	ImageMs              float64 `json:"image_ms"`
	RunMs                float64 `json:"run_ms"`
	MergeMs              float64 `json:"merge_ms"`
	OtherMs              float64 `json:"other_ms"`
	TotalMs              float64 `json:"total_ms"`
	CriticalPathFraction float64 `json:"critical_path_fraction"`
}

func (n *SpanNode) endNs() int64 { return n.StartNs + n.DurNs }

// BuildTraceDoc reassembles finished spans into a single-rooted tree and
// computes its critical path. The root is the parentless span that starts
// earliest (ties to the least ID); orphans (spans whose parent was
// overwritten by the ring or is still running) attach under the root so the
// tree stays connected. When no parentless span exists at all (a mid-run
// query), a synthetic root covering the observed time range is created. An
// ID seen twice keeps its last span, and spans whose parents form a cycle
// are left out: Spans counts the spans the tree holds.
func BuildTraceDoc(traceID string, spans []Span, dropped int) *TraceDoc {
	doc := &TraceDoc{TraceID: traceID, Dropped: dropped}
	nodes := make(map[string]*SpanNode, len(spans))
	all := make([]SpanNode, 0, len(spans)) // one allocation: never grown, so its pointers hold
	for i := range spans {
		sp := &spans[i]
		if sp.TraceID != "" && traceID != "" && sp.TraceID != traceID {
			continue // defensive: foreign trace mixed into the ring
		}
		if n := nodes[sp.SpanID]; n != nil {
			n.Span = *sp
			continue
		}
		all = append(all, SpanNode{Span: *sp})
		nodes[sp.SpanID] = &all[len(all)-1]
	}

	var root *SpanNode
	var orphans []*SpanNode
	for i := range all {
		n := &all[i]
		if n.ParentID != "" {
			if p := nodes[n.ParentID]; p != nil && p != n {
				p.Children = append(p.Children, n)
				continue
			}
		}
		if n.ParentID == "" && (root == nil || n.StartNs < root.StartNs ||
			n.StartNs == root.StartNs && n.SpanID < root.SpanID) {
			if root != nil {
				orphans = append(orphans, root)
			}
			root = n
			continue
		}
		orphans = append(orphans, n)
	}
	if root == nil {
		if len(orphans) == 0 {
			return doc // no span, or only cycles
		}
		// Mid-run view: no span has finished parentless yet. Synthesize a
		// root over the observed range so the tree stays queryable.
		lo, hi := orphans[0].StartNs, orphans[0].endNs()
		for _, n := range orphans[1:] {
			if n.StartNs < lo {
				lo = n.StartNs
			}
			if n.endNs() > hi {
				hi = n.endNs()
			}
		}
		root = &SpanNode{Span: Span{TraceID: traceID, Name: "trace", Layer: "synthetic", StartNs: lo, DurNs: hi - lo}}
		doc.Spans-- // the synthetic root is no recorded span
	}
	root.Children = append(root.Children, orphans...)
	var sortChildren func(n *SpanNode)
	sortChildren = func(n *SpanNode) {
		doc.Spans++
		slices.SortFunc(n.Children, func(a, b *SpanNode) int {
			return cmp.Or(cmp.Compare(a.StartNs, b.StartNs), strings.Compare(a.SpanID, b.SpanID))
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sortChildren(root)
	doc.Root = root

	// Critical path: from the root, repeatedly descend into the child that
	// finishes last — the child gating the parent's completion. Each step
	// contributes its duration minus the next step's (its self time), the
	// leaf contributes all of it, so self times sum to the root duration.
	for n := root; n != nil; {
		n.Critical = true
		var next *SpanNode
		for _, c := range n.Children {
			if next == nil || c.endNs() > next.endNs() {
				next = c
			}
		}
		self := n.DurNs
		if next != nil {
			self -= next.DurNs
			if self < 0 {
				self = 0
			}
		}
		doc.CriticalPath = append(doc.CriticalPath, PathStep{
			SpanID: n.SpanID,
			Name:   n.Name,
			Layer:  n.Layer,
			DurMs:  ms(n.DurNs),
			SelfMs: ms(self),
		})
		n = next
	}

	doc.Attribution = attributionFrom(root, doc.CriticalPath)
	return doc
}

// attributionFrom buckets critical-path self times by the span naming
// convention: queue.* spans are tenant queue wait, image.* (the store
// layer) is checkpoint image build, merge.* is report aggregation and
// persistence, and everything else is execution. The service root span
// (the server layer's "campaign") is the exception: its self time is
// submit/completion bookkeeping around the phases, which lands in
// OtherMs. A local run's root is campaign.run itself and a standalone
// coordinator's root self time is fleet execution, so both count as
// execution.
func attributionFrom(root *SpanNode, path []PathStep) Attribution {
	var a Attribution
	a.TotalMs = ms(root.DurNs)
	for _, st := range path {
		switch {
		case strings.HasPrefix(st.Name, "queue"):
			a.QueueMs += st.SelfMs
		case strings.HasPrefix(st.Name, "image") || st.Layer == "store":
			a.ImageMs += st.SelfMs
		case strings.HasPrefix(st.Name, "merge"):
			a.MergeMs += st.SelfMs
		case (st.Name == "campaign" && st.Layer == "server") || st.Layer == "synthetic":
			a.OtherMs += st.SelfMs
		default:
			a.RunMs += st.SelfMs
		}
	}
	if a.TotalMs > 0 {
		a.CriticalPathFraction = (a.QueueMs + a.ImageMs + a.RunMs + a.MergeMs) / a.TotalMs
		if a.CriticalPathFraction > 1 {
			a.CriticalPathFraction = 1
		}
	}
	return a
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// Doc builds the tracer's current TraceDoc — the tree over the ring's
// finished spans.
func (t *Tracer) Doc() *TraceDoc {
	if t == nil {
		return &TraceDoc{}
	}
	spans := t.Spans()
	return BuildTraceDoc(t.TraceID(), spans, t.Total()-len(spans))
}
