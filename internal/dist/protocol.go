// Package dist is the distributed campaign execution subsystem: a
// coordinator shards a campaign into deterministic injection-index ranges
// and leases them over HTTP+JSON to worker processes, which execute each
// shard with the ordinary warm-clone campaign machinery and post back the
// shard Report. TTL leases with heartbeats detect worker death; expired
// shards are re-queued with bounded retries; completed shards are logged
// to an on-disk journal so a restarted coordinator resumes instead of
// redoing finished work. Because a campaign's sample is a pure function of
// (seed, flips, filter) — see core.SampleCampaignBits — every shard is
// deterministic and idempotent, and merging the shard Reports in shard
// order reproduces the single-process Report exactly.
package dist

import (
	"encoding/json"
	"fmt"

	"sfi/internal/core"
	"sfi/internal/latch"
	"sfi/internal/obs"
)

// FilterSpec is the wire form of a latch.Filter: campaign filters are
// closures and cannot cross a process boundary, so the coordinator ships
// this declarative form and each worker rebuilds the closure locally.
type FilterSpec struct {
	// Kind selects the filter family: "" (whole design), "unit", "type"
	// (latch type) or "prefix" (group-name prefix, macro targeting).
	Kind string `json:"kind,omitempty"`
	Arg  string `json:"arg,omitempty"`
}

// Filter materializes the spec into a latch.Filter (nil for the
// whole-design spec).
func (f FilterSpec) Filter() (latch.Filter, error) {
	switch f.Kind {
	case "":
		return nil, nil
	case "unit":
		return latch.ByUnit(f.Arg), nil
	case "type":
		for _, t := range latch.Types {
			if t.String() == f.Arg {
				return latch.ByType(t), nil
			}
		}
		return nil, fmt.Errorf("dist: unknown latch type %q", f.Arg)
	case "prefix":
		return core.ByGroupPrefix(f.Arg), nil
	default:
		return nil, fmt.Errorf("dist: unknown filter kind %q", f.Kind)
	}
}

// WireReport is the lossless wire encoding of a core.Report. (The Report
// type's own MarshalJSON is a human-facing export that drops vanished
// results and cannot be unmarshalled; shard transport and the journal need
// exact round-trips.)
type WireReport struct {
	Total     int                       `json:"total"`
	Workers   int                       `json:"workers,omitempty"`
	Counts    map[string]int            `json:"counts"`
	ByUnit    map[string]map[string]int `json:"by_unit,omitempty"`
	ByType    map[string]map[string]int `json:"by_type,omitempty"`
	ByStratum map[string]map[string]int `json:"by_stratum,omitempty"`
	Results   []core.Result             `json:"results,omitempty"`
	Metrics   *obs.Snapshot             `json:"metrics,omitempty"`
}

// EncodeReport converts a Report to its wire form.
func EncodeReport(r *core.Report) *WireReport {
	w := &WireReport{
		Total:   r.Total,
		Workers: r.Workers,
		Counts:  make(map[string]int, len(r.Counts)),
		Results: r.Results,
		Metrics: r.Metrics,
	}
	for o, n := range r.Counts {
		w.Counts[o.String()] = n
	}
	if len(r.ByUnit) > 0 {
		w.ByUnit = make(map[string]map[string]int, len(r.ByUnit))
		for unit, row := range r.ByUnit {
			w.ByUnit[unit] = encodeOutcomeRow(row)
		}
	}
	if len(r.ByType) > 0 {
		w.ByType = make(map[string]map[string]int, len(r.ByType))
		for t, row := range r.ByType {
			w.ByType[t.String()] = encodeOutcomeRow(row)
		}
	}
	if len(r.ByStratum) > 0 {
		w.ByStratum = make(map[string]map[string]int, len(r.ByStratum))
		for key, row := range r.ByStratum {
			w.ByStratum[key] = encodeOutcomeRow(row)
		}
	}
	return w
}

func encodeOutcomeRow(row map[core.Outcome]int) map[string]int {
	out := make(map[string]int, len(row))
	for o, n := range row {
		out[o.String()] = n
	}
	return out
}

// Report converts the wire form back to a core.Report.
func (w *WireReport) Report() (*core.Report, error) {
	r := &core.Report{
		Total:   w.Total,
		Workers: w.Workers,
		Counts:  make(map[core.Outcome]int, len(w.Counts)),
		ByUnit:  make(map[string]map[core.Outcome]int, len(w.ByUnit)),
		ByType:  make(map[latch.Type]map[core.Outcome]int, len(w.ByType)),
		Results: w.Results,
		Metrics: w.Metrics,
	}
	for name, n := range w.Counts {
		o, err := outcomeByName(name)
		if err != nil {
			return nil, err
		}
		r.Counts[o] = n
	}
	for unit, row := range w.ByUnit {
		dec, err := decodeOutcomeRow(row)
		if err != nil {
			return nil, err
		}
		r.ByUnit[unit] = dec
	}
	for name, row := range w.ByType {
		var typ latch.Type
		for _, t := range latch.Types {
			if t.String() == name {
				typ = t
			}
		}
		if typ == 0 {
			return nil, fmt.Errorf("dist: unknown latch type %q in report", name)
		}
		dec, err := decodeOutcomeRow(row)
		if err != nil {
			return nil, err
		}
		r.ByType[typ] = dec
	}
	if len(w.ByStratum) > 0 {
		r.ByStratum = make(map[string]map[core.Outcome]int, len(w.ByStratum))
		for key, row := range w.ByStratum {
			dec, err := decodeOutcomeRow(row)
			if err != nil {
				return nil, err
			}
			r.ByStratum[key] = dec
		}
	}
	return r, nil
}

func decodeOutcomeRow(row map[string]int) (map[core.Outcome]int, error) {
	out := make(map[core.Outcome]int, len(row))
	for name, n := range row {
		o, err := outcomeByName(name)
		if err != nil {
			return nil, err
		}
		out[o] = n
	}
	return out, nil
}

func outcomeByName(name string) (core.Outcome, error) {
	for _, o := range core.Outcomes {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown outcome %q in report", name)
}

// ShardLease identifies one leased shard: injection indices [Lo, Hi) of
// the campaign sample — or, when Stratum is set (stratified campaigns),
// sequence indices [Lo, Hi) of that sampling stratum's own deterministic
// permutation.
type ShardLease struct {
	ID      int    `json:"id"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Stratum string `json:"stratum,omitempty"`
}

// Wire messages. Every coordinator response also uses HTTP status codes:
// 200 OK, 204 no work available right now, 410 campaign over (done or
// failed), 409 lease not held.
type (
	leaseRequest struct {
		Worker string `json:"worker"`
	}
	leaseResponse struct {
		Shard    ShardLease   `json:"shard"`
		Campaign CampaignSpec `json:"campaign"`
		TTLMs    int64        `json:"ttl_ms"`
		// Traceparent is the W3C-style trace context of the coordinator's
		// shard span ("" when the coordinator runs untraced). A worker
		// that receives one parents its shard.run span — and, through it,
		// the core campaign and per-batch engine spans — under it, so the
		// causal tree stays connected across the process boundary.
		Traceparent string `json:"traceparent,omitempty"`
	}
	heartbeatRequest struct {
		Worker string `json:"worker"`
		Shard  int    `json:"shard"`
		// Traceparent echoes the worker's shard.run span context so
		// coordinator-side heartbeat forensics (gap events) correlate with
		// the worker's spans.
		Traceparent string `json:"traceparent,omitempty"`
		// Metrics is the shard's cumulative metrics snapshot so far (nil
		// until the shard's first progress tick). It replaces the lease's
		// snapshot in the shard ledger, as the report's exact final one will
		// in turn: heartbeats are idempotent and a lost one needs no recovery.
		Metrics *obs.Snapshot `json:"metrics,omitempty"`
	}
	heartbeatResponse struct {
		TTLMs int64 `json:"ttl_ms"`
	}
	completeRequest struct {
		Worker string      `json:"worker"`
		Shard  int         `json:"shard"`
		Report *WireReport `json:"report"`
		// Trace is a bounded, sampled segment of the shard's injection
		// trace (JSONL lines as emitted by obs.TraceSink), forwarded into
		// the coordinator's shard trace for post-hoc forensics.
		Trace []json.RawMessage `json:"trace,omitempty"`
		// Spans is the shard's finished campaign spans (shard.run, the
		// core campaign spans, per-batch engine passes), carried home so
		// the coordinator's trace ring holds the whole cross-process tree.
		// Bounded by the worker's SpanAttach.
		Spans []obs.Span `json:"spans,omitempty"`
	}
	failRequest struct {
		Worker string `json:"worker"`
		Shard  int    `json:"shard"`
		Error  string `json:"error"`
	}
)
