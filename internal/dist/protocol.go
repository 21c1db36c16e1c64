// Package dist is the distributed campaign execution subsystem: a
// coordinator shards a campaign into deterministic injection-index ranges
// and leases them, a run of shards at a time, over HTTP+JSON to worker
// processes, which execute each shard with the ordinary warm-clone campaign
// machinery and post back the run's shard Reports. TTL leases with heartbeats detect worker death; expired
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
	"strings"

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

// WireReport is the lossless wire encoding of a core.Report: shard
// transport, journal lines and the server's stored report document. (The
// Report type's own MarshalJSON is a human-facing export that drops vanished
// results and cannot be unmarshalled; these need exact round-trips.) It
// carries the unit × latch-type cross under by_stratum and no marginals; the
// Census is not sent, the coordinator holds its own.
type WireReport struct {
	Total     int                       `json:"total"`
	Workers   int                       `json:"workers,omitempty"`
	Counts    map[string]int            `json:"counts"`
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
	if len(r.ByStratum) > 0 {
		w.ByStratum = make(map[string]map[string]int, len(r.ByStratum))
		for key, row := range r.ByStratum {
			cell := make(map[string]int, len(row))
			for o, n := range row {
				cell[o.String()] = n
			}
			w.ByStratum[key] = cell
		}
	}
	return w
}

// Report converts the wire form back to a core.Report. Every cell must be
// keyed core.StratumKey(unit, type) of a known latch type.
func (w *WireReport) Report() (*core.Report, error) {
	r := &core.Report{
		Total:   w.Total,
		Workers: w.Workers,
		Counts:  make(map[core.Outcome]int, len(w.Counts)),
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
	if len(w.ByStratum) > 0 {
		r.ByStratum = make(map[string]map[core.Outcome]int, len(w.ByStratum))
	}
	for key, row := range w.ByStratum {
		if !isCellKey(key) {
			return nil, fmt.Errorf("dist: report cell %q is not a unit/latch-type key", key)
		}
		cell := make(map[core.Outcome]int, len(row))
		for name, n := range row {
			o, err := outcomeByName(name)
			if err != nil {
				return nil, err
			}
			cell[o] = n
		}
		r.ByStratum[key] = cell
	}
	return r, nil
}

// isCellKey reports whether key is core.StratumKey of some unit and a known
// latch type.
func isCellKey(key string) bool {
	unit := key[:max(strings.LastIndexByte(key, '/'), 0)]
	for _, t := range latch.Types {
		if core.StratumKey(unit, t) == key {
			return true
		}
	}
	return false
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
		// Copies is the number of model copies the worker runs a shard
		// over when it overrides the campaign's ShardWorkers (0: it does
		// not). The fleet's utilization divides busy time by the copies.
		Copies int `json:"copies,omitempty"`
		// Run says the worker can take a run of shards in one lease, run
		// them one after another and deliver them in one completion. A
		// request without it is leased one shard.
		Run bool `json:"run,omitempty"`
	}
	// A lease is a run of shards: Shard and Traceparent are its first, Rest
	// the ones after it in the order the worker runs them. A run of one is
	// the lease a worker that does not ask for runs has always been sent.
	leaseResponse struct {
		Shard    ShardLease   `json:"shard"`
		Rest     []shardGrant `json:"rest,omitempty"`
		Campaign CampaignSpec `json:"campaign"`
		TTLMs    int64        `json:"ttl_ms"`
		// Traceparent is the W3C-style trace context of the coordinator's
		// shard span ("" when the coordinator runs untraced). A worker
		// that receives one parents its shard.run span — and, through it,
		// the core campaign and per-batch engine spans — under it, so the
		// causal tree stays connected across the process boundary.
		Traceparent string `json:"traceparent,omitempty"`
		// AttachTrace asks the worker to attach sampled injection-trace
		// lines to the shard's completion. The coordinator sets it exactly
		// when it records a shard trace; a worker leased without it attaches
		// none, and one older than the field attaches lines anyway, which a
		// coordinator without a shard trace accepts and drops.
		AttachTrace bool `json:"attach_trace,omitempty"`
	}
	// A heartbeat names the shard its worker is running and extends the
	// lease of every shard the worker holds: the rest of its run waits on
	// the one running.
	heartbeatRequest struct {
		Worker string `json:"worker"`
		Shard  int    `json:"shard"`
		// Traceparent echoes the worker's shard.run span context so
		// coordinator-side heartbeat forensics (gap events) correlate with
		// the worker's spans.
		Traceparent string `json:"traceparent,omitempty"`
		// Copies is the number of model copies running the shard.
		Copies int `json:"copies,omitempty"`
		// Metrics is the shard's cumulative metrics snapshot as of the beat
		// (empty until the shard's run starts). It replaces the lease's
		// snapshot in the shard ledger, as the report's exact final one will
		// in turn: heartbeats are idempotent and a lost one needs no recovery.
		Metrics *obs.Snapshot `json:"metrics,omitempty"`
	}
	heartbeatResponse struct {
		TTLMs int64 `json:"ttl_ms"`
	}
	// A completion delivers a run: Shard, Report and Trace are its first
	// shard's, Rest the others'. A completion of one shard is the one a
	// worker that does not ask for runs has always sent.
	completeRequest struct {
		Worker string      `json:"worker"`
		Shard  int         `json:"shard"`
		Report *WireReport `json:"report"`
		// Trace is a bounded, sampled segment of the shard's injection
		// trace (JSONL lines as emitted by obs.TraceSink), forwarded into
		// the coordinator's shard trace for post-hoc forensics. Sent only
		// when the lease set AttachTrace, bounded by the worker's
		// TraceAttach.
		Trace []json.RawMessage `json:"trace,omitempty"`
		Rest  []shardReport     `json:"rest,omitempty"`
		// Spans is the run's finished campaign spans (shard.run, the core
		// campaign spans, per-batch engine passes), carried home so the
		// coordinator's trace ring holds the whole cross-process tree.
		// Bounded by the worker's SpanAttach per shard.
		Spans []obs.Span `json:"spans,omitempty"`
	}
	// A fail gives back every shard its worker holds: the named one failed,
	// and the rest of its run goes with it.
	failRequest struct {
		Worker string `json:"worker"`
		Shard  int    `json:"shard"`
		Error  string `json:"error"`
	}
)

// shardGrant is one shard of a lease, with the trace context of its
// coordinator span (leaseResponse.Traceparent).
type shardGrant struct {
	ShardLease
	Traceparent string `json:"traceparent,omitempty"`
}

// shardReport is one shard of a completion (completeRequest's Shard, Report
// and Trace).
type shardReport struct {
	Shard  int               `json:"shard"`
	Report *WireReport       `json:"report"`
	Trace  []json.RawMessage `json:"trace,omitempty"`
}

// run is the lease's shards in the order the worker runs them.
func (l *leaseResponse) run() []shardGrant {
	return append([]shardGrant{{l.Shard, l.Traceparent}}, l.Rest...)
}

// run is the completion's shards in the order the worker sent them.
func (r *completeRequest) run() []shardReport {
	return append([]shardReport{{r.Shard, r.Report, r.Trace}}, r.Rest...)
}
