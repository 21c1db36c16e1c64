package dist

import (
	"encoding/json"
	"fmt"
	"net/http"

	"sfi/internal/obs"
)

// The coordinator over HTTP: the lease protocol's four calls decoded from
// JSON and made on the Coordinator's own methods (coord.go) — the ones a
// worker in this process calls directly — plus the read-only views.

// Handler returns the coordinator's HTTP API:
//
//	POST /v1/lease      lease the next pending shard (204 = none pending,
//	                    410 = campaign over)
//	POST /v1/heartbeat  extend a held lease, optionally carrying the shard's
//	                    metrics snapshot so far (409 = lease lost)
//	POST /v1/complete   deliver a shard report (idempotent)
//	POST /v1/fail       give a shard back after a worker-side error
//	GET  /v1/status     full fleet status, JSON (per-shard state machine,
//	                    per-worker rates, live totals, rate/ETA)
//	GET  /v1/trace      the campaign's causal span tree with critical path
//	                    and latency attribution, JSON (empty untraced)
//	GET  /progress      campaign progress, JSON
//	GET  /metrics       live fleet-wide metrics (in-flight and completed
//	                    shard snapshots) plus coordinator shard
//	                    latency histograms and — for adaptive campaigns —
//	                    per-class confidence-interval gauges, Prometheus text
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if decodeRequest(w, r, &req) {
			resp, status, err := c.lease(r.Context(), req)
			writeReply(w, status, err, resp)
		}
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if decodeRequest(w, r, &req) {
			status, err := c.heartbeat(req)
			writeReply(w, status, err, heartbeatResponse{TTLMs: c.cfg.LeaseTTL.Milliseconds()})
		}
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if decodeRequest(w, r, &req) {
			status, err := c.complete(req)
			writeReply(w, status, err, nil)
		}
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req failRequest
		if decodeRequest(w, r, &req) {
			status, err := c.fail(req)
			writeReply(w, status, err, nil)
		}
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("GET /progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Progress())
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.TraceDoc())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		snap := c.FleetSnapshot()
		snap.WritePrometheus(w, "sfi")
		c.writeCoordMetrics(w)
		obs.WriteConvergencePrometheus(w, "sfi", c.Convergence())
		c.cfg.Tracer.WriteSpanHists(w, "sfi")
	})
	return mux
}

// TraceDoc returns the campaign's span tree with its computed critical
// path and latency attribution — the coordinator's equivalent of the
// server's /v1/campaigns/{id}/trace. Empty when the coordinator runs
// without a Tracer.
func (c *Coordinator) TraceDoc() *obs.TraceDoc {
	return c.cfg.Tracer.Doc()
}

// writeCoordMetrics appends the coordinator's own shard-ledger metrics to
// a Prometheus scrape, after the fleet snapshot.
func (c *Coordinator) writeCoordMetrics(w http.ResponseWriter) {
	p := c.Progress()
	fmt.Fprintf(w, "# TYPE sfi_coord_shards gauge\n")
	fmt.Fprintf(w, "sfi_coord_shards{state=\"done\"} %d\n", p.Done)
	fmt.Fprintf(w, "sfi_coord_shards{state=\"leased\"} %d\n", p.Leased)
	fmt.Fprintf(w, "sfi_coord_shards{state=\"pending\"} %d\n", p.Pending)
	fmt.Fprintf(w, "# TYPE sfi_coord_lease_grants_total counter\nsfi_coord_lease_grants_total %d\n", p.Grants)
	fmt.Fprintf(w, "# TYPE sfi_coord_requeues_total counter\nsfi_coord_requeues_total %d\n", p.Requeues)
	obs.WriteHistPrometheus(w, "sfi", "coord_shard_completion_ms", c.completionMs.Snapshot())
	obs.WriteHistPrometheus(w, "sfi", "coord_heartbeat_gap_ms", c.beatGapMs.Snapshot())
}

// decodeRequest reads one request document, answering 400 itself when the
// body is not one.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeReply answers a protocol call over HTTP: its status, with the reason
// when it was refused and doc (if any) when it succeeded.
func writeReply(w http.ResponseWriter, status int, err error, doc any) {
	switch {
	case err != nil:
		http.Error(w, err.Error(), status)
	case status == http.StatusOK && doc != nil:
		writeJSON(w, doc)
	default:
		w.WriteHeader(status)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
