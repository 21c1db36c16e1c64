package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sfi/internal/obs"
)

// The coordinator over HTTP: the lease protocol's four calls decoded from
// JSON and made on the Coordinator's own methods (coord.go) — the ones a
// worker in this process calls directly — plus the read-only views.

// Handler returns the coordinator's HTTP API:
//
//	POST /v1/lease      lease the next pending shard, or a run of them when
//	                    the request asks (204 = none pending, 410 = campaign
//	                    over)
//	POST /v1/heartbeat  extend every shard the worker holds, optionally
//	                    carrying the running shard's metrics snapshot so far
//	                    (409 = lease lost)
//	POST /v1/complete   deliver a run's shard reports (idempotent per shard),
//	                    answered once their journal lines are synced
//	POST /v1/fail       give a run back after a worker-side error
//	GET  /v1/status     full fleet status, JSON (per-shard state machine,
//	                    per-worker rates, live totals, rate/ETA, the stop
//	                    rule's evaluation over sealed counts)
//	GET  /v1/trace      the campaign's causal span tree with critical path
//	                    and latency attribution, JSON (empty untraced)
//	GET  /metrics       live fleet-wide metrics (in-flight and completed
//	                    shard snapshots) plus coordinator shard counts,
//	                    journal syncs, latency histograms and — for
//	                    adaptive campaigns — that evaluation's gauges,
//	                    Prometheus text
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
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.TraceDoc())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.writeMetrics(w)
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

// writeMetrics renders the ledger's part of a Prometheus scrape (fleet
// snapshot, shard counts, latency histograms, evaluation) from one read.
func (c *Coordinator) writeMetrics(w io.Writer) {
	c.mu.Lock()
	c.sweepLocked(time.Now())
	snap, eval, done, grants, requeues := c.fleetSnapshotLocked(), c.eval, c.done, c.grants, c.requeues
	syncs := 0
	if c.journal != nil {
		syncs = c.journal.syncs
	}
	leased := 0
	for _, s := range c.shards {
		if s.status == shardLeased {
			leased++
		}
	}
	pending := len(c.shards) - done - leased
	c.mu.Unlock()

	snap.WritePrometheus(w, "sfi")
	fmt.Fprintf(w, "# TYPE sfi_coord_shards gauge\n")
	fmt.Fprintf(w, "sfi_coord_shards{state=\"done\"} %d\n", done)
	fmt.Fprintf(w, "sfi_coord_shards{state=\"leased\"} %d\n", leased)
	fmt.Fprintf(w, "sfi_coord_shards{state=\"pending\"} %d\n", pending)
	fmt.Fprintf(w, "# TYPE sfi_coord_lease_grants_total counter\nsfi_coord_lease_grants_total %d\n", grants)
	fmt.Fprintf(w, "# TYPE sfi_coord_requeues_total counter\nsfi_coord_requeues_total %d\n", requeues)
	fmt.Fprintf(w, "# TYPE sfi_coord_journal_syncs_total counter\nsfi_coord_journal_syncs_total %d\n", syncs)
	obs.WriteHistPrometheus(w, "sfi", "coord_shard_completion_ms", c.completionMs.Snapshot())
	obs.WriteHistPrometheus(w, "sfi", "coord_heartbeat_gap_ms", c.beatGapMs.Snapshot())
	obs.WriteConvergencePrometheus(w, "sfi", eval)
}

// decodeRequest reads one request document, answering 400 itself when the
// body is not exactly one: nothing may follow it but whitespace. A
// completion goes through the shard-report codec.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	body, err := readBody(r)
	if err == nil {
		if done, ok := req.(*completeRequest); ok {
			err = decodeComplete(body, done)
		} else {
			err = json.Unmarshal(body, req)
		}
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// readBody reads a request's body whole. The length the request declares
// presizes the buffer up to maxPresizedBody and no further: it is a claim
// from outside, and what does arrive beyond that grows the buffer as it
// comes.
func readBody(r *http.Request) ([]byte, error) {
	n := min(max(r.ContentLength, 0), maxPresizedBody)
	body := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := body.ReadFrom(r.Body)
	return body.Bytes(), err
}

// maxPresizedBody bounds what a declared length alone makes readBody
// allocate.
const maxPresizedBody = 1 << 20

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
