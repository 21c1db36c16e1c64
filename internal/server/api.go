package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"

	"sfi/internal/obs"
)

// Handler returns the server's REST API:
//
//	POST   /v1/campaigns                  submit a Spec, 201 + Campaign
//	GET    /v1/campaigns                  list campaigns, newest first
//	GET    /v1/campaigns/{id}             one campaign record
//	DELETE /v1/campaigns/{id}             cancel (queued or running)
//	GET    /v1/campaigns/{id}/status      record + live coordinator status
//	GET    /v1/campaigns/{id}/report      stored report document (ETag'd)
//	GET    /v1/campaigns/{id}/events      shard trace, JSONL
//	GET    /v1/campaigns/{id}/trace       span tree + critical path +
//	                                      latency attribution
//	ANY    /v1/campaigns/{id}/coord/...   passthrough to the campaign's
//	                                      coordinator (external workers
//	                                      can join a running campaign)
//	GET    /v1/traces                     trace summaries, newest first
//	GET    /v1/status                     server-wide status
//	GET    /metrics                       Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/status", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/campaigns/{id}/coord/{rest...}", s.handleCoord)
	mux.HandleFunc("GET /v1/status", s.handleServerStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errClosing) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/v1/campaigns/"+c.ID)
	writeJSON(w, http.StatusCreated, c)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	switch err := s.Cancel(r.PathValue("id")); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// CampaignStatus is the GET /v1/campaigns/{id}/status body: the stored
// record plus, while running, the live coordinator fleet status, plus the
// trace-derived latency attribution once any spans have been recorded.
type CampaignStatus struct {
	Campaign Campaign         `json:"campaign"`
	Coord    any              `json:"coord,omitempty"`
	TraceID  string           `json:"trace_id,omitempty"`
	Latency  *obs.Attribution `json:"latency,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	out := CampaignStatus{Campaign: c}
	if cs := s.CoordStatus(id); cs != nil {
		out.Coord = cs
	}
	if row, ok := s.traceSummary(id); ok && row.Spans > 0 {
		out.TraceID = row.TraceID
		out.Latency = row.Latency
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace serves a campaign's span tree with the critical path marked
// and the latency attribution computed; mid-run it returns the tree so
// far (under a synthetic root until the real root span finishes).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	doc, ok := s.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: campaign has no trace"))
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Traces())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	data, hash, err := s.Report(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, ErrNotReady):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", `"`+hash+`"`)
	w.Write(data) //nolint:errcheck
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.campaigns[id]
	ct := s.tracers[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	path := s.st.EventsPath(id)
	var n int64 // the file's whole lines
	if ct != nil {
		_, n = ct.read(path)
	} else if fi, err := os.Stat(path); err == nil {
		n = fi.Size() // a settled campaign's file was closed whole
	}
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
	}
	if err != nil || n == 0 {
		writeError(w, http.StatusNotFound, errors.New("server: campaign has no events yet"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	io.CopyN(w, f, n) //nolint:errcheck
}

// handleCoord forwards a request to a running campaign's coordinator with
// the /v1/campaigns/{id}/coord prefix stripped, so external sfi-worker
// processes can join a server-managed campaign by pointing at this prefix.
func (s *Server) handleCoord(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	exec := s.running[id]
	s.mu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	if exec == nil || exec.coord == nil {
		writeError(w, http.StatusGone, errors.New("server: campaign is not running"))
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + r.PathValue("rest")
	exec.coord.Handler().ServeHTTP(w, r2)
}

func (s *Server) handleServerStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// handleMetrics serves the Prometheus text exposition format (hand
// rolled; no client library in the dependency budget).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Status()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	write := func(format string, args ...any) {
		fmt.Fprintf(bw, format, args...)
	}
	write("# HELP sfi_server_campaigns Campaigns by state.\n")
	write("# TYPE sfi_server_campaigns gauge\n")
	states := make([]string, 0, len(st.Campaigns))
	for state := range st.Campaigns {
		states = append(states, state)
	}
	sort.Strings(states)
	for _, state := range states {
		write("sfi_server_campaigns{state=%q} %d\n", state, st.Campaigns[state])
	}
	// Each family's HELP, TYPE and samples are one contiguous group, as the
	// text exposition format requires.
	tenants := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	write("# HELP sfi_server_queue_depth Queued campaigns per tenant.\n")
	write("# TYPE sfi_server_queue_depth gauge\n")
	for _, name := range tenants {
		write("sfi_server_queue_depth{tenant=%q} %d\n", name, st.Tenants[name].Queued)
	}
	write("# HELP sfi_server_tenant_served_total Campaigns served per tenant.\n")
	write("# TYPE sfi_server_tenant_served_total counter\n")
	for _, name := range tenants {
		write("sfi_server_tenant_served_total{tenant=%q} %d\n", name, st.Tenants[name].Served)
	}
	write("# HELP sfi_server_image_cache_hits_total Warm checkpoint-image cache hits.\n")
	write("# TYPE sfi_server_image_cache_hits_total counter\n")
	write("sfi_server_image_cache_hits_total %d\n", st.ImageCache.Hits)
	write("# HELP sfi_server_image_cache_misses_total Warm checkpoint-image cache misses.\n")
	write("# TYPE sfi_server_image_cache_misses_total counter\n")
	write("sfi_server_image_cache_misses_total %d\n", st.ImageCache.Misses)
	write("# HELP sfi_server_image_cache_images Images held by the cache.\n")
	write("# TYPE sfi_server_image_cache_images gauge\n")
	write("sfi_server_image_cache_images %d\n", st.ImageCache.Images)
	write("# HELP sfi_server_running Campaigns currently executing.\n")
	write("# TYPE sfi_server_running gauge\n")
	write("sfi_server_running %d\n", len(st.Running))
	// Span-duration log2 histograms per tracing layer, merged across every
	// campaign tracer.
	obs.WriteSpanHistSnapshots(bw, "sfi_server", s.spanHists()) //nolint:errcheck
}

// readSpans reads a campaign's events file from offset off to its last
// newline and picks out the spans. n is how many bytes it read.
func readSpans(path string, off int64) (spans []obs.Span, n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	return storedSpans(data), int64(len(data)), err
}

// storedSpans picks the spans out of events-file lines, which interleave
// them with shard and injection events (those carry no span ID and are
// not decoded). A line that does not parse is skipped.
func storedSpans(data []byte) (spans []obs.Span) {
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		var sp obs.Span
		if bytes.Contains(line, []byte(`"span_id"`)) && json.Unmarshal(line, &sp) == nil && sp.SpanID != "" {
			spans = append(spans, sp)
		}
	}
	return spans
}
