// Package server is the campaign-as-a-service layer: a persistent daemon
// that accepts fault-injection campaign submissions over a REST API,
// multiplexes them through a bounded-concurrency queue with weighted
// fair-share scheduling across tenants, and executes each one on the
// existing dist coordinator/worker machinery embedded in-process. All
// durable state lives in a content-addressed store (internal/store):
// finished reports are keyed by spec digest — resubmitting an identical
// spec is served from the store without running anything — and the
// expensive warm boot (AVP generation, warm-up, phased checkpoints) is
// built once per checkpoint-image digest and cloned into every campaign
// that shares it. Coordinator journals give crash-restart resume: a
// server reopened over the same store re-queues interrupted campaigns and
// their coordinators replay completed shards instead of redoing them.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"sfi/internal/core"
	"sfi/internal/dist"
	"sfi/internal/engine"
	"sfi/internal/obs"
	"sfi/internal/stats"
	"sfi/internal/store"
)

// Campaign states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Config parameterizes a campaign server.
type Config struct {
	// Dir is the root of the content-addressed store (required).
	Dir string

	// MaxConcurrent bounds how many campaigns run at once (default 2);
	// the rest wait in the fair-share queue.
	MaxConcurrent int

	// TenantWeights sets per-tenant scheduling weights; tenants not
	// listed get weight 1. A weight-3 tenant is served 3 campaigns for
	// every 1 of a weight-1 tenant while both have work queued.
	TenantWeights map[string]float64

	// ShardSize is the default injections-per-shard for campaigns that
	// don't set their own (0 = the dist default, ~64 shards, but at
	// least 16 injections a shard).
	ShardSize int

	// LeaseTTL is the shard lease TTL of embedded campaign coordinators
	// (default 2s — heartbeats are in-process, so a short TTL is cheap
	// and bounds resume loss).
	LeaseTTL time.Duration

	// ImageCacheSize bounds the warm checkpoint-image cache (default 4
	// images).
	ImageCacheSize int

	// Log receives structured server lifecycle events (nil = silent).
	Log *slog.Logger
}

// Spec is a campaign submission: the wire-serializable campaign plus
// server-level placement.
type Spec struct {
	// Tenant attributes the campaign for fair-share scheduling
	// ("" = "default").
	Tenant string `json:"tenant,omitempty"`

	// Campaign is the campaign to run, exactly as the dist layer defines
	// it (backend, workload, sample size, filter, stopping rule, lanes
	// via Runner.BatchLanes).
	Campaign dist.CampaignSpec `json:"campaign"`

	// ShardSize overrides the server's default injections-per-shard.
	ShardSize int `json:"shard_size,omitempty"`
}

// Campaign is one submission's full lifecycle record — the JSON served by
// GET /v1/campaigns/{id} and persisted in the store.
type Campaign struct {
	ID     string `json:"id"`
	Seq    int64  `json:"seq"`
	Tenant string `json:"tenant"`
	Spec   Spec   `json:"spec"`

	// Digest is the spec's content address: submissions with equal
	// digests produce byte-identical reports, so the store serves later
	// ones from the first one's stored report.
	Digest string `json:"digest"`

	// ImageDigest addresses the warm checkpoint image the campaign boots
	// from; campaigns sharing it share one cached image.
	ImageDigest string `json:"image_digest"`

	State string `json:"state"`

	// Dedup marks a campaign answered entirely from the store (a report
	// with the same spec digest already existed).
	Dedup bool `json:"dedup,omitempty"`
	// ImageHit marks that the boot phase was served from the warm image
	// cache instead of built from scratch.
	ImageHit bool `json:"image_hit,omitempty"`
	// BootMs is the boot phase latency: the time from the embedded
	// worker asking for its prototype runner to having one (a full build
	// on a cache miss, a clone on a hit).
	BootMs float64 `json:"boot_ms,omitempty"`

	ReportHash   string `json:"report_hash,omitempty"`
	Injections   int    `json:"injections,omitempty"`
	StoppedEarly bool   `json:"stopped_early,omitempty"`
	Error        string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// ReportDoc is the stored (and served) form of a finished campaign
// report. The wire report's metrics snapshot is stripped before storing:
// timing histograms are nondeterministic, and the document must be a pure
// function of the spec so content addressing dedups identical campaigns.
type ReportDoc struct {
	SpecDigest   string             `json:"spec_digest"`
	Report       *dist.WireReport   `json:"report"`
	Convergence  *stats.Convergence `json:"convergence,omitempty"`
	StoppedEarly bool               `json:"stopped_early,omitempty"`
}

// Sentinel errors of the campaign API.
var (
	ErrNotFound  = errors.New("server: no such campaign")
	ErrFinished  = errors.New("server: campaign already finished")
	ErrNotReady  = errors.New("server: campaign has no report yet")
	errClosing   = errors.New("server: shutting down")
	errCancelled = errors.New("server: campaign cancelled")
)

// Server is a persistent multi-campaign daemon.
type Server struct {
	cfg     Config
	st      *store.Store
	log     *slog.Logger
	images  *core.ImageCache
	started time.Time

	ctx      context.Context
	shutdown context.CancelCauseFunc

	mu        sync.Mutex
	campaigns map[string]*Campaign
	tracers   map[string]*campaignTrace // unsettled campaigns only
	settled   map[string]TraceSummary   // a settled campaign's trace row
	spanAgg   map[string]obs.HistSnapshot
	queue     *fairQueue
	running   map[string]*execution
	seq       int64
	closed    bool

	wg sync.WaitGroup // campaign executions
}

// execution is the server's handle on one running campaign.
type execution struct {
	coord  *dist.Coordinator
	cancel context.CancelCauseFunc
}

// campaignTrace is one unsettled campaign's tracer plus the structural
// spans the server holds open across scheduling stages: the root
// "campaign" span (submit to settle) and the "queue.wait" span (submit to
// start). Every span ends while events, the campaign's events file, is
// attached: that file is the campaign's one trace. spans holds the spans
// in the file's first whole bytes, so a read parses only newer lines.
type campaignTrace struct {
	tracer *obs.Tracer
	root   *obs.Span
	queue  *obs.Span

	mu     sync.Mutex // guards events, whole and spans
	events *obs.TraceSink
	whole  int64
	spans  []obs.Span
}

// newTraceLocked creates and registers an unsettled campaign's trace, at
// submission or recovery; its root span and queue wait (a dedup hit has
// none) start at the original submission. The tracer seed mixes the
// submission sequence into the campaign seed, so equal specs get distinct
// trace IDs and a replayed submission order the same ones. stored holds
// the spans earlier runs left in the events file's first whole bytes: a
// resumed campaign keeps its trace ID but mixes their count into its span
// IDs, so it re-mints none of theirs (a first run's do not move).
func (s *Server) newTraceLocked(c *Campaign, stored []obs.Span, whole int64) *campaignTrace {
	seed := c.Spec.Campaign.Seed ^ engine.Splitmix64(uint64(c.Seq)+1)
	tr := obs.NewTracer(seed)
	if len(stored) > 0 {
		id := tr.TraceID()
		tr = obs.NewTracer(seed ^ engine.Splitmix64(uint64(len(stored))))
		tr.SetTraceID(id)
	}
	ct := &campaignTrace{tracer: tr, whole: whole, spans: stored}
	ct.root = tr.StartSpanAt("campaign", "server", obs.SpanContext{}, c.SubmittedAt).
		Attr("campaign", c.ID).Attr("tenant", c.Tenant)
	if !c.Dedup {
		ct.queue = tr.StartSpanAt("queue.wait", "server", ct.root.Context(), c.SubmittedAt)
	}
	s.tracers[c.ID] = ct
	return ct
}

// read flushes the attached events file and parses the whole lines
// written since the last read. It returns every span in the file and the
// length of its whole lines.
func (ct *campaignTrace) read(path string) ([]obs.Span, int64) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.events.Flush()
	spans, n, _ := readSpans(path, ct.whole) // no file yet: no spans
	ct.spans, ct.whole = append(ct.spans, spans...), ct.whole+n
	return slices.Clip(ct.spans), ct.whole
}

// summarize reduces a trace document to its TraceSummary row (the caller
// names the campaign): all a settled campaign keeps in memory of its trace,
// a few hundred bytes against the ~220 KB of a 64-flip campaign's tracer.
func summarize(doc *obs.TraceDoc) TraceSummary {
	row := TraceSummary{TraceID: doc.TraceID, Spans: doc.Spans}
	if doc.Spans > 0 {
		latency := doc.Attribution // a copy: a pointer into the doc would pin the whole tree
		row.Latency = &latency
	}
	return row
}

// attachEvents opens the campaign's events file for append (a resumed
// campaign extends its history) and points its tracer at it.
func (s *Server) attachEvents(id string, ct *campaignTrace) error {
	events, err := obs.OpenTraceFile(s.st.EventsPath(id), true, obs.TraceOptions{})
	if err != nil {
		s.log.Error("campaign trace persist failed", "campaign", id, "path", s.st.EventsPath(id), "err", err)
		return err
	}
	ct.mu.Lock()
	ct.events = events
	ct.mu.Unlock()
	ct.tracer.SetSink(events)
	return nil
}

// detachEvents detaches the campaign's events file and closes it.
func (s *Server) detachEvents(id string, ct *campaignTrace) {
	ct.tracer.SetSink(nil)
	ct.mu.Lock()
	err := ct.events.Close()
	ct.events = nil
	ct.mu.Unlock()
	if err != nil {
		s.log.Error("campaign trace persist failed", "campaign", id, "path", s.st.EventsPath(id), "err", err)
	}
}

// retireTrace releases a settled campaign's tracer, folding its per-layer
// histograms into the server-wide aggregate.
func (s *Server) retireTrace(id string, ct *campaignTrace) {
	hists := ct.tracer.LayerSnapshots()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tracers, id)
	for layer, snap := range hists {
		m := s.spanAgg[layer]
		m.Merge(snap)
		s.spanAgg[layer] = m
	}
}

// settleUnrun ends the open spans of a campaign that settled without
// running (a dedup hit, which has no queue wait, or a queued cancel) with
// its events file attached, then closes the file and retires the tracer.
func (s *Server) settleUnrun(id string, ct *campaignTrace, state string) {
	s.attachEvents(id, ct) //nolint:errcheck // logged; the spans still end
	ct.queue.End()
	ct.root.Attr("state", state).End()
	s.detachEvents(id, ct)
	s.retireTrace(id, ct)
}

// New opens (or reopens) a campaign server over a store directory,
// recovers persisted campaigns — queued and interrupted-running ones
// re-enter the queue in submission order and resume from their journals —
// and starts as many of them as there are free slots.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: Config.Dir is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	st, err := store.Open(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:       cfg,
		st:        st,
		log:       cfg.Log,
		images:    core.NewImageCache(cfg.ImageCacheSize),
		started:   time.Now(),
		ctx:       ctx,
		shutdown:  cancel,
		campaigns: make(map[string]*Campaign),
		tracers:   make(map[string]*campaignTrace),
		settled:   make(map[string]TraceSummary),
		spanAgg:   make(map[string]obs.HistSnapshot),
		queue:     newFairQueue(cfg.TenantWeights),
		running:   make(map[string]*execution),
	}
	if err := s.recover(); err != nil {
		cancel(errClosing)
		return nil, err
	}
	s.mu.Lock()
	s.startQueuedLocked()
	s.mu.Unlock()
	return s, nil
}

// recover loads persisted campaign records and re-queues unfinished ones.
func (s *Server) recover() error {
	var resumed []*Campaign
	err := s.st.LoadCampaigns(func(id string, data []byte) error {
		var c Campaign
		if err := json.Unmarshal(data, &c); err != nil {
			return fmt.Errorf("server: campaign record %s: %w", id, err)
		}
		if c.State == StateRunning {
			// A store written by a server that saved a campaign's record
			// when it started, and died mid-campaign: the record is the
			// submit-time one but for these two fields, which is all this
			// server saves before the campaign settles. The journal holds
			// the completed shards; re-queue and the coordinator replays them.
			c.State = StateQueued
			c.StartedAt = nil
		}
		s.campaigns[c.ID] = &c
		if c.State == StateQueued {
			resumed = append(resumed, &c)
		}
		if c.Seq >= s.seq {
			s.seq = c.Seq + 1
		}
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(resumed, func(a, b *Campaign) int { return int(a.Seq - b.Seq) })
	for _, c := range resumed {
		// The events file is cut back to its whole lines, so what the
		// resumed run appends starts a line of its own even after a crash
		// tore the last one (should the cut fail, that merged line is
		// skipped on read).
		path := s.st.EventsPath(c.ID)
		spans, n, err := readSpans(path, 0) // no file: nothing stored
		if err == nil {
			os.Truncate(path, n) //nolint:errcheck
		}
		s.newTraceLocked(c, spans, n)
		s.queue.push(c.Tenant, c.ID)
		if err := s.st.SaveCampaign(c.ID, *c); err != nil {
			return err
		}
	}
	if len(resumed) > 0 {
		s.log.Info("campaigns recovered", "queued", len(resumed), "total", len(s.campaigns))
	}
	return nil
}

// Close drains the server: no campaign starts after it, running ones are
// interrupted (their journals keep their completed shards; a reopened server
// resumes them), and it returns once their records are persisted.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.shutdown(errClosing)
	s.wg.Wait()
}

// specDigest is the spec's content address at its effective shard size, so
// trivially-equal submissions (explicit vs default shard size, and "" vs
// "p6lite", which CampaignSpec.Digest resolves) share one report.
func (s *Server) specDigest(spec Spec) string {
	return spec.Campaign.Digest(s.shardSize(spec))
}

// pollEvery is the embedded worker's lease poll period. Its polls are
// direct calls on the campaign's own coordinator, so the period only bounds
// how long the worker idles after an epoch boundary or a requeue.
const pollEvery = 2 * time.Millisecond

// minShardSize is the smallest shard the server cuts on its own. A shard
// costs its own campaign set-up, report and journal line, and its share of
// its run's lease, completion and journal fsync, whatever it holds: about
// as much as a dozen p6lite injections (one embedded worker over 1,024
// flips, journaled: ~0.37 ms a shard beyond one shard's run, against
// ~27 µs an injection, on a 2-vCPU host). The floor only binds under 1024
// flips, where the embedded worker runs the campaign alone, so finer
// shards would buy no balance: they would move the campaign's time from
// the model to the control plane and the disk, and make it as unsteady as
// the disk is.
const minShardSize = 16

// shardSize resolves a spec's effective injections-per-shard: the spec's,
// else the server's, else the dist default of ~64 shards per campaign but
// no shard under minShardSize.
func (s *Server) shardSize(spec Spec) int {
	if spec.ShardSize > 0 {
		return spec.ShardSize
	}
	if s.cfg.ShardSize > 0 {
		return s.cfg.ShardSize
	}
	return max((spec.Campaign.Flips+63)/64, minShardSize)
}

// Submit validates and enqueues a campaign. If the store already holds a
// report for the same spec digest, the campaign completes immediately
// (Dedup) without running anything.
func (s *Server) Submit(spec Spec) (Campaign, error) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if err := spec.Campaign.Validate(); err != nil {
		return Campaign{}, err
	}

	c := &Campaign{
		ID:          newID(),
		Tenant:      spec.Tenant,
		Spec:        spec,
		Digest:      s.specDigest(spec),
		ImageDigest: engine.ImageDigest(spec.Campaign.Runner),
		SubmittedAt: time.Now(),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Campaign{}, errClosing
	}
	c.Seq = s.seq
	s.seq++
	if hash, ok := s.st.ReportHash(c.Digest); ok {
		// Content-addressed dedup: an identical spec already produced a
		// report; serve it without running a single injection.
		now := time.Now()
		c.State = StateDone
		c.Dedup = true
		c.ReportHash = hash
		c.FinishedAt = &now
	} else {
		c.State = StateQueued
		s.queue.push(c.Tenant, c.ID)
	}
	ct := s.newTraceLocked(c, nil, 0)
	s.campaigns[c.ID] = c
	snap := *c
	s.mu.Unlock()

	if snap.Dedup {
		ct.root.Attr("dedup", "true")
		s.settleUnrun(c.ID, ct, StateDone)
	}
	if err := s.st.SaveCampaign(c.ID, snap); err != nil {
		return Campaign{}, err
	}
	s.log.Info("campaign submitted", "campaign", c.ID, "tenant", c.Tenant,
		"state", snap.State, "digest", c.Digest[:12], "image", c.ImageDigest[:12])
	s.mu.Lock()
	s.startQueuedLocked()
	s.mu.Unlock()
	return snap, nil
}

// Cancel cancels a queued or running campaign. A queued campaign is
// removed from the queue and will never lease a shard; a running one has
// its coordinator context cancelled.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil {
		s.mu.Unlock()
		return ErrNotFound
	}
	switch c.State {
	case StateQueued:
		s.queue.remove(id)
		now := time.Now()
		c.State = StateCancelled
		c.FinishedAt = &now
		ct := s.tracers[id]
		snap := *c
		s.mu.Unlock()
		s.settleUnrun(id, ct, StateCancelled)
		s.log.Info("queued campaign cancelled", "campaign", id)
		return s.st.SaveCampaign(id, snap)
	case StateRunning:
		exec := s.running[id]
		s.mu.Unlock()
		if exec != nil {
			exec.cancel(errCancelled)
		}
		s.log.Info("running campaign cancelled", "campaign", id)
		return nil
	default:
		s.mu.Unlock()
		return ErrFinished
	}
}

// Get returns a campaign's record.
func (s *Server) Get(id string) (Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return Campaign{}, false
	}
	return *c, true
}

// List returns every campaign record, newest submission first.
func (s *Server) List() []Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Report returns a finished campaign's stored report document plus its
// object hash (the HTTP layer's ETag).
func (s *Server) Report(id string) ([]byte, string, error) {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return nil, "", ErrNotFound
	}
	if c.State != StateDone {
		return nil, "", ErrNotReady
	}
	return s.st.GetReport(c.Digest)
}

// CoordStatus returns the live coordinator fleet status of a running
// campaign (nil when it isn't running).
func (s *Server) CoordStatus(id string) *dist.Status {
	s.mu.Lock()
	exec := s.running[id]
	var coord *dist.Coordinator
	if exec != nil {
		coord = exec.coord
	}
	s.mu.Unlock()
	if coord == nil {
		return nil
	}
	st := coord.Status()
	return &st
}

// Trace returns a campaign's span tree, critical path marked and latency
// attributed, from the spans in its events file: queued, running, settled
// and previous-process campaigns alike. An unsettled campaign's read parses
// only the lines written since its last one. ok=false when the campaign is
// unknown, or has no tracer in this process and no span stored.
func (s *Server) Trace(id string) (*obs.TraceDoc, bool) {
	s.mu.Lock()
	_, known := s.campaigns[id]
	ct := s.tracers[id]
	s.mu.Unlock()
	path := s.st.EventsPath(id)
	if ct != nil {
		spans, _ := ct.read(path)
		return obs.BuildTraceDoc(ct.tracer.TraceID(), spans, 0), true
	}
	spans, _, _ := readSpans(path, 0) // no file: no spans
	if !known || len(spans) == 0 {
		return nil, false
	}
	return obs.BuildTraceDoc(spans[0].TraceID, spans, 0), true
}

// TraceSummary is one row of GET /v1/traces: a campaign's trace identity
// and its latency attribution.
type TraceSummary struct {
	Campaign string           `json:"campaign"`
	Tenant   string           `json:"tenant"`
	State    string           `json:"state"`
	TraceID  string           `json:"trace_id"`
	Spans    int              `json:"spans"`
	Latency  *obs.Attribution `json:"latency,omitempty"`
}

// traceSummary returns a campaign's trace identity and latency
// attribution, summarize(Trace(id)): kept as the campaign's row once it has
// settled and its tracer is retired — in this process or a previous one —
// and computed afresh on every query before. ok=false when Trace has none.
func (s *Server) traceSummary(id string) (TraceSummary, bool) {
	s.mu.Lock()
	sum, ok := s.settled[id]
	final := s.tracers[id] == nil // known and without a tracer: settled
	s.mu.Unlock()
	if ok {
		return sum, true
	}
	doc, ok := s.Trace(id)
	if !ok {
		return sum, false
	}
	if sum = summarize(doc); final {
		s.mu.Lock()
		s.settled[id] = sum
		s.mu.Unlock()
	}
	return sum, true
}

// Traces lists every traced campaign, newest submission first.
func (s *Server) Traces() []TraceSummary {
	campaigns := s.List()
	out := make([]TraceSummary, 0, len(campaigns))
	for _, c := range campaigns {
		if row, ok := s.traceSummary(c.ID); ok {
			row.Campaign, row.Tenant, row.State = c.ID, c.Tenant, c.State
			out = append(out, row)
		}
	}
	return out
}

// spanHists merges the per-layer span-duration histograms of every
// campaign, settled (the running aggregate) and live (their tracers) — the
// server-wide latency shape per tracing layer.
func (s *Server) spanHists() map[string]obs.HistSnapshot {
	s.mu.Lock()
	merged := maps.Clone(s.spanAgg)
	tracers := make([]*obs.Tracer, 0, len(s.tracers))
	for _, ct := range s.tracers {
		tracers = append(tracers, ct.tracer)
	}
	s.mu.Unlock()
	for _, tr := range tracers {
		for layer, snap := range tr.LayerSnapshots() {
			m := merged[layer]
			m.Merge(snap)
			merged[layer] = m
		}
	}
	return merged
}

// Status is the server-wide view served at GET /v1/status.
type Status struct {
	// Campaigns counts campaigns by state.
	Campaigns map[string]int `json:"campaigns"`
	// QueueDepth is the number of campaigns waiting to run.
	QueueDepth    int      `json:"queue_depth"`
	Running       []string `json:"running,omitempty"`
	MaxConcurrent int      `json:"max_concurrent"`
	// Tenants is the fair-share ledger: weight, backlog and service share
	// per tenant.
	Tenants map[string]TenantView `json:"tenants,omitempty"`
	// ImageCache reports warm checkpoint-image reuse across campaigns.
	ImageCache core.ImageStats `json:"image_cache"`
	UptimeMs   int64           `json:"uptime_ms"`
}

// Status assembles the server-wide status.
func (s *Server) Status() Status {
	s.mu.Lock()
	st := Status{
		Campaigns:     make(map[string]int),
		QueueDepth:    s.queue.depth(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		Tenants:       s.queue.view(),
		UptimeMs:      time.Since(s.started).Milliseconds(),
	}
	for _, c := range s.campaigns {
		st.Campaigns[c.State]++
	}
	for id := range s.running {
		st.Running = append(st.Running, id)
	}
	s.mu.Unlock()
	sort.Strings(st.Running)
	st.ImageCache = s.images.Stats()
	return st
}

// startQueuedLocked starts queued campaigns in fair-share order while a
// concurrency slot is free, unless the server is closing. It runs wherever
// a campaign can become startable: after recovery, after a submission is
// saved and when an execution frees its slot.
func (s *Server) startQueuedLocked() {
	for !s.closed && len(s.running) < s.cfg.MaxConcurrent {
		id, ok := s.queue.pop()
		if !ok {
			return
		}
		c := s.campaigns[id]
		if c == nil || c.State != StateQueued {
			continue // settled out of band (e.g. cancelled while queued)
		}
		now := time.Now()
		c.State = StateRunning
		c.StartedAt = &now
		ctx, cancel := context.WithCancelCause(s.ctx)
		exec := &execution{cancel: cancel}
		s.running[c.ID] = exec
		s.wg.Add(1)
		go s.execute(ctx, c, exec)
	}
}

// execute runs one campaign to a terminal state (or back to queued on
// server shutdown) and persists the outcome.
func (s *Server) execute(ctx context.Context, c *Campaign, exec *execution) {
	defer s.wg.Done()
	defer exec.cancel(nil) // detach ctx from the server's, or each campaign leaves a child behind
	s.log.Info("campaign started", "campaign", c.ID, "tenant", c.Tenant)

	// The events file takes the shard events and every span. It is
	// attached before the queue wait ends and stays so until the root span
	// has settled into it.
	s.mu.Lock()
	ct := s.tracers[c.ID]
	s.mu.Unlock()
	err := s.attachEvents(c.ID, ct)
	ct.queue.End()
	if err == nil {
		err = s.runCampaign(ctx, c, exec, ct)
	}

	s.mu.Lock()
	now := time.Now()
	cause := context.Cause(ctx)
	switch {
	case err == nil:
		c.State = StateDone
		c.FinishedAt = &now
	case errors.Is(cause, errClosing):
		// Shutdown, not failure: the journal holds the completed shards;
		// back to the queue for the next process.
		c.State = StateQueued
		c.StartedAt = nil
	case errors.Is(cause, errCancelled):
		c.State = StateCancelled
		c.FinishedAt = &now
	default:
		c.State = StateFailed
		c.Error = err.Error()
		c.FinishedAt = &now
	}
	// Settle the root span (except on shutdown-requeue: the campaign isn't
	// over, it just moves to the next process).
	settled := c.State != StateQueued
	if settled && ct.root != nil {
		ct.root.Attr("state", c.State).AttrInt("injections", int64(c.Injections)).End()
		ct.root = nil
	}
	delete(s.running, c.ID)
	s.startQueuedLocked()
	snap := *c
	s.mu.Unlock()

	s.detachEvents(c.ID, ct)
	if settled {
		s.retireTrace(c.ID, ct)
	}
	if serr := s.st.SaveCampaign(c.ID, snap); serr != nil {
		s.log.Error("campaign record persist failed", "campaign", c.ID, "err", serr)
	}
	s.log.Info("campaign settled", "campaign", c.ID, "state", snap.State,
		"injections", snap.Injections, "err", snap.Error)
}

// runCampaign executes one campaign: a journal-backed dist coordinator
// plus one embedded worker making the lease protocol's calls on it
// directly, with prototypes served from the warm image cache.
func (s *Server) runCampaign(ctx context.Context, c *Campaign, exec *execution, ct *campaignTrace) (err error) {
	// The executor span covers this whole function (scheduling overhead
	// around it is the root's own self-time).
	tr := ct.tracer
	execSp := tr.StartSpan("executor", "server", ct.root.Context())
	defer func() {
		if err != nil {
			execSp.Attr("error", err.Error())
		}
		execSp.End()
	}()

	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Campaign:   c.Spec.Campaign,
		ShardSize:  s.shardSize(c.Spec),
		LeaseTTL:   s.cfg.LeaseTTL,
		Journal:    s.st.JournalPath(c.ID),
		Log:        s.log.With("campaign", c.ID),
		ShardTrace: ct.events,
		Tracer:     tr,
		Parent:     execSp.Context(),
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	s.mu.Lock()
	exec.coord = coord
	s.mu.Unlock()

	// The boot-phase hook: prototypes come from the warm image cache, and
	// the first request stamps the campaign's boot latency and hit flag.
	factory := func(rc core.RunnerConfig) (*core.Runner, error) {
		t0 := time.Now()
		r, hit, err := s.images.RunnerTraced(rc, tr, execSp.Context())
		if err != nil {
			return nil, err
		}
		boot := time.Since(t0)
		s.mu.Lock()
		if c.BootMs == 0 {
			c.BootMs = float64(boot.Nanoseconds()) / 1e6
			c.ImageHit = hit
		}
		s.mu.Unlock()
		return r, nil
	}

	rep, err := coord.Run(ctx, 1, func(ctx context.Context, _ int) error {
		return coord.RunWorker(ctx, dist.WorkerConfig{
			ID:        "server-" + c.ID,
			PollEvery: pollEvery,
			NewRunner: factory,
			Log:       s.log.With("campaign", c.ID),
		})
	})
	if err != nil {
		return err
	}

	mergeSp := tr.StartSpan("merge", "server", execSp.Context())
	stopped := coord.StopDecision() != nil
	data, err := reportDoc(c.Digest, rep, stopped)
	if err != nil {
		return err
	}
	hash, err := s.st.PutReport(c.Digest, data)
	if err != nil {
		return err
	}
	mergeSp.AttrInt("bytes", int64(len(data))).End()
	execSp.AttrInt("injections", int64(rep.Total))
	s.mu.Lock()
	c.ReportHash = hash
	c.Injections = rep.Total
	c.StoppedEarly = stopped
	s.mu.Unlock()
	return nil
}

// reportDoc renders a campaign's canonical report document: metrics
// stripped (timing histograms are nondeterministic), everything else a pure
// function of the spec — which is what makes the content address a dedup
// key and a resumed run byte-identical to an uninterrupted one.
func reportDoc(digest string, rep *core.Report, stoppedEarly bool) ([]byte, error) {
	wire := dist.EncodeReport(rep)
	wire.Metrics = nil
	return json.Marshal(ReportDoc{
		SpecDigest:   digest,
		Report:       wire,
		Convergence:  rep.Convergence,
		StoppedEarly: stoppedEarly,
	})
}

// newID returns a fresh 16-hex-char campaign id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: " + err.Error()) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:])
}
