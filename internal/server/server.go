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
	settled   map[string]settledTrace   // what is kept of a settled campaign's trace
	spanAgg   map[string]obs.HistSnapshot
	queue     *fairQueue
	running   map[string]*execution
	active    int
	seq       int64
	closed    bool
	wake      chan struct{}

	wg sync.WaitGroup // scheduler + campaign executors
}

// execution is the server's handle on one running campaign.
type execution struct {
	coord  *dist.Coordinator
	cancel context.CancelCauseFunc
}

// campaignTrace is one campaign's tracer plus the structural spans the
// server holds open across scheduling stages: the root "campaign" span
// (submit to settle) and the "queue.wait" span (submit to start).
type campaignTrace struct {
	tracer *obs.Tracer
	root   *obs.Span
	queue  *obs.Span
}

// traceLocked returns the campaign's trace, creating it on first use.
// Submissions create theirs at submit time; campaigns recovered from a
// previous process create one lazily with the root span back-dated to the
// original submission. The tracer seed mixes the submission sequence into
// the campaign seed so two campaigns with equal specs still get distinct
// trace IDs, while a replayed submission order reproduces the same IDs.
func (s *Server) traceLocked(c *Campaign) *campaignTrace {
	ct := s.tracers[c.ID]
	if ct == nil {
		tr := obs.NewTracer(c.Spec.Campaign.Seed ^ engine.Splitmix64(uint64(c.Seq)+1))
		ct = &campaignTrace{tracer: tr}
		ct.root = tr.StartSpanAt("campaign", "server", obs.SpanContext{}, c.SubmittedAt).
			Attr("campaign", c.ID).Attr("tenant", c.Tenant)
		s.tracers[c.ID] = ct
	}
	return ct
}

// settledTrace is what the server keeps in memory of a settled campaign's
// trace: its identity and latency attribution, a fixed few hundred bytes
// against the ~220 KB a 64-flip campaign's live tracer holds. The spans
// themselves live on in the campaign's events JSONL, and their per-layer
// histograms in Server.spanAgg.
type settledTrace struct {
	traceID string
	spans   int
	latency *obs.Attribution
}

// summarize reduces a trace document to its settledTrace row.
func summarize(doc *obs.TraceDoc) settledTrace {
	st := settledTrace{traceID: doc.TraceID, spans: doc.Spans}
	if doc.Spans > 0 {
		latency := doc.Attribution // a copy: a pointer into the doc would pin the whole tree
		st.latency = &latency
	}
	return st
}

// mirrorTrace opens the campaign's events JSONL and points its tracer at
// it: first the spans that finished before the file was open (the queue
// wait, or all of a campaign that settles without running), then every
// later one as it finishes. The JSONL is what serves the trace once the
// tracer is retired. It returns the sink, for the shard events that share
// the file, and a stop function that detaches the tracer and closes it.
func (s *Server) mirrorTrace(id string, tr *obs.Tracer) (*obs.TraceSink, func(), error) {
	events, closeEvents, err := s.eventsSink(id)
	if err != nil {
		return nil, nil, err
	}
	for _, sp := range tr.Spans() {
		events.RecordJSON(&sp)
	}
	tr.SetSink(events)
	return events, func() {
		tr.SetSink(nil)
		closeEvents()
	}, nil
}

// retireTrace releases a settled campaign's tracer, keeping its summary
// row and folding its per-layer histograms into the server-wide aggregate.
// Every span must already be in the campaign's events JSONL.
func (s *Server) retireTrace(id string, ct *campaignTrace) {
	sum := summarize(ct.tracer.Doc())
	hists := ct.tracer.LayerSnapshots()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tracers, id)
	s.settled[id] = sum
	for layer, snap := range hists {
		m := s.spanAgg[layer]
		m.Merge(snap)
		s.spanAgg[layer] = m
	}
}

// retireUnrunTrace retires the trace of a campaign that settled without
// ever running (a dedup hit, a queued cancel): its few spans never saw an
// events sink, so they are written out first.
func (s *Server) retireUnrunTrace(id string, ct *campaignTrace) {
	if _, stop, err := s.mirrorTrace(id, ct.tracer); err != nil {
		s.log.Error("campaign trace persist failed", "campaign", id, "err", err)
	} else {
		stop()
	}
	s.retireTrace(id, ct)
}

// New opens (or reopens) a campaign server over a store directory,
// recovers persisted campaigns — queued and interrupted-running ones
// re-enter the queue in submission order and resume from their journals —
// and starts the scheduler.
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
		settled:   make(map[string]settledTrace),
		spanAgg:   make(map[string]obs.HistSnapshot),
		queue:     newFairQueue(cfg.TenantWeights),
		running:   make(map[string]*execution),
		wake:      make(chan struct{}, 1),
	}
	if err := s.recover(); err != nil {
		cancel(errClosing)
		return nil, err
	}
	s.wg.Add(1)
	go s.scheduler()
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
			// The previous process died mid-campaign. Its journal holds the
			// completed shards; re-queue and the coordinator replays them.
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

// Close drains the server: running campaigns are interrupted (their
// journals keep their completed shards; a reopened server resumes them),
// the scheduler stops, and all records are persisted.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.shutdown(errClosing)
	s.poke()
	s.wg.Wait()
}

func (s *Server) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
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
// costs a lease, a completion and a journal fsync whatever it holds, about
// as much as three p6lite injections. The floor only binds under 1024
// flips, where the embedded worker runs the campaign alone, so finer
// shards would buy no balance: they would move the campaign's time from
// the model to the disk, and make it as unsteady as the disk is.
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
	var unrun *campaignTrace // set when the campaign settles right here, without running
	if hash, ok := s.st.ReportHash(c.Digest); ok {
		// Content-addressed dedup: an identical spec already produced a
		// report; serve it without running a single injection.
		now := time.Now()
		c.State = StateDone
		c.Dedup = true
		c.ReportHash = hash
		c.FinishedAt = &now
		unrun = s.traceLocked(c)
		unrun.root.Attr("dedup", "true").Attr("state", StateDone).End()
		unrun.root = nil
	} else {
		c.State = StateQueued
		s.queue.push(c.Tenant, c.ID)
		ct := s.traceLocked(c)
		ct.queue = ct.tracer.StartSpan("queue.wait", "server", ct.root.Context())
	}
	s.campaigns[c.ID] = c
	snap := *c
	s.mu.Unlock()

	if unrun != nil {
		s.retireUnrunTrace(c.ID, unrun)
	}
	if err := s.st.SaveCampaign(c.ID, snap); err != nil {
		return Campaign{}, err
	}
	s.log.Info("campaign submitted", "campaign", c.ID, "tenant", c.Tenant,
		"state", snap.State, "digest", c.Digest[:12], "image", c.ImageDigest[:12])
	s.poke()
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
		if ct != nil {
			if ct.queue != nil {
				ct.queue.End()
				ct.queue = nil
			}
			if ct.root != nil {
				ct.root.Attr("state", StateCancelled).End()
				ct.root = nil
			}
		}
		snap := *c
		s.mu.Unlock()
		if ct != nil {
			s.retireUnrunTrace(id, ct)
		}
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

// Trace returns a campaign's span-tree document, assembled into a tree with
// the critical path marked and latency attribution computed: from the live
// tracer (the spans recorded so far) until the campaign settles, from the
// spans mirrored into its events JSONL afterwards — which also serves
// campaigns that finished under a previous process. ok=false when the
// campaign is unknown or no span of it was ever recorded.
func (s *Server) Trace(id string) (*obs.TraceDoc, bool) {
	s.mu.Lock()
	known := s.campaigns[id] != nil
	ct := s.tracers[id]
	traceID := s.settled[id].traceID
	s.mu.Unlock()
	if ct != nil {
		return ct.tracer.Doc(), true
	}
	if !known {
		return nil, false
	}
	spans := s.storedSpans(id)
	if len(spans) == 0 {
		return nil, false
	}
	if traceID == "" {
		traceID = spans[0].TraceID
	}
	return obs.BuildTraceDoc(traceID, spans, 0), true
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
// attribution: computed from the live tracer until the campaign settles,
// the retained row after. A campaign that settled under a previous process
// has no row yet: its first query reads the spans back from its events
// JSONL and keeps their summary. ok=false when no span of it exists.
func (s *Server) traceSummary(id string) (settledTrace, bool) {
	s.mu.Lock()
	ct := s.tracers[id]
	sum, ok := s.settled[id]
	c := s.campaigns[id]
	over := c != nil && c.State != StateQueued && c.State != StateRunning
	s.mu.Unlock()
	if ct != nil {
		return summarize(ct.tracer.Doc()), true
	}
	if ok || !over {
		return sum, ok
	}
	doc, ok := s.Trace(id)
	if !ok {
		return sum, false
	}
	sum = summarize(doc)
	s.mu.Lock()
	s.settled[id] = sum
	s.mu.Unlock()
	return sum, true
}

// Traces lists every traced campaign, newest submission first.
func (s *Server) Traces() []TraceSummary {
	campaigns := s.List()
	out := make([]TraceSummary, 0, len(campaigns))
	for _, c := range campaigns {
		if sum, ok := s.traceSummary(c.ID); ok {
			out = append(out, TraceSummary{
				Campaign: c.ID,
				Tenant:   c.Tenant,
				State:    c.State,
				TraceID:  sum.traceID,
				Spans:    sum.spans,
				Latency:  sum.latency,
			})
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

// scheduler pops queued campaigns under the fair-share policy whenever a
// concurrency slot is free.
func (s *Server) scheduler() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		for s.active < s.cfg.MaxConcurrent {
			id, ok := s.queue.pop()
			if !ok {
				break
			}
			c := s.campaigns[id]
			if c == nil || c.State != StateQueued {
				continue // settled out of band (e.g. cancelled while queued)
			}
			s.startLocked(c)
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) startLocked(c *Campaign) {
	now := time.Now()
	c.State = StateRunning
	c.StartedAt = &now
	ct := s.traceLocked(c)
	if ct.queue == nil {
		// Recovered campaign: its queue wait spans the previous process's
		// lifetime too, back-dated to the original submission.
		ct.queue = ct.tracer.StartSpanAt("queue.wait", "server", ct.root.Context(), c.SubmittedAt)
	}
	ct.queue.End()
	ct.queue = nil
	ctx, cancel := context.WithCancelCause(s.ctx)
	exec := &execution{cancel: cancel}
	s.running[c.ID] = exec
	s.active++
	s.wg.Add(1)
	go s.execute(ctx, c, exec)
}

// execute runs one campaign to a terminal state (or back to queued on
// server shutdown) and persists the outcome.
func (s *Server) execute(ctx context.Context, c *Campaign, exec *execution) {
	defer s.wg.Done()
	defer exec.cancel(nil) // detach ctx from the server's, or each campaign leaves a child behind
	s.persist(c)
	s.log.Info("campaign started", "campaign", c.ID, "tenant", c.Tenant)

	// The events JSONL takes the shard events and a mirror of every span.
	// It stays open until the root span has settled into it: once the
	// tracer is retired, that file is the campaign's trace.
	s.mu.Lock()
	ct := s.traceLocked(c)
	s.mu.Unlock()
	events, stopMirror, err := s.mirrorTrace(c.ID, ct.tracer)
	if err == nil {
		err = s.runCampaign(ctx, c, exec, ct, events)
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
	s.active--
	snap := *c
	s.mu.Unlock()

	if stopMirror != nil {
		stopMirror()
	}
	if settled {
		s.retireTrace(c.ID, ct)
	}
	if serr := s.st.SaveCampaign(c.ID, snap); serr != nil {
		s.log.Error("campaign record persist failed", "campaign", c.ID, "err", serr)
	}
	s.log.Info("campaign settled", "campaign", c.ID, "state", snap.State,
		"injections", snap.Injections, "err", snap.Error)
	s.poke()
}

func (s *Server) persist(c *Campaign) {
	s.mu.Lock()
	snap := *c
	s.mu.Unlock()
	if err := s.st.SaveCampaign(snap.ID, snap); err != nil {
		s.log.Error("campaign record persist failed", "campaign", snap.ID, "err", err)
	}
}

// runCampaign executes one campaign: a journal-backed dist coordinator
// plus one embedded worker making the lease protocol's calls on it
// directly, with prototypes served from the warm image cache.
func (s *Server) runCampaign(ctx context.Context, c *Campaign, exec *execution, ct *campaignTrace, events *obs.TraceSink) (err error) {
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
		ShardTrace: events,
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

	// A worker-side error (bad backend, shard failure retries exhausted
	// locally) must not leave Wait blocked on a fleet of zero workers.
	waitCtx, cancelWait := context.WithCancelCause(ctx)
	defer cancelWait(nil)
	workerDone := make(chan error, 1)
	go func() {
		werr := coord.RunWorker(ctx, dist.WorkerConfig{
			ID:        "server-" + c.ID,
			PollEvery: pollEvery,
			NewRunner: factory,
			Log:       s.log.With("campaign", c.ID),
		})
		if werr != nil && ctx.Err() == nil {
			cancelWait(fmt.Errorf("server: embedded worker: %w", werr))
		}
		workerDone <- werr
	}()

	rep, err := coord.Wait(waitCtx)
	<-workerDone
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
