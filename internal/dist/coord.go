package dist

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/obs"
	"sfi/internal/stats"
)

// CoordConfig parameterizes a campaign coordinator.
type CoordConfig struct {
	// Campaign is the campaign to distribute.
	Campaign CampaignSpec

	// ShardSize is the number of injections per shard (the last shard may
	// be short). 0 picks a default that yields ~64 shards. A shard is the
	// grain of the ledger, the journal and the stop decisions: small enough
	// to balance load, bound re-done work on worker death and place a stop
	// close to where the rule first holds. The control plane's grain is the
	// run: a lease may hold several shards, and a worker pays one lease, one
	// completion and one journal sync per run.
	ShardSize int

	// LeaseTTL is how long a worker holds a shard without heartbeating
	// before the shard is considered abandoned (default 10s). Workers
	// heartbeat at TTL/3.
	LeaseTTL time.Duration

	// MaxAttempts bounds lease grants per shard: a shard abandoned (or
	// explicitly failed) this many times fails the whole campaign rather
	// than retrying forever (default 3).
	MaxAttempts int

	// Journal is the path of the completed-shard journal. When set, every
	// completed shard is appended as one JSONL record, and a coordinator
	// restarted over the same journal resumes with those shards already
	// done. The journal is fsync'd once per completion — a worker's whole
	// run — before the worker is answered. "" disables journaling.
	Journal string

	// Log receives structured coordinator lifecycle events (lease grants,
	// requeues, completions, journal replay) with campaign/shard/worker
	// attributes. nil logs nothing.
	Log *slog.Logger

	// ShardTrace, when non-nil, receives one JSONL obs.ShardEvent per
	// shard-lifecycle transition (lease grant, heartbeat gap, expiry,
	// requeue with attempt count, completion with latency) plus the
	// sampled injection-trace segments workers attach to completions —
	// the after-the-fact forensics trail for requeue storms and straggler
	// workers. Leases ask workers to attach those segments only when it is
	// set (leaseResponse.AttachTrace).
	ShardTrace *obs.TraceSink

	// Tracer, when non-nil, records the campaign's causal span tree: one
	// "shard" span per lease (grant to completion or loss), the worker
	// spans attached to shard completions, and — when Parent is zero — a
	// root "campaign" span covering the whole coordinator run. Leases
	// carry each shard span's context to the worker as a traceparent, so
	// worker and engine spans parent under it across processes. The tree
	// is served at GET /v1/trace.
	Tracer *obs.Tracer

	// Parent is the span context coordinator spans parent under — the
	// executor span of an embedding server. The zero value makes the
	// coordinator open its own root span.
	Parent obs.SpanContext
}

type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone
)

type shard struct {
	ShardLease
	status   shardStatus
	owner    string
	deadline time.Time
	attempts int // lease grants so far
	report   *core.Report

	leasedAt time.Time     // grant time of the current lease
	lastBeat time.Time     // last heartbeat of the current lease (zero until one arrives)
	live     *obs.Snapshot // the current lease's newest heartbeat snapshot (nil before one, and unless leased)

	span *obs.Span // the current lease's "shard" span (nil untraced)
}

// liveInjections is the injection count of the current lease's snapshot.
func (s *shard) liveInjections() uint64 {
	if s.live == nil {
		return 0
	}
	return s.live.Injections
}

// workerStats is the coordinator's per-worker ledger, fed by lease grants,
// heartbeat snapshots and completions.
type workerStats struct {
	firstSeen  time.Time
	lastSeen   time.Time
	injections uint64 // classified injections credited to this worker
	shardsDone int
	failures   int // /v1/fail reports
	copies     int // the model copies it last said it runs (0: not said)
}

// Coordinator owns a campaign's shard ledger and answers the lease
// protocol's calls, from its HTTP handlers or from a worker in the same
// process (RunWorker). All state transitions happen under one mutex; the
// calls, the lease reaper, Wait and every view share it.
type Coordinator struct {
	cfg CoordConfig
	log *slog.Logger

	// Coordinator-side latency histograms (lock-free).
	completionMs obs.Hist // lease grant → completion, per completed shard
	beatGapMs    obs.Hist // observed heartbeat silence beyond 2× the expected period

	// Campaign tracing: shard spans parent under spanParent — the
	// embedding server's executor span, or rootSp when the coordinator
	// opened its own root (standalone sfi-coord).
	spanParent obs.SpanContext
	rootSp     *obs.Span

	mu       sync.Mutex
	shards   []*shard
	queue    []int // shard IDs in the order to lease them; lease skips the ones no longer pending
	done     int
	grants   int // total lease grants (observability)
	requeues int // total shard requeues (expiry + explicit fails)
	workers  map[string]*workerStats
	started  time.Time
	ended    time.Time // set by finishLocked; zero while the campaign runs
	err      error
	finished chan struct{} // closed once the campaign completes, the stop rule fires, or err is set
	journal  *journal

	// sealed is the counts of the *completed* shard reports, merged — never
	// heartbeat snapshots. It is a planned campaign's decision basis, so each
	// of its stops and allocations is a pure function of which shards
	// completed, and a journal replay reaches the same one; it carries the
	// plan's census, as does (a copy) the merged report Wait returns.
	sealed   *core.Report
	stopEval *stats.Convergence // the decision the campaign stopped early on (nil unless it did)

	// eval is the stop rule's evaluation at the newest decision point (nil
	// without a rule): what every view shows, so none runs ahead of the stop.
	eval *stats.Convergence

	// metrics is the completed shards' snapshots merged; with the leased
	// shards' heartbeat snapshots it makes the fleet view (FleetSnapshot).
	metrics *obs.Snapshot

	// The campaign's epochs, decided by core's code; exactly one is set. A
	// uniform campaign is one epoch of keyless shards, planned at construction,
	// whose prefix (shard order is sample order) stops it. A planned
	// campaign's epochs join the one shard ledger whenever every shard planned
	// so far has settled (decideLocked), each journaled before any of its
	// shards can be leased.
	prefix *core.PrefixStop
	epochs *core.Epochs

	stopReaper chan struct{}
	reaperDone chan struct{}
}

// NewCoordinator plans the campaign's shards, replays the journal if one
// is configured and present, and starts the lease reaper. Callers must
// Close it.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if err := cfg.Campaign.Validate(); err != nil {
		return nil, err
	}
	// Armed before the journal header and the worker-facing spec are
	// derived, so both are stable.
	cfg.Campaign.Stop = cfg.Campaign.Alloc.ArmStop(cfg.Campaign.Stop)
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = (cfg.Campaign.Flips + 63) / 64
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.LeaseTTL < time.Millisecond {
		// Leases carry the TTL in whole milliseconds: anything shorter
		// reaches the workers as ttl_ms 0.
		return nil, fmt.Errorf("dist: LeaseTTL %v is below the 1ms lease resolution", cfg.LeaseTTL)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	c := &Coordinator{
		cfg:        cfg,
		log:        cfg.Log.With("seed", cfg.Campaign.Seed, "flips", cfg.Campaign.Flips),
		workers:    make(map[string]*workerStats),
		started:    time.Now(),
		finished:   make(chan struct{}),
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
		sealed:     &core.Report{},
		metrics:    obs.NewSnapshot(),
	}
	if cfg.Tracer != nil {
		c.spanParent = cfg.Parent
		if !cfg.Parent.Valid() {
			// Standalone coordinator: open the trace's root span ourselves.
			c.rootSp = cfg.Tracer.StartSpan("campaign", "coord", obs.SpanContext{}).
				AttrInt("flips", int64(cfg.Campaign.Flips))
			c.spanParent = c.rootSp.Context()
		}
	}
	if cfg.Campaign.Alloc.Stratified() {
		// The plan needs only the latch census — the registered census
		// factory skips model build and warming, so a coordinator never
		// pays for a simulator it will not run.
		db, err := engine.Census(cfg.Campaign.Runner)
		if err != nil {
			return nil, err
		}
		ccfg, _ := cfg.Campaign.CampaignConfig(nil) // Validate built the filter once already
		if c.epochs, err = core.NewEpochs(db, ccfg); err != nil {
			return nil, err
		}
		c.sealed.Census = c.epochs.Plan.Populations()
	} else {
		// The keyless epoch is a function of the fields the journal header
		// binds, so it is planned here, before replay, and never journaled.
		for id, r := range core.PlanShards(cfg.Campaign.Flips, cfg.ShardSize) {
			c.shards = append(c.shards, &shard{ShardLease: ShardLease{ID: id, Lo: r.Lo, Hi: r.Hi}})
			c.queue = append(c.queue, id)
		}
		c.prefix = core.NewPrefixStop(len(c.shards), cfg.Campaign.Stop, func(e *stats.Convergence) { c.eval = e })
		c.eval = c.sealed.PooledConvergence(cfg.Campaign.Stop.Rule()) // the empty prefix's
	}
	if cfg.Journal != "" {
		j, entries, err := openJournal(cfg.Journal, cfg.Campaign.journalHeader(cfg.ShardSize), c.log)
		if err != nil {
			return nil, err
		}
		c.journal = j
		if err := c.replayLocked(entries); err != nil {
			j.f.Close()
			return nil, err
		}
	}
	// A fresh plan's first epoch, the epoch after a journal that ended on a
	// settled one, or the end of a campaign the journal holds whole.
	c.decideLocked()
	c.log.Info("campaign planned",
		"shards", len(c.shards), "shard_size", cfg.ShardSize,
		"pending", len(c.shards)-c.done, "lease_ttl", cfg.LeaseTTL,
		"alloc", cfg.Campaign.Alloc.Mode)
	go c.reaper()
	return c, nil
}

// replayLocked applies recovered journal entries in file order — for a
// campaign with a plan the only order that reproduces the ledger, since each
// allocation extended the per-stratum sequences from the sealed counts
// before it. Decisions are not re-derived here: a journaled allocation or
// stop is applied verbatim, and whatever the journal leaves open is decided
// once, after the replay. An allocation line restores the evaluation of the
// barrier it was written at, over the reports journaled before it. A keyless
// stop line's total names the shard prefix it kept: the prefix the journaled
// shards before it fold to.
func (c *Coordinator) replayLocked(entries []journalEntry) error {
	recovered := 0
	for _, e := range entries {
		switch {
		case e.Stop != nil:
			if p := c.prefix; p != nil && (p.Cut() == len(c.shards) || int64(c.shards[p.Cut()-1].Hi) != e.Stop.Total) {
				return fmt.Errorf("dist: journal %s: its stop at n=%d is not the smallest converged prefix of the shards completed "+
					"before it (a coordinator that stopped on whichever shards had completed wrote it); refusing to resume", c.cfg.Journal, e.Stop.Total)
			}
			c.stopEval, c.eval = e.Stop, e.Stop
		case e.Alloc != nil:
			if c.epochs == nil {
				return fmt.Errorf("dist: journal records an allocation epoch but the campaign is not stratified")
			}
			c.eval = c.sealed.ComputeConvergence(c.cfg.Campaign.Stop.Rule())
			c.applyAllocLocked(*e.Alloc)
		case e.Report != nil:
			s := c.shardByID(e.Shard)
			if s == nil {
				return fmt.Errorf("dist: journal names shard %d outside the %d-shard plan", e.Shard, len(c.shards))
			}
			rep, err := e.Report.Report()
			if err != nil {
				return fmt.Errorf("dist: journal %s: shard %d: %w", c.cfg.Journal, e.Shard, err)
			}
			if err := s.covers(rep); err != nil {
				return fmt.Errorf("journal %s: %w", c.cfg.Journal, err)
			}
			c.settleLocked(s, rep)
			recovered++
		}
	}
	if recovered > 0 || c.stopEval != nil {
		c.log.Info("journal replayed", "path", c.cfg.Journal,
			"shards_recovered", recovered, "stopped_early", c.stopEval != nil)
	}
	if c.stopEval != nil {
		c.finishLocked()
	}
	return nil
}

// Close stops the reaper and closes the journal. It does not interrupt
// Wait; cancel Wait's context to abandon a campaign.
func (c *Coordinator) Close() {
	close(c.stopReaper)
	<-c.reaperDone
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		c.journal.f.Close()
		c.journal = nil
	}
}

// reaper periodically re-queues shards whose lease expired (worker death
// without a parting /v1/fail). Sweeps also run inline on every lease poll,
// so the reaper only matters when no worker is polling.
func (c *Coordinator) reaper() {
	defer close(c.reaperDone)
	tick := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stopReaper:
			return
		case <-tick.C:
			c.mu.Lock()
			c.sweepLocked(time.Now())
			c.mu.Unlock()
		}
	}
}

// emit says one coordinator event once: as a JSONL line on the shard trace
// and, from the same value, as a log record.
func (c *Coordinator) emit(level slog.Level, msg string, ev any) {
	c.cfg.ShardTrace.RecordJSON(ev)
	if c.log.Enabled(context.Background(), level) {
		c.log.LogAttrs(context.Background(), level, msg, obs.EventAttrs(ev)...)
	}
}

// shardEvent is the one call per shard-lifecycle transition. A grant is
// routine (debug), a completion or a requeue is progress (info), anything
// else — expired, heartbeat_gap, failed, exhausted — is a shard in trouble
// (warn). With no sink and a logger below that level it builds nothing.
func (c *Coordinator) shardEvent(s *shard, kind string, mut func(*obs.ShardEvent)) {
	level := slog.LevelWarn
	switch kind {
	case "lease":
		level = slog.LevelDebug
	case "completed", "requeued":
		level = slog.LevelInfo
	}
	if c.cfg.ShardTrace == nil && !c.log.Enabled(context.Background(), level) {
		return
	}
	ev := &obs.ShardEvent{
		Kind:    kind,
		TS:      time.Now().UnixNano(),
		Shard:   s.ID,
		Lo:      s.Lo,
		Hi:      s.Hi,
		Worker:  s.owner,
		Attempt: s.attempts,
	}
	if mut != nil {
		mut(ev)
	}
	c.emit(level, "shard "+kind, ev)
}

// sweepLocked expires overdue leases. A shard that has used all its
// attempts fails the campaign; otherwise it goes back on the queue for
// another worker.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, s := range c.shards {
		if s.status != shardLeased || now.Before(s.deadline) {
			continue
		}
		c.shardEvent(s, "expired", func(ev *obs.ShardEvent) {
			ev.GapMs = now.Sub(c.lastSignalLocked(s)).Milliseconds()
		})
		c.requeueLocked(s, fmt.Sprintf("lease by %q expired", s.owner))
	}
}

// lastSignalLocked is the last time the shard's current owner was heard
// from: its last heartbeat, or the lease grant if it never beat.
func (c *Coordinator) lastSignalLocked(s *shard) time.Time {
	if !s.lastBeat.IsZero() {
		return s.lastBeat
	}
	return s.leasedAt
}

func (c *Coordinator) requeueLocked(s *shard, why string) {
	if s.span != nil {
		s.span.Attr("error", why).End()
		s.span = nil
	}
	s.status = shardPending
	s.owner = ""
	s.live = nil // its injections will be redone, and counted, by the next lease
	s.lastBeat = time.Time{}
	c.requeues++
	if s.attempts >= c.cfg.MaxAttempts {
		c.shardEvent(s, "exhausted", func(ev *obs.ShardEvent) { ev.Detail = why })
		c.failLocked(fmt.Errorf("dist: shard %d [%d,%d) failed %d of %d attempts (last: %s)",
			s.ID, s.Lo, s.Hi, s.attempts, c.cfg.MaxAttempts, why))
		return
	}
	c.shardEvent(s, "requeued", func(ev *obs.ShardEvent) { ev.Detail = why })
	c.queue = append(c.queue, s.ID)
}

func (c *Coordinator) failLocked(err error) {
	if !c.overLocked() {
		c.err = err
		c.log.Error("campaign failed", "err", err)
		c.finishLocked()
	}
}

// finishLocked closes the finished channel. Completion, the convergence
// stop and failure all funnel through it, each once and only while the
// campaign is not yet over (overLocked).
func (c *Coordinator) finishLocked() {
	c.ended = time.Now()
	if c.rootSp != nil {
		c.rootSp.AttrInt("shards_done", int64(c.done)).End()
		c.rootSp = nil
	}
	close(c.finished)
}

// covers checks that a report is one of this shard: as many injections as
// the lease, in its metrics too, counted once in the pooled counts and once
// in the cross, whose cells a stratum shard's report must confine to the
// lease's stratum. Those cells feed the allocator and every interval, so a
// report that miscounts would silently bias both.
func (s *shard) covers(rep *core.Report) error {
	if rep.Total != s.Hi-s.Lo {
		return fmt.Errorf("dist: shard %d report covers %d injections, want %d", s.ID, rep.Total, s.Hi-s.Lo)
	}
	if tally(map[string]map[core.Outcome]int{"": rep.Counts}) != rep.Total || tally(rep.ByStratum) != rep.Total {
		return fmt.Errorf("dist: shard %d report must count each of its %d injections once in its counts and once in its cross", s.ID, rep.Total)
	}
	if _, ok := rep.ByStratum[s.Stratum]; s.Stratum != "" && (!ok || len(rep.ByStratum) != 1) {
		return fmt.Errorf("dist: shard %d report must attribute its %d injections to stratum %q alone", s.ID, rep.Total, s.Stratum)
	}
	// Merged into the fleet view as is, where the status and the rate read it.
	if m := rep.Metrics; m != nil && m.Injections != uint64(rep.Total) {
		return fmt.Errorf("dist: shard %d report's metrics count %d injections, the report %d", s.ID, m.Injections, rep.Total)
	}
	return nil
}

// tally sums the counts of an outcome breakdown, -1 if one is negative or
// the sum overflows.
func tally[K comparable](rows map[K]map[core.Outcome]int) int {
	sum := 0
	for _, row := range rows {
		for _, n := range row {
			if n < 0 || sum+n < 0 {
				return -1
			}
			sum += n
		}
	}
	return sum
}

// settleLocked marks a shard done with its report, seals the report's counts
// and, for a keyless shard, folds it into the prefix. It decides nothing:
// live completions call decideLocked next, journal replay does not.
func (c *Coordinator) settleLocked(s *shard, rep *core.Report) {
	if s.status == shardDone {
		return
	}
	if s.span != nil {
		s.span.AttrInt("injections", int64(rep.Total)).End()
		s.span = nil
	}
	s.status = shardDone
	s.owner = ""
	s.report = rep
	// Replace the shard's live heartbeat snapshot with its exact final one:
	// the fleet view now counts this shard's injections exactly once, and
	// converges to the merged-report snapshot when the campaign completes.
	// A report without metrics keeps what the heartbeats said.
	if rep.Metrics != nil {
		s.live = rep.Metrics
	}
	c.metrics.Merge(s.live)
	s.live = nil
	c.done++
	counts := *rep
	counts.Results, counts.Metrics = nil, nil
	c.sealed.Merge(&counts)
	if c.prefix != nil {
		c.prefix.Settle(s.ID, rep.Counts)
	}
}

// decideLocked is the campaign's one decision point. A keyless campaign
// stops once its prefix is cut, and is complete once every shard has settled
// uncut: convergence at the last shard saves nothing, so it is no early stop.
// A planned one decides at its epoch barrier, once every shard planned so far
// has settled, over the sealed counts and the sampling strata: stop on
// convergence, plan the next epoch, or finish. Every decision point's
// evaluation is the one the views show.
func (c *Coordinator) decideLocked() {
	var rec *allocRecord
	switch {
	case c.overLocked():
		return
	case c.prefix != nil && c.prefix.Cut() < len(c.shards):
		c.convergeLocked(c.eval)
		return
	case c.done < len(c.shards):
		return
	case c.epochs != nil:
		c.eval = c.sealed.ComputeConvergence(c.cfg.Campaign.Stop.Rule())
		if c.cfg.Campaign.Stop.StopOnConverge && c.eval.Converged {
			c.convergeLocked(c.eval)
			return
		}
		// The next epoch: each stratum's share cut into ShardSize-bounded
		// leases that continue the stratum's drawn prefix.
		if ep := c.epochs.Next(c.sealed); ep != nil {
			rec = &allocRecord{Epoch: *ep}
			for _, sh := range ep.Shares {
				for _, r := range core.PlanStratumShards(c.epochs.Drawn[sh.Stratum], sh.Next, c.cfg.ShardSize) {
					rec.Shards = append(rec.Shards, ShardLease{
						ID: len(c.shards) + len(rec.Shards), Lo: r.Lo, Hi: r.Hi, Stratum: sh.Stratum})
				}
			}
		}
	}
	if rec == nil {
		c.log.Info("campaign complete", "shards", len(c.shards), "grants", c.grants,
			"requeues", c.requeues, "elapsed", time.Since(c.started).Round(time.Millisecond))
		c.finishLocked()
		return
	}
	// Durable before any of its shards can be leased: a restarted coordinator
	// extends the same per-stratum sequences instead of re-deriving them
	// against a half-settled ledger.
	if c.recordLocked(journalEntry{Shard: journalShardAlloc, Alloc: rec}) == nil {
		c.applyAllocLocked(*rec)
	}
}

// recordLocked makes ledger transitions durable before they take effect,
// when the campaign is journaled: one journalEntry line each, under one
// sync. A journal that cannot take the lines fails the campaign.
func (c *Coordinator) recordLocked(lines ...any) error {
	if c.journal == nil {
		return nil
	}
	err := c.journal.append(lines...)
	if err != nil {
		c.failLocked(fmt.Errorf("dist: journal: %w", err))
	}
	return err
}

// applyAllocLocked extends the shard ledger with one allocation epoch's
// planned shards (freshly allocated or replayed from the journal), queues
// them and advances the epoch ledger past them.
func (c *Coordinator) applyAllocLocked(rec allocRecord) {
	for _, l := range rec.Shards {
		c.shards = append(c.shards, &shard{ShardLease: l})
		c.queue = append(c.queue, l.ID)
	}
	c.epochs.Apply(rec.Epoch)
	c.emit(slog.LevelInfo, "allocation epoch planned", obs.AllocationEvent{
		Kind: "allocate", Epoch: rec.N, Budget: rec.Budget, Shares: rec.Shares,
	})
}

// convergeLocked stops the campaign on a sealed-counts convergence verdict:
// journal the decision first (so a restart honors it rather than re-running
// the race between remaining shards and the rule), then seal the ledger.
// Outstanding leases are cancelled passively — overLocked() now answers
// heartbeat and lease polls with 410 Gone, and workers abandon their
// in-flight shards.
func (c *Coordinator) convergeLocked(eval *stats.Convergence) {
	if c.recordLocked(journalEntry{Shard: journalShardStop, Stop: eval}) != nil {
		return
	}
	c.stopEval = eval
	c.emit(slog.LevelInfo, "campaign converged, stopping early", obs.ConvergenceEvent{
		Kind:         "fleet_stop",
		N:            eval.Total,
		Width:        eval.WidestWidth,
		TargetMargin: eval.TargetMargin,
		Confidence:   eval.Confidence,
	})
	c.finishLocked()
}

// overLocked reports whether the campaign has finished: completed, stopped
// on convergence, or failed.
func (c *Coordinator) overLocked() bool {
	select {
	case <-c.finished:
		return true
	default:
		return false
	}
}

// Wait blocks until every shard is complete (returning the merged
// campaign Report, identical to a single-process run), the stopping rule
// fires (returning the completed shards merged, with the convergence
// evaluation attached), the campaign fails (a shard exhausted its
// attempts) or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) (*core.Report, error) {
	select {
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-c.finished:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	// Merge in shard order: shard order is sample order, so the merged
	// report — kept Results included — matches the single-process run.
	// After an early stop the merge covers exactly the population the stop
	// decision was evaluated on: a planned campaign's completed shards, a
	// keyless one's converged prefix, without the shards that completed
	// past it.
	rep := &core.Report{Census: maps.Clone(c.sealed.Census)}
	kept := c.shards
	if c.prefix != nil {
		kept = kept[:c.prefix.Cut()]
	}
	for _, s := range kept {
		rep.Merge(s.report)
	}
	if stop := c.cfg.Campaign.Stop; stop.Enabled() {
		rep.Convergence = rep.ComputeConvergence(stop.Rule())
	}
	return rep, nil
}

// FleetSnapshot returns the live fleet-wide metrics view: the newest
// heartbeat snapshots of leased shards plus the exact final snapshots of
// completed shards, merged into a copy. Once the campaign completes it
// equals the merged Report's snapshot counter for counter.
func (c *Coordinator) FleetSnapshot() *obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleetSnapshotLocked()
}

func (c *Coordinator) fleetSnapshotLocked() *obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.Merge(c.metrics)
	for _, s := range c.shards {
		snap.Merge(s.live)
	}
	return snap
}

// StopDecision returns the sealed-counts convergence evaluation the
// coordinator stopped early on, nil if the campaign ran (or is running)
// to completion. A coordinator restarted over a journal that records a
// stop decision reports that same decision.
func (c *Coordinator) StopDecision() *stats.Convergence {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopEval
}

// touchWorkerLocked updates the per-worker ledger and returns its entry.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerStats {
	ws := c.workers[id]
	if ws == nil {
		ws = &workerStats{firstSeen: now}
		c.workers[id] = ws
		c.log.Info("worker joined", "worker", id)
	}
	ws.lastSeen = now
	return ws
}

// setCopies records the model copies a worker's request says it runs, if it
// says.
func (ws *workerStats) setCopies(copies int) {
	if copies > 0 {
		ws.copies = copies
	}
}

// copiesLocked returns how many model copies the workers seen run at once:
// what each said, else the campaign's ShardWorkers, else one.
func (c *Coordinator) copiesLocked() int {
	n := 0
	for _, ws := range c.workers {
		switch {
		case ws.copies > 0:
			n += ws.copies
		case c.cfg.Campaign.ShardWorkers > 0:
			n += c.cfg.Campaign.ShardWorkers
		default:
			n++
		}
	}
	return n
}

// The four calls of the lease protocol (the coordinator interface in
// worker.go). The HTTP handlers and a worker running in this process call
// the same methods; each answers with the protocol's status code and, when
// it refuses a request, the reason.

func (c *Coordinator) lease(_ context.Context, req leaseRequest) (*leaseResponse, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchWorkerLocked(req.Worker, now).setCopies(req.Copies)
	c.sweepLocked(now)
	if c.overLocked() {
		return nil, http.StatusGone, nil
	}
	n := 1
	if req.Run {
		n = c.runLenLocked()
	}
	// Pop the next shards that are still pending (a queued shard can have
	// been settled out of band, e.g. a stale owner's late completion).
	var run []shardGrant
	for len(run) < n && len(c.queue) > 0 {
		s := c.shards[c.queue[0]]
		c.queue = c.queue[1:]
		if s.status == shardPending {
			run = append(run, c.grantLocked(s, req.Worker, now))
		}
	}
	if len(run) == 0 {
		return nil, http.StatusNoContent, nil
	}
	return &leaseResponse{
		Shard:       run[0].ShardLease,
		Rest:        run[1:],
		Campaign:    c.cfg.Campaign,
		TTLMs:       c.cfg.LeaseTTL.Milliseconds(),
		Traceparent: run[0].Traceparent,
		AttachTrace: c.cfg.ShardTrace != nil,
	}, http.StatusOK, nil
}

// runLenLocked is how many shards a lease that asks for a run gets, by
// guided self-scheduling (Polychronopoulos & Kuck, IEEE TC 1987): half the
// pending shards' even share among the workers heard from, rounded up, so
// runs shrink as the campaign drains and the last shards are spread one at a
// time. A keyless campaign that stops on convergence is leased one shard at
// a time: its stop falls at a shard prefix, and a lone worker holding a run
// would run past it.
func (c *Coordinator) runLenLocked() int {
	if c.prefix != nil && c.cfg.Campaign.Stop.StopOnConverge {
		return 1
	}
	pending := 0
	for _, s := range c.shards {
		if s.status == shardPending {
			pending++
		}
	}
	share := 2 * len(c.workers)
	return max((pending+share-1)/share, 1)
}

// grantLocked leases one pending shard to a worker.
func (c *Coordinator) grantLocked(s *shard, worker string, now time.Time) shardGrant {
	s.status = shardLeased
	s.owner = worker
	s.attempts++
	c.grants++
	s.leasedAt = now
	s.lastBeat = time.Time{}
	s.deadline = now.Add(c.cfg.LeaseTTL)
	s.span = c.cfg.Tracer.StartSpan("shard", "coord", c.spanParent).
		AttrInt("shard", int64(s.ID)).
		AttrInt("lo", int64(s.Lo)).AttrInt("hi", int64(s.Hi)).
		Attr("worker", worker).
		AttrInt("attempt", int64(s.attempts))
	c.shardEvent(s, "lease", nil)
	return shardGrant{s.ShardLease, s.span.Context().Traceparent()}
}

// heldLocked returns the shards a worker holds, in ledger order.
func (c *Coordinator) heldLocked(worker string) []*shard {
	var held []*shard
	for _, s := range c.shards {
		if s.status == shardLeased && s.owner == worker {
			held = append(held, s)
		}
	}
	return held
}

func (c *Coordinator) heartbeat(req heartbeatRequest) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.overLocked() {
		return http.StatusGone, nil
	}
	s := c.shardByID(req.Shard)
	if s == nil || s.status != shardLeased || s.owner != req.Worker {
		// The lease expired and may already be re-granted: the worker must
		// abandon the shard (its eventual /v1/complete would still be
		// accepted — results are deterministic — but stopping saves work).
		return http.StatusConflict, nil
	}
	// The snapshot comes off the network and feeds the status, the rate
	// and the progress line: what it counts is bounded by the lease.
	if m := req.Metrics; m != nil && m.Injections > uint64(s.Hi-s.Lo) {
		return http.StatusBadRequest, fmt.Errorf("dist: heartbeat for shard %d reports %d injections, its lease covers %d",
			s.ID, m.Injections, s.Hi-s.Lo)
	}
	now := time.Now()
	// A heartbeat that arrives far later than the worker's TTL/3 schedule
	// marks a struggling worker or a congested path — record the gap
	// before it grows into a lease expiry.
	if gap, expect := now.Sub(c.lastSignalLocked(s)), c.cfg.LeaseTTL/3; gap > 2*expect {
		c.beatGapMs.Observe(uint64(gap.Milliseconds()))
		c.shardEvent(s, "heartbeat_gap", func(ev *obs.ShardEvent) {
			ev.GapMs = gap.Milliseconds()
			// Correlate the gap with the worker's span tree.
			ev.Detail = req.Traceparent
		})
	}
	for _, h := range c.heldLocked(req.Worker) {
		h.lastBeat = now
		h.deadline = now.Add(c.cfg.LeaseTTL)
	}
	ws := c.touchWorkerLocked(req.Worker, now)
	ws.setCopies(req.Copies)
	// The snapshot is cumulative and the newest one wins, so a heartbeat
	// replayed, lost or overtaken by a later one miscounts nothing.
	if m := req.Metrics; m != nil && m.Injections >= s.liveInjections() {
		ws.injections += m.Injections - s.liveInjections()
		s.live = m
	}
	return http.StatusOK, nil
}

func (c *Coordinator) complete(req completeRequest) (int, error) {
	run := req.run()
	reps := make([]*core.Report, len(run))
	for i, r := range run {
		if r.Report == nil {
			return http.StatusBadRequest, errors.New("dist: complete without report")
		}
		rep, err := r.Report.Report()
		if err != nil {
			return http.StatusBadRequest, err
		}
		reps[i] = rep
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The shards the run settles, in shard order. Idempotent: a shard
	// already completed (a worker retrying a completion whose response it
	// lost, a stale owner finishing after its lease was re-granted, a shard
	// named twice) is acknowledged and discarded.
	var todo []int // indices into run
	for i, r := range run {
		s := c.shardByID(r.Shard)
		if s == nil {
			return http.StatusBadRequest, fmt.Errorf("dist: unknown shard %d", r.Shard)
		}
		if s.status != shardDone {
			todo = append(todo, i)
		}
	}
	slices.SortStableFunc(todo, func(a, b int) int { return cmp.Compare(run[a].Shard, run[b].Shard) })
	todo = slices.CompactFunc(todo, func(a, b int) bool { return run[a].Shard == run[b].Shard })
	if len(todo) == 0 {
		return http.StatusOK, nil
	}
	// A late completion after the campaign failed or converged must not
	// reopen the ledger: the stop decision is a function of the shards
	// sealed at decision time.
	if c.overLocked() {
		return http.StatusGone, nil
	}
	lines := make([]any, len(todo))
	for k, i := range todo {
		if err := c.shards[run[i].Shard].covers(reps[i]); err != nil {
			return http.StatusBadRequest, err
		}
		lines[k] = journalEntry{Shard: run[i].Shard, Report: run[i].Report}
	}
	// Every line of the run is durable, under one sync, before any of its
	// shards settles and before the worker hears back. Journal loss is a
	// coordinator-side failure; the worker's result is fine, so the campaign
	// fails rather than the request.
	if err := c.recordLocked(lines...); err != nil {
		return http.StatusInternalServerError, err
	}
	now := time.Now()
	ws := c.touchWorkerLocked(req.Worker, now)
	for _, i := range todo {
		s, rep := c.shards[run[i].Shard], reps[i]
		ws.shardsDone++
		// Credit the completing worker with what the lease's heartbeats
		// hadn't already reported (the tail of the shard, or all of it when
		// the shard outran its first heartbeat): covers and the heartbeat
		// bound put the live count within the lease.
		ws.injections += uint64(rep.Total) - s.liveInjections()
		var latency time.Duration
		if s.status == shardLeased && s.owner == req.Worker && !s.leasedAt.IsZero() {
			latency = now.Sub(s.leasedAt)
			c.completionMs.Observe(uint64(latency.Milliseconds()))
		}
		c.shardEvent(s, "completed", func(ev *obs.ShardEvent) {
			ev.Worker = req.Worker
			ev.LatencyMs = latency.Milliseconds()
		})
		// Forward the worker's sampled trace segment into the shard trace,
		// each line wrapped with its shard/worker provenance. Only a worker
		// older than the lease's AttachTrace sends lines this coordinator
		// did not ask for; without a shard trace they are dropped.
		if c.cfg.ShardTrace != nil {
			for _, line := range run[i].Trace {
				c.cfg.ShardTrace.RecordJSON(attachedTrace{
					Shard: s.ID, Worker: req.Worker, Injection: line,
				})
			}
		}
		c.settleLocked(s, rep)
	}
	// Import the worker's finished spans: they already carry the trace ID
	// and parent chain (lease traceparent → shard.run → core → engine), so
	// adding them to the ring completes the cross-process tree.
	for _, sp := range req.Spans {
		c.cfg.Tracer.Add(sp)
	}
	c.decideLocked()
	return http.StatusOK, nil
}

// attachedTrace wraps one worker-attached injection trace line with its
// provenance for the coordinator's shard trace.
type attachedTrace struct {
	Shard     int             `json:"shard"`
	Worker    string          `json:"worker"`
	Injection json.RawMessage `json:"injection"`
}

func (c *Coordinator) fail(req failRequest) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.overLocked() {
		return http.StatusGone, nil
	}
	s := c.shardByID(req.Shard)
	if s == nil || s.status != shardLeased || s.owner != req.Worker {
		return http.StatusConflict, nil
	}
	c.shardEvent(s, "failed", func(ev *obs.ShardEvent) { ev.Detail = req.Error })
	ws := c.touchWorkerLocked(req.Worker, time.Now())
	ws.failures++
	c.requeueLocked(s, fmt.Sprintf("worker %q reported: %s", req.Worker, req.Error))
	for _, h := range c.heldLocked(req.Worker) {
		if !c.overLocked() {
			c.requeueLocked(h, fmt.Sprintf("worker %q gave up its run with shard %d", req.Worker, s.ID))
		}
	}
	return http.StatusOK, nil
}

func (c *Coordinator) shardByID(id int) *shard {
	if id < 0 || id >= len(c.shards) {
		return nil
	}
	return c.shards[id]
}
