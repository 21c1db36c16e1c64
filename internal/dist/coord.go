package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
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
	// be short). 0 picks a default that yields ~64 shards — small enough
	// to balance load and bound re-done work on worker death, large
	// enough to amortize per-shard overhead.
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
	// completed shard is appended (and fsync'd) as one JSONL record, and a
	// coordinator restarted over the same journal resumes with those
	// shards already done. "" disables journaling.
	Journal string

	// Log receives structured coordinator lifecycle events (lease grants,
	// requeues, completions, journal replay) with campaign/shard/worker
	// attributes. nil logs nothing.
	Log *slog.Logger

	// ShardTrace, when non-nil, receives one JSONL obs.ShardEvent per
	// shard-lifecycle transition (lease grant, heartbeat gap, expiry,
	// requeue with attempt count, completion with latency) plus any
	// sampled injection-trace segments workers attach to completions —
	// the after-the-fact forensics trail for requeue storms and straggler
	// workers.
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
	err      error
	finished chan struct{} // closed once the campaign completes, the stop rule fires, or err is set
	journal  *journal

	// sealed is the decision basis of every stop and allocation: the counts
	// of the *completed* shard reports, merged — never heartbeat snapshots
	// — so each decision is a pure function of which shards completed, and a
	// journal replay reaches the same one.
	sealed       *core.Report
	stoppedEarly bool
	stopEval     *stats.Convergence // the decision stopped on (nil until then)

	// eval is the stop rule's evaluation at the newest decision point (nil
	// without a rule): what every view shows, so none runs ahead of the stop.
	eval *stats.Convergence

	// metrics is the completed shards' snapshots merged; with the leased
	// shards' heartbeat snapshots it makes the fleet view (FleetSnapshot).
	metrics *obs.Snapshot

	// The campaign's epochs. Every campaign is a sequence of epochs over the
	// one shard ledger, and whenever every shard planned so far has settled
	// the next epoch's shards join it (decideLocked). Without a plan the
	// campaign is one epoch of keyless shards, planned at construction. With
	// one, the Neyman allocator splits each epoch's budget across the plan's
	// strata from the sealed per-stratum counts, and the allocation is
	// journaled before any of its shards can be leased.
	plan       *core.SamplePlan
	strataPops map[string]int
	drawn      map[string]int // per-stratum sequence prefix already planned
	epoch      int            // next allocation epoch ordinal
	budgetLeft int            // campaign injections not yet allocated

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
		filter, _ := cfg.Campaign.Filter.Filter() // Validate built it once already
		c.plan = core.BuildSamplePlan(db, cfg.Campaign.Seed, filter)
		if len(c.plan.Strata) == 0 {
			return nil, fmt.Errorf("dist: stratified campaign over an empty population")
		}
		c.strataPops = c.plan.Populations()
		c.drawn = make(map[string]int, len(c.plan.Strata))
		c.budgetLeft = cfg.Campaign.Flips
	} else {
		// The keyless epoch is a function of the fields the journal header
		// binds, so it is planned here, before replay, and never journaled.
		for id, r := range core.PlanShards(cfg.Campaign.Flips, cfg.ShardSize) {
			c.shards = append(c.shards, &shard{ShardLease: ShardLease{ID: id, Lo: r.Lo, Hi: r.Hi}})
			c.queue = append(c.queue, id)
		}
	}
	if cfg.Journal != "" {
		j, entries, err := openJournal(cfg.Journal, cfg.Campaign.journalHeader(cfg.ShardSize), c.log)
		if err != nil {
			return nil, err
		}
		c.journal = j
		if err := c.replayLocked(entries); err != nil {
			j.close()
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
// barrier it was written at, over the reports journaled before it.
func (c *Coordinator) replayLocked(entries []replayEntry) error {
	recovered := 0
	for _, e := range entries {
		switch {
		case e.stop != nil:
			c.stoppedEarly, c.stopEval, c.eval = true, e.stop, e.stop
		case e.alloc != nil:
			if c.plan == nil {
				return fmt.Errorf("dist: journal records an allocation epoch but the campaign is not stratified")
			}
			c.eval = c.evalLocked()
			c.applyAllocLocked(*e.alloc)
		case e.report != nil:
			s := c.shardByID(e.shard)
			if s == nil {
				return fmt.Errorf("dist: journal names shard %d outside the %d-shard plan", e.shard, len(c.shards))
			}
			if err := s.covers(e.report); err != nil {
				return fmt.Errorf("journal %s: %w", c.cfg.Journal, err)
			}
			c.settleLocked(s, e.report)
			recovered++
		}
	}
	if recovered > 0 || c.stoppedEarly {
		c.log.Info("journal replayed", "path", c.cfg.Journal,
			"shards_recovered", recovered, "epochs", c.epoch, "stopped_early", c.stoppedEarly)
	}
	if c.stoppedEarly {
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
		c.journal.close()
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
	if c.rootSp != nil {
		c.rootSp.AttrInt("shards_done", int64(c.done)).End()
		c.rootSp = nil
	}
	close(c.finished)
}

// covers checks that a report is one of this shard: as many injections as
// the lease, in its metrics too, attributed to the lease's stratum and to no
// other, and counted once in every outcome breakdown. Those rows feed the
// allocator and every interval, so a report that miscounts would silently
// bias both.
func (s *shard) covers(rep *core.Report) error {
	if rep.Total != s.Hi-s.Lo {
		return fmt.Errorf("dist: shard %d report covers %d injections, want %d", s.ID, rep.Total, s.Hi-s.Lo)
	}
	type rows = map[string]map[core.Outcome]int
	want, attributed := 0, rep.Total // a keyless shard: no row, nothing to attribute
	if s.Stratum != "" {
		want, attributed = 1, tally(rows{s.Stratum: rep.ByStratum[s.Stratum]})
	}
	if len(rep.ByStratum) != want || attributed != rep.Total {
		return fmt.Errorf("dist: shard %d report must attribute its %d injections to stratum %q alone", s.ID, rep.Total, s.Stratum)
	}
	if tally(rows{"": rep.Counts}) != rep.Total || tally(rep.ByUnit) != rep.Total || tally(rep.ByType) != rep.Total {
		return fmt.Errorf("dist: shard %d report must count each of its %d injections once per outcome breakdown", s.ID, rep.Total)
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

// settleLocked marks a shard done with its report and seals the report's
// counts. It decides nothing: live completions call decideLocked next,
// journal replay does not.
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
}

// decideLocked is the campaign's one decision point, over sealed counts
// only: stop on convergence, or — once every shard planned so far has
// settled — plan the next epoch, or finish. A keyless epoch differs from a
// planned one in three ways that journals and reports depend on:
//
//  1. It may stop mid-epoch. It is the whole budget, so a rule consulted at
//     epoch boundaries only could never stop it; and its stop line has always
//     carried the pooled classes alone, without breakdowns.
//  2. It is never journaled (NewCoordinator plans it).
//  3. When its last shard settles the campaign is complete, not stopped
//     early, even if the rule holds at that instant: nothing was saved.
//
// Every decision point's evaluation is the one the views show.
func (c *Coordinator) decideLocked() {
	if c.overLocked() {
		return
	}
	settled := c.done == len(c.shards)
	if c.plan == nil || settled {
		c.eval = c.evalLocked()
		mayStop := c.cfg.Campaign.Stop.StopOnConverge && (c.plan != nil || !settled)
		if mayStop && c.eval.Converged {
			c.convergeLocked(c.eval)
			return
		}
	}
	if !settled {
		return
	}
	rec := c.nextEpochLocked()
	if rec == nil {
		c.log.Info("campaign complete",
			"shards", len(c.shards), "epochs", c.epoch, "grants", c.grants,
			"requeues", c.requeues, "budget_left", c.budgetLeft,
			"elapsed", time.Since(c.started).Round(time.Millisecond))
		c.finishLocked()
		return
	}
	// Durable before any of its shards can be leased: a restarted coordinator
	// extends the same per-stratum sequences instead of re-deriving them
	// against a half-settled ledger.
	if c.journal != nil {
		if err := c.journal.appendAlloc(*rec); err != nil {
			c.failLocked(fmt.Errorf("dist: journal allocation record: %w", err))
			return
		}
	}
	c.applyAllocLocked(*rec)
}

// evalLocked evaluates the stop rule over the sealed counts, as the
// campaign's shape decides on them: the pooled classes alone for a keyless
// campaign, with the sampling strata for a planned one. nil without a rule.
func (c *Coordinator) evalLocked() *stats.Convergence {
	rule := c.cfg.Campaign.Stop.Rule()
	if c.plan == nil {
		return c.sealed.PooledConvergence(rule)
	}
	return c.sealed.ComputeConvergence(rule, c.strataPops)
}

// nextEpochLocked plans the epoch after a settled ledger: the allocator's
// split of the next slice of budget over the sealed per-stratum counts, each
// stratum's share cut into ShardSize-bounded leases that continue the
// stratum's drawn prefix. nil means the campaign is complete: it has no plan
// (its keyless epoch was all of it), the budget is spent, or every
// unconverged stratum's population is exhausted.
func (c *Coordinator) nextEpochLocked() *allocRecord {
	if c.plan == nil {
		return nil
	}
	spec := c.cfg.Campaign
	shares, allocated := c.plan.NextEpoch(spec.Flips, spec.Alloc, spec.Stop.Rule(),
		c.sealed.ByStratum, c.drawn, c.budgetLeft)
	if allocated == 0 {
		return nil
	}
	rec := &allocRecord{Epoch: c.epoch, Budget: allocated, Shares: shares}
	id := len(c.shards)
	for _, sh := range shares {
		for _, r := range core.PlanStratumShards(c.drawn[sh.Stratum], sh.Next, c.cfg.ShardSize) {
			rec.Shards = append(rec.Shards, ShardLease{ID: id, Lo: r.Lo, Hi: r.Hi, Stratum: sh.Stratum})
			id++
		}
	}
	return rec
}

// applyAllocLocked extends the shard ledger with one allocation epoch's
// planned shards (freshly allocated or replayed from the journal), queues
// them and advances each stratum's drawn prefix past them.
func (c *Coordinator) applyAllocLocked(rec allocRecord) {
	for _, l := range rec.Shards {
		c.shards = append(c.shards, &shard{ShardLease: l})
		c.queue = append(c.queue, l.ID)
		if l.Hi > c.drawn[l.Stratum] {
			c.drawn[l.Stratum] = l.Hi
		}
	}
	c.budgetLeft -= rec.Budget
	c.epoch = rec.Epoch + 1
	c.emit(slog.LevelInfo, "allocation epoch planned", obs.AllocationEvent{
		Kind: "allocate", Epoch: rec.Epoch, Budget: rec.Budget, Shares: rec.Shares,
	})
}

// convergeLocked stops the campaign on a sealed-counts convergence verdict:
// journal the decision first (so a restart honors it rather than re-running
// the race between remaining shards and the rule), then seal the ledger.
// Outstanding leases are cancelled passively — overLocked() now answers
// heartbeat and lease polls with 410 Gone, and workers abandon their
// in-flight shards.
func (c *Coordinator) convergeLocked(eval *stats.Convergence) {
	if c.journal != nil {
		if err := c.journal.appendStop(eval); err != nil {
			c.failLocked(fmt.Errorf("dist: journal stop record: %w", err))
			return
		}
	}
	c.stoppedEarly = true
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
	// After an early stop only completed shards carry reports; the merge
	// covers exactly the population the stop decision was evaluated on.
	rep := &core.Report{}
	for _, s := range c.shards {
		rep.Merge(s.report)
	}
	if stop := c.cfg.Campaign.Stop; stop.Enabled() {
		rep.Convergence = rep.ComputeConvergence(stop.Rule(), c.strataPops)
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

// The four calls of the lease protocol (the coordinator interface in
// worker.go). The HTTP handlers and a worker running in this process call
// the same methods; each answers with the protocol's status code and, when
// it refuses a request, the reason.

func (c *Coordinator) lease(_ context.Context, req leaseRequest) (*leaseResponse, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchWorkerLocked(req.Worker, now)
	c.sweepLocked(now)
	if c.overLocked() {
		return nil, http.StatusGone, nil
	}
	// Pop the next shard that is still pending (a queued shard can have
	// been settled out of band, e.g. a stale owner's late completion).
	var s *shard
	for s == nil {
		if len(c.queue) == 0 {
			return nil, http.StatusNoContent, nil
		}
		s = c.shards[c.queue[0]]
		c.queue = c.queue[1:]
		if s.status != shardPending {
			s = nil
		}
	}
	s.status = shardLeased
	s.owner = req.Worker
	s.attempts++
	c.grants++
	s.leasedAt = now
	s.lastBeat = time.Time{}
	s.deadline = now.Add(c.cfg.LeaseTTL)
	s.span = c.cfg.Tracer.StartSpan("shard", "coord", c.spanParent).
		AttrInt("shard", int64(s.ID)).
		AttrInt("lo", int64(s.Lo)).AttrInt("hi", int64(s.Hi)).
		Attr("worker", req.Worker).
		AttrInt("attempt", int64(s.attempts))
	c.shardEvent(s, "lease", nil)
	return &leaseResponse{
		Shard:       s.ShardLease,
		Campaign:    c.cfg.Campaign,
		TTLMs:       c.cfg.LeaseTTL.Milliseconds(),
		Traceparent: s.span.Context().Traceparent(),
	}, http.StatusOK, nil
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
	s.lastBeat = now
	s.deadline = now.Add(c.cfg.LeaseTTL)
	ws := c.touchWorkerLocked(req.Worker, now)
	// The snapshot is cumulative and the newest one wins, so a heartbeat
	// replayed, lost or overtaken by a later one miscounts nothing.
	if m := req.Metrics; m != nil && m.Injections >= s.liveInjections() {
		ws.injections += m.Injections - s.liveInjections()
		s.live = m
	}
	return http.StatusOK, nil
}

func (c *Coordinator) complete(req completeRequest) (int, error) {
	if req.Report == nil {
		return http.StatusBadRequest, errors.New("dist: complete without report")
	}
	rep, err := req.Report.Report()
	if err != nil {
		return http.StatusBadRequest, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shardByID(req.Shard)
	if s == nil {
		return http.StatusBadRequest, fmt.Errorf("dist: unknown shard %d", req.Shard)
	}
	// Idempotent: re-delivery of a completed shard (worker retrying a
	// complete whose response it lost, or a stale owner finishing after
	// its lease was re-granted) is acknowledged and discarded.
	if s.status == shardDone {
		return http.StatusOK, nil
	}
	// A late completion after the campaign failed or converged must not
	// reopen the ledger: the stop decision is a function of the shards
	// sealed at decision time.
	if c.overLocked() {
		return http.StatusGone, nil
	}
	if err := s.covers(rep); err != nil {
		return http.StatusBadRequest, err
	}
	if c.journal != nil {
		if err := c.journal.append(s.ID, req.Report); err != nil {
			// Journal loss is a coordinator-side failure; the worker's
			// result is fine, so fail the campaign rather than the request.
			c.failLocked(fmt.Errorf("dist: journal append: %w", err))
			return http.StatusInternalServerError, err
		}
	}
	now := time.Now()
	ws := c.touchWorkerLocked(req.Worker, now)
	ws.shardsDone++
	// Credit the completing worker with what the lease's heartbeats hadn't
	// already reported (the tail of the shard, or all of it when the shard
	// outran its first heartbeat): covers and the heartbeat bound put the
	// live count within the lease.
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
	// each line wrapped with its shard/worker provenance.
	if c.cfg.ShardTrace != nil {
		for _, line := range req.Trace {
			c.cfg.ShardTrace.RecordJSON(attachedTrace{
				Shard: s.ID, Worker: req.Worker, Injection: line,
			})
		}
	}
	// Import the worker's finished spans: they already carry the trace ID
	// and parent chain (lease traceparent → shard.run → core → engine), so
	// adding them to the ring completes the cross-process tree.
	for _, sp := range req.Spans {
		c.cfg.Tracer.Add(sp)
	}
	c.settleLocked(s, rep)
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
	return http.StatusOK, nil
}

func (c *Coordinator) shardByID(id int) *shard {
	if id < 0 || id >= len(c.shards) {
		return nil
	}
	return c.shards[id]
}
