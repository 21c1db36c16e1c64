package dist

import (
	"context"
	"encoding/json"
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

	leasedAt time.Time // grant time of the current lease
	lastBeat time.Time // last heartbeat of the current lease (zero until one arrives)
	liveInj  uint64    // injections reported via heartbeat deltas this lease

	span *obs.Span // the current lease's "shard" span (nil untraced)
}

// fleetKey names the shard's stream in the fleet aggregator.
func (s *shard) fleetKey() string { return fmt.Sprintf("shard-%d", s.ID) }

// workerStats is the coordinator's per-worker ledger, fed by lease grants,
// heartbeat deltas and completions.
type workerStats struct {
	firstSeen  time.Time
	lastSeen   time.Time
	injections uint64 // classified injections credited to this worker
	busyNs     uint64 // wall nanoseconds its model copies spent injecting
	shardsDone int
	failures   int // /v1/fail reports
}

// Coordinator owns a campaign's shard ledger and serves the lease
// protocol. All state transitions happen under one mutex; the HTTP
// handlers, the lease reaper and Wait share it.
type Coordinator struct {
	cfg CoordConfig
	log *slog.Logger

	// fleet is the live fleet-wide metrics view: heartbeat deltas of
	// in-flight shards plus the exact final snapshots of completed ones.
	// It has its own lock and is deliberately outside mu — /metrics
	// scrapes never contend with the lease path.
	fleet *obs.Fleet

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
	queue    []int // pending shard IDs, FIFO
	done     int
	grants   int // total lease grants (observability)
	requeues int // total shard requeues (expiry + explicit fails)
	workers  map[string]*workerStats
	started  time.Time
	err      error
	finished chan struct{} // closed once done==len(shards), the stop rule fires, or err is set
	journal  *journal

	// Adaptive-stop state. The decision basis is sealedCounts/sealedTotal —
	// outcome counts summed over *completed* shard reports only, never live
	// heartbeat deltas — so whether the rule fires is a pure function of
	// which shards completed, and a journal replay reaches the same verdict.
	sealedTotal   int64
	sealedCounts  map[string]int64
	stoppedEarly  bool
	stopEval      *stats.Convergence // the decision stopped on (nil until then)
	stopJournaled bool               // stop line already durable (written or replayed)

	// Stratified-allocation state (nil plan for uniform campaigns). The
	// shard ledger grows per allocation epoch: each epoch boundary — all
	// shards planned so far settled — the Neyman allocator splits the next
	// epoch's budget across the plan's strata from the sealed per-stratum
	// counts and the resulting shards join the queue. Like the stop rule,
	// every allocation is a pure function of which shards completed, so a
	// journal replay re-plans identically.
	plan         *core.SamplePlan
	strataPops   map[string]int
	drawn        map[string]int                  // per-stratum sequence prefix already planned
	sealedStrata map[string]map[core.Outcome]int // per-stratum outcome counts over completed shards
	epoch        int                             // next allocation epoch ordinal
	budgetLeft   int                             // campaign injections not yet allocated
	replaying    bool                            // journal replay in progress: suppress boundary decisions

	stopReaper chan struct{}
	reaperDone chan struct{}
}

// stratified reports whether the campaign allocates its budget across
// sampling strata.
func (c *Coordinator) stratified() bool { return c.plan != nil }

// NewCoordinator plans the campaign's shards, replays the journal if one
// is configured and present, and starts the lease reaper. Callers must
// Close it.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Campaign.Flips < 1 {
		return nil, fmt.Errorf("dist: campaign needs at least one flip")
	}
	filter, err := cfg.Campaign.Filter.Filter()
	if err != nil {
		return nil, err
	}
	if err := cfg.Campaign.Alloc.Validate(); err != nil {
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
		cfg:          cfg,
		log:          cfg.Log.With("seed", cfg.Campaign.Seed, "flips", cfg.Campaign.Flips),
		fleet:        obs.NewFleet(),
		workers:      make(map[string]*workerStats),
		started:      time.Now(),
		finished:     make(chan struct{}),
		stopReaper:   make(chan struct{}),
		reaperDone:   make(chan struct{}),
		sealedCounts: make(map[string]int64),
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
		c.plan = core.BuildSamplePlan(db, cfg.Campaign.Seed, filter)
		if len(c.plan.Strata) == 0 {
			return nil, fmt.Errorf("dist: stratified campaign over an empty population")
		}
		c.strataPops = c.plan.Populations()
		c.drawn = make(map[string]int, len(c.plan.Strata))
		c.sealedStrata = make(map[string]map[core.Outcome]int, len(c.plan.Strata))
		c.budgetLeft = cfg.Campaign.Flips
	} else {
		for id, r := range core.PlanShards(cfg.Campaign.Flips, cfg.ShardSize) {
			c.shards = append(c.shards, &shard{
				ShardLease: ShardLease{ID: id, Lo: r.Lo, Hi: r.Hi},
			})
		}
	}
	if cfg.Journal != "" {
		j, entries, err := openJournal(cfg.Journal, journalHeader{
			V:         1,
			Seed:      cfg.Campaign.Seed,
			Backend:   engine.Resolve(cfg.Campaign.Runner.Backend),
			Flips:     cfg.Campaign.Flips,
			ShardSize: cfg.ShardSize,
			Filter:    cfg.Campaign.Filter,
			Stop:      cfg.Campaign.Stop,
			Alloc:     cfg.Campaign.Alloc,
		}, c.log)
		if err != nil {
			return nil, err
		}
		c.journal = j
		if err := c.replayLocked(entries); err != nil {
			j.close()
			return nil, err
		}
	}
	if c.stratified() && !c.stoppedEarly && c.err == nil && c.done == len(c.shards) {
		// Fresh campaign (bootstrap epoch 0), or the journal ended exactly
		// on a settled epoch without recording the next allocation: plan it
		// now. Deterministic either way — the allocation is a function of
		// the sealed counts replayed above.
		c.epochBoundaryLocked()
	}
	// (Re)queue whatever the journal and bootstrap didn't already settle,
	// in shard order.
	c.queue = c.queue[:0]
	for _, s := range c.shards {
		if s.status == shardPending {
			c.queue = append(c.queue, s.ID)
		}
	}
	c.log.Info("campaign planned",
		"shards", len(c.shards), "shard_size", cfg.ShardSize,
		"pending", len(c.queue), "lease_ttl", cfg.LeaseTTL,
		"alloc", cfg.Campaign.Alloc.Mode)
	go c.reaper()
	return c, nil
}

// replayLocked applies recovered journal entries. The stop decision (the
// journal's final decision line, when present) is honored before anything
// else so no replayed completion re-evaluates the rule; allocations and
// reports then apply in file order, which for stratified campaigns is the
// only order that reproduces the ledger — each allocation extended the
// per-stratum sequences from the sealed counts before it.
func (c *Coordinator) replayLocked(entries []replayEntry) error {
	c.replaying = true
	defer func() { c.replaying = false }()
	recovered := 0
	for _, e := range entries {
		if e.stop != nil {
			c.stoppedEarly = true
			c.stopEval = e.stop
			c.stopJournaled = true
		}
	}
	for _, e := range entries {
		switch {
		case e.alloc != nil:
			if !c.stratified() {
				return fmt.Errorf("dist: journal records an allocation epoch but the campaign is not stratified")
			}
			c.applyAllocLocked(*e.alloc)
		case e.report != nil:
			if e.shard < 0 || e.shard >= len(c.shards) {
				return fmt.Errorf("dist: journal names shard %d outside the %d-shard plan", e.shard, len(c.shards))
			}
			c.markDoneLocked(c.shards[e.shard], e.report)
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

// shardEvent emits one lifecycle event to the shard trace (no-op without
// a configured sink).
func (c *Coordinator) shardEvent(s *shard, kind string, mut func(*obs.ShardEvent)) {
	if c.cfg.ShardTrace == nil {
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
	c.cfg.ShardTrace.RecordShard(ev)
}

// sweepLocked expires overdue leases. A shard that has used all its
// attempts fails the campaign; otherwise it goes back on the queue for
// another worker.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, s := range c.shards {
		if s.status != shardLeased || now.Before(s.deadline) {
			continue
		}
		c.log.Warn("lease expired",
			"shard", s.ID, "worker", s.owner, "attempt", s.attempts,
			"silence", now.Sub(c.lastSignalLocked(s)).Round(time.Millisecond))
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
	s.lastBeat = time.Time{}
	s.liveInj = 0
	c.requeues++
	// The abandoned lease's partial metrics would double-count the
	// injections its replacement will redo.
	c.fleet.Discard(s.fleetKey())
	if s.attempts >= c.cfg.MaxAttempts {
		c.shardEvent(s, "exhausted", func(ev *obs.ShardEvent) { ev.Detail = why })
		c.failLocked(fmt.Errorf("dist: shard %d [%d,%d) failed %d of %d attempts (last: %s)",
			s.ID, s.Lo, s.Hi, s.attempts, c.cfg.MaxAttempts, why))
		return
	}
	c.shardEvent(s, "requeued", func(ev *obs.ShardEvent) { ev.Detail = why })
	c.log.Info("shard requeued", "shard", s.ID, "attempt", s.attempts, "why", why)
	c.queue = append(c.queue, s.ID)
}

func (c *Coordinator) failLocked(err error) {
	if c.err == nil && !c.stoppedEarly && c.done < len(c.shards) {
		c.err = err
		c.log.Error("campaign failed", "err", err)
		c.finishLocked()
	}
}

// finishLocked closes the finished channel exactly once. Completion, the
// convergence stop and failure all funnel through it.
func (c *Coordinator) finishLocked() {
	select {
	case <-c.finished:
	default:
		if c.rootSp != nil {
			c.rootSp.AttrInt("shards_done", int64(c.done)).End()
			c.rootSp = nil
		}
		close(c.finished)
	}
}

func (c *Coordinator) markDoneLocked(s *shard, rep *core.Report) {
	if s.status == shardDone {
		return
	}
	if s.span != nil {
		if rep != nil {
			s.span.AttrInt("injections", int64(rep.Total))
		}
		s.span.End()
		s.span = nil
	}
	s.status = shardDone
	s.owner = ""
	s.report = rep
	// Replace the shard's live heartbeat deltas with its exact final
	// snapshot: the fleet view now counts this shard's injections exactly
	// once, and converges to the merged-report snapshot when the campaign
	// completes.
	var final *obs.Snapshot
	if rep != nil {
		final = rep.Metrics
	}
	c.fleet.Seal(s.fleetKey(), final)
	c.done++
	if (c.cfg.Campaign.Stop.Enabled() || c.stratified()) && rep != nil {
		c.sealedTotal += int64(rep.Total)
		for o, n := range rep.Counts {
			c.sealedCounts[o.String()] += int64(n)
		}
	}
	if c.stratified() && rep != nil {
		for key, row := range rep.ByStratum {
			d := c.sealedStrata[key]
			if d == nil {
				d = make(map[core.Outcome]int, len(row))
				c.sealedStrata[key] = d
			}
			for o, n := range row {
				d[o] += n
			}
		}
	}
	if c.done == len(c.shards) && c.err == nil {
		if c.stratified() {
			// An allocation-epoch boundary, not (necessarily) the end: the
			// stop rule and the next allocation are evaluated here, over
			// fully settled counts only — never mid-epoch — so the campaign
			// is a pure function of which shards completed. Replay applies
			// journaled decisions instead of re-deriving them.
			if !c.replaying {
				c.epochBoundaryLocked()
			}
			return
		}
		c.log.Info("campaign complete",
			"shards", len(c.shards), "grants", c.grants, "requeues", c.requeues,
			"elapsed", time.Since(c.started).Round(time.Millisecond))
		c.finishLocked()
		return
	}
	if !c.stratified() && c.cfg.Campaign.Stop.Enabled() && c.cfg.Campaign.Stop.StopOnConverge &&
		!c.stoppedEarly && c.err == nil {
		eval := c.cfg.Campaign.Stop.Rule().Eval(outcomeClasses(), c.sealedCounts, c.sealedTotal)
		if eval.Converged {
			c.convergeLocked(eval)
		}
	}
}

// sealedConvergenceLocked evaluates the stopping rule over the merged
// sealed shard reports, stratum margins included — the stratified
// campaign's decision basis. Only called at epoch boundaries, when every
// planned shard is settled.
func (c *Coordinator) sealedConvergenceLocked() *stats.Convergence {
	rep := &core.Report{}
	for _, s := range c.shards {
		rep.Merge(s.report)
	}
	return rep.ComputeConvergenceStrata(c.cfg.Campaign.Stop.Rule(), c.strataPops)
}

// planEpochLocked turns an allocation's shares into shard leases, each a
// ShardSize-bounded slice of one stratum's sequence, extending the
// stratum's drawn prefix.
func (c *Coordinator) planEpochLocked(shares []stats.StratumShare) []ShardLease {
	var leases []ShardLease
	id := len(c.shards)
	for _, sh := range shares {
		if sh.Next == 0 {
			continue
		}
		lo := c.drawn[sh.Stratum]
		for _, r := range core.PlanStratumShards(lo, sh.Next, c.cfg.ShardSize) {
			leases = append(leases, ShardLease{ID: id, Lo: r.Lo, Hi: r.Hi, Stratum: sh.Stratum})
			id++
		}
		c.drawn[sh.Stratum] = lo + sh.Next
	}
	return leases
}

// applyAllocLocked extends the shard ledger with one allocation epoch's
// planned shards (freshly allocated or replayed from the journal) and
// queues them.
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
	if c.cfg.ShardTrace != nil {
		c.cfg.ShardTrace.RecordJSON(obs.AllocationEvent{
			Kind: "allocate", Epoch: rec.Epoch, Budget: rec.Budget, Shares: rec.Shares,
		})
	}
	c.log.Info("allocation epoch planned", "epoch", rec.Epoch,
		"budget", rec.Budget, "strata", len(rec.Shares), "shards", len(rec.Shards))
}

// epochBoundaryLocked runs a stratified campaign's settled-ledger decision
// point: evaluate the stop rule over sealed counts, then either stop,
// finish (budget spent or every stratum exhausted), or journal and queue
// the next allocation epoch.
func (c *Coordinator) epochBoundaryLocked() {
	stop := c.cfg.Campaign.Stop
	if stop.Enabled() && len(c.shards) > 0 {
		eval := c.sealedConvergenceLocked()
		if stop.StopOnConverge && !c.stoppedEarly && eval.Converged {
			c.convergeLocked(eval)
			return
		}
	}
	shares, allocated := c.plan.NextEpoch(c.cfg.Campaign.Flips, c.cfg.Campaign.Alloc, stop.Rule(),
		c.sealedStrata, c.drawn, c.budgetLeft)
	if allocated == 0 {
		// Budget spent, or every (unconverged) stratum's population is
		// exhausted: the campaign is complete.
		c.log.Info("campaign complete",
			"shards", len(c.shards), "epochs", c.epoch, "grants", c.grants,
			"requeues", c.requeues, "budget_left", c.budgetLeft,
			"elapsed", time.Since(c.started).Round(time.Millisecond))
		c.finishLocked()
		return
	}
	rec := allocRecord{Epoch: c.epoch, Budget: allocated, Shares: shares,
		Shards: c.planEpochLocked(shares)}
	// planEpochLocked advanced drawn; applyAllocLocked must not re-advance
	// (it only catches up during replay) — Hi never exceeds drawn here.
	if c.journal != nil {
		if err := c.journal.appendAlloc(rec); err != nil {
			c.err = fmt.Errorf("dist: journal allocation record: %w", err)
			c.log.Error("campaign failed", "err", c.err)
			c.finishLocked()
			return
		}
	}
	c.applyAllocLocked(rec)
}

// convergeLocked stops the campaign on a sealed-counts convergence verdict:
// journal the decision first (so a restart honors it rather than re-running
// the race between remaining shards and the rule), then seal the ledger.
// Outstanding leases are cancelled passively — overLocked() now answers
// heartbeat and lease polls with 410 Gone, and workers abandon their
// in-flight shards.
func (c *Coordinator) convergeLocked(eval *stats.Convergence) {
	if c.journal != nil && !c.stopJournaled {
		if err := c.journal.appendStop(eval); err != nil {
			c.failLocked(fmt.Errorf("dist: journal stop record: %w", err))
			return
		}
		c.stopJournaled = true
	}
	c.stoppedEarly = true
	c.stopEval = eval
	c.log.Info("campaign converged, stopping early",
		"sealed_injections", eval.Total, "shards_done", c.done, "shards", len(c.shards),
		"widest_class", eval.WidestClass, "widest_width", eval.WidestWidth,
		"target_margin", eval.TargetMargin)
	if c.cfg.ShardTrace != nil {
		c.cfg.ShardTrace.RecordJSON(obs.ConvergenceEvent{
			Kind:         "fleet_stop",
			N:            eval.Total,
			Width:        eval.WidestWidth,
			TargetMargin: eval.TargetMargin,
			Confidence:   eval.Confidence,
		})
	}
	c.finishLocked()
}

func (c *Coordinator) overLocked() bool {
	return c.err != nil || c.stoppedEarly || c.done == len(c.shards)
}

// outcomeClasses is the tracked outcome classes in reporting order.
func outcomeClasses() []string {
	names := make([]string, len(core.Outcomes))
	for i, o := range core.Outcomes {
		names[i] = o.String()
	}
	return names
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
		if c.stratified() {
			rep.Convergence = rep.ComputeConvergenceStrata(stop.Rule(), c.strataPops)
		} else {
			rep.Convergence = rep.ComputeConvergence(stop.Rule())
		}
	}
	return rep, nil
}

// Progress is a point-in-time view of the distributed campaign.
type Progress struct {
	Shards     int    `json:"shards"`
	Done       int    `json:"done"`
	Leased     int    `json:"leased"`
	Pending    int    `json:"pending"`
	Grants     int    `json:"lease_grants"`
	Requeues   int    `json:"requeues"`
	Injections int    `json:"injections_done"`
	Total      int    `json:"injections_total"`
	Failed     bool   `json:"failed"`
	Error      string `json:"error,omitempty"`
	// StoppedEarly reports that the convergence stop rule sealed the
	// campaign before every shard completed.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	// Outcomes is the outcome mix over completed shards.
	Outcomes map[string]int `json:"outcomes,omitempty"`
}

// Progress returns the campaign's current state.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{
		Shards:   len(c.shards),
		Done:     c.done,
		Grants:   c.grants,
		Requeues: c.requeues,
		Total:    c.cfg.Campaign.Flips,
		Failed:   c.err != nil,
		Outcomes: make(map[string]int),
	}
	p.StoppedEarly = c.stoppedEarly
	if c.err != nil {
		p.Error = c.err.Error()
	}
	for _, s := range c.shards {
		switch s.status {
		case shardLeased:
			p.Leased++
		case shardPending:
			p.Pending++
		case shardDone:
			if s.report == nil {
				continue
			}
			p.Injections += s.report.Total
			for o, n := range s.report.Counts {
				p.Outcomes[o.String()] += n
			}
		}
	}
	return p
}

// FleetSnapshot returns the live fleet-wide metrics view: heartbeat
// deltas of in-flight shards plus the exact final snapshots of completed
// shards. Once the campaign completes it equals the merged Report's
// snapshot counter for counter.
func (c *Coordinator) FleetSnapshot() *obs.Snapshot {
	return c.fleet.Snapshot()
}

// Convergence is the live fleet-wide confidence-interval evaluation over
// the fleet metrics view (sealed completed-shard snapshots plus heartbeat
// deltas of in-flight shards). It feeds the progress line, /v1/status and
// /metrics; the stop *decision* is made over sealed counts only. Nil
// without a stop rule.
func (c *Coordinator) Convergence() *stats.Convergence {
	stop := c.cfg.Campaign.Stop
	if !stop.Enabled() {
		return nil
	}
	return c.fleet.Convergence(outcomeClasses(), stop.Rule(), false)
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

// Handler returns the coordinator's HTTP API:
//
//	POST /v1/lease      lease the next pending shard (204 = none pending,
//	                    410 = campaign over)
//	POST /v1/heartbeat  extend a held lease, optionally carrying a metrics
//	                    delta (409 = lease lost)
//	POST /v1/complete   deliver a shard report (idempotent)
//	POST /v1/fail       give a shard back after a worker-side error
//	GET  /v1/status     full fleet status, JSON (per-shard state machine,
//	                    per-worker rates, live totals, rate/ETA)
//	GET  /v1/trace      the campaign's causal span tree with critical path
//	                    and latency attribution, JSON (empty untraced)
//	GET  /progress      campaign progress, JSON
//	GET  /metrics       live fleet-wide metrics (in-flight shard deltas +
//	                    completed shard snapshots) plus coordinator shard
//	                    latency histograms and — for adaptive campaigns —
//	                    per-class confidence-interval gauges, Prometheus text
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/fail", c.handleFail)
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

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	now := time.Now()
	c.touchWorkerLocked(req.Worker, now)
	c.sweepLocked(now)
	if c.overLocked() {
		c.mu.Unlock()
		w.WriteHeader(http.StatusGone)
		return
	}
	// Pop the next shard that is still pending (a queued shard can have
	// been settled out of band, e.g. a stale owner's late completion).
	var s *shard
	for s == nil {
		if len(c.queue) == 0 {
			c.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
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
	s.liveInj = 0
	s.deadline = now.Add(c.cfg.LeaseTTL)
	s.span = c.cfg.Tracer.StartSpan("shard", "coord", c.spanParent).
		AttrInt("shard", int64(s.ID)).
		AttrInt("lo", int64(s.Lo)).AttrInt("hi", int64(s.Hi)).
		Attr("worker", req.Worker).
		AttrInt("attempt", int64(s.attempts))
	c.shardEvent(s, "lease", nil)
	c.log.Debug("lease granted", "shard", s.ID, "worker", req.Worker, "attempt", s.attempts)
	resp := leaseResponse{
		Shard:       s.ShardLease,
		Campaign:    c.cfg.Campaign,
		TTLMs:       c.cfg.LeaseTTL.Milliseconds(),
		Traceparent: s.span.Context().Traceparent(),
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.overLocked() {
		w.WriteHeader(http.StatusGone)
		return
	}
	s := c.shardByID(req.Shard)
	if s == nil || s.status != shardLeased || s.owner != req.Worker {
		// The lease expired and may already be re-granted: the worker must
		// abandon the shard (its eventual /v1/complete would still be
		// accepted — results are deterministic — but stopping saves work).
		w.WriteHeader(http.StatusConflict)
		return
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
		c.log.Warn("heartbeat gap", "shard", s.ID, "worker", req.Worker,
			"gap", gap.Round(time.Millisecond))
	}
	s.lastBeat = now
	s.deadline = now.Add(c.cfg.LeaseTTL)
	ws := c.touchWorkerLocked(req.Worker, now)
	if req.Delta != nil && !req.Delta.Empty() {
		s.liveInj += req.Delta.Injections
		ws.injections += req.Delta.Injections
		ws.busyNs += req.Delta.BusyNs
		c.fleet.Observe(s.fleetKey(), req.Delta)
	}
	writeJSON(w, heartbeatResponse{TTLMs: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Report == nil {
		http.Error(w, "dist: complete without report", http.StatusBadRequest)
		return
	}
	rep, err := req.Report.Report()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shardByID(req.Shard)
	if s == nil {
		http.Error(w, fmt.Sprintf("dist: unknown shard %d", req.Shard), http.StatusBadRequest)
		return
	}
	// Idempotent: re-delivery of a completed shard (worker retrying a
	// complete whose response it lost, or a stale owner finishing after
	// its lease was re-granted) is acknowledged and discarded.
	if s.status == shardDone {
		w.WriteHeader(http.StatusOK)
		return
	}
	// A late completion after the campaign failed or converged must not
	// reopen the ledger: the stop decision is a function of the shards
	// sealed at decision time.
	if c.err != nil || c.stoppedEarly {
		w.WriteHeader(http.StatusGone)
		return
	}
	if rep.Total != s.Hi-s.Lo {
		http.Error(w, fmt.Sprintf("dist: shard %d report covers %d injections, want %d",
			s.ID, rep.Total, s.Hi-s.Lo), http.StatusBadRequest)
		return
	}
	if c.journal != nil {
		if err := c.journal.append(s.ID, req.Report); err != nil {
			// Journal loss is a coordinator-side failure; the worker's
			// result is fine, so fail the campaign rather than the request.
			c.failLocked(fmt.Errorf("dist: journal append: %w", err))
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	now := time.Now()
	ws := c.touchWorkerLocked(req.Worker, now)
	ws.shardsDone++
	// Credit the completing worker with whatever the heartbeat deltas
	// hadn't already reported (the tail of the shard, or all of it when
	// the shard outran its first heartbeat).
	if rep.Metrics != nil {
		ws.injections += sub64(rep.Metrics.Injections, s.liveInj)
	} else {
		ws.injections += sub64(uint64(rep.Total), s.liveInj)
	}
	var latency time.Duration
	if s.status == shardLeased && s.owner == req.Worker && !s.leasedAt.IsZero() {
		latency = now.Sub(s.leasedAt)
		c.completionMs.Observe(uint64(latency.Milliseconds()))
	}
	c.shardEvent(s, "completed", func(ev *obs.ShardEvent) {
		ev.Worker = req.Worker
		ev.LatencyMs = latency.Milliseconds()
	})
	c.log.Info("shard completed", "shard", s.ID, "worker", req.Worker,
		"injections", rep.Total, "latency", latency.Round(time.Millisecond),
		"done", c.done+1, "shards", len(c.shards))
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
	c.markDoneLocked(s, rep)
	w.WriteHeader(http.StatusOK)
}

// attachedTrace wraps one worker-attached injection trace line with its
// provenance for the coordinator's shard trace.
type attachedTrace struct {
	Shard     int             `json:"shard"`
	Worker    string          `json:"worker"`
	Injection json.RawMessage `json:"injection"`
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.overLocked() {
		w.WriteHeader(http.StatusGone)
		return
	}
	s := c.shardByID(req.Shard)
	if s == nil || s.status != shardLeased || s.owner != req.Worker {
		w.WriteHeader(http.StatusConflict)
		return
	}
	c.log.Warn("shard failed by worker", "shard", s.ID, "worker", req.Worker, "err", req.Error)
	c.shardEvent(s, "failed", func(ev *obs.ShardEvent) { ev.Detail = req.Error })
	ws := c.touchWorkerLocked(req.Worker, time.Now())
	ws.failures++
	c.requeueLocked(s, fmt.Sprintf("worker %q reported: %s", req.Worker, req.Error))
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) shardByID(id int) *shard {
	if id < 0 || id >= len(c.shards) {
		return nil
	}
	return c.shards[id]
}

func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
