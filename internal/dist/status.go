package dist

import (
	"context"
	"fmt"
	"io"
	"time"

	"sfi/internal/core"
	"sfi/internal/stats"
)

// Status is the coordinator's full fleet view, served as JSON at
// GET /v1/status: the per-shard state machine, per-worker activity, live
// injection totals (completed shards plus heartbeat-reported in-flight
// work), campaign rate and ETA.
type Status struct {
	Shards    int `json:"shards"`
	ShardSize int `json:"shard_size"`

	// States counts shards by state-machine state: "queued" (never
	// leased), "leased" (granted, no heartbeat yet), "heartbeating"
	// (granted and beating), "requeued" (pending again after a lost
	// lease), "completed".
	States map[string]int `json:"states"`

	Grants   int `json:"lease_grants"`
	Requeues int `json:"requeues"`

	// Injections counts classified injections fleet-wide: completed
	// shards exactly, in-flight shards as of their newest heartbeat.
	Injections uint64 `json:"injections"`
	Total      int    `json:"injections_total"`

	// Rate is fleet-wide *injections* per second since coordinator start
	// (up to the campaign's end once it is over, as every rate and elapsed
	// time in the status is, so a finished campaign's status holds still);
	// EtaMs extrapolates it over the remaining injections (0 when the
	// rate is still unknown). With a bit-parallel backend one model pass
	// retires many injections, so the injection rate and the pass rate
	// differ by the mean lane occupancy — BatchesPerSec reports the pass
	// rate explicitly (absent for scalar campaigns) so the two are never
	// conflated.
	Rate          float64 `json:"rate_per_sec"`
	BatchesPerSec float64 `json:"batches_per_sec,omitempty"`
	EtaMs         int64   `json:"eta_ms,omitempty"`

	// Utilization is the fleet-wide fraction of worker-model wall time
	// spent injecting, busy-nanoseconds over (model copies × elapsed): the
	// copies each worker's heartbeats and shard reports counted (what its
	// lease request claimed until one did), else the campaign's ShardWorkers.
	// It undercounts slightly between a shard's last heartbeat and its
	// completion.
	Utilization float64 `json:"utilization,omitempty"`

	// Outcomes is the live fleet-wide outcome mix (same basis as
	// Injections).
	Outcomes map[string]uint64 `json:"outcomes,omitempty"`

	Workers map[string]WorkerView `json:"workers,omitempty"`
	ShardsV []ShardView           `json:"shard_states,omitempty"`

	// Convergence is the stopping rule's evaluation the coordinator last
	// decided on (over completed shards: a uniform campaign's newest folded
	// shard prefix, a planned one's last epoch barrier with the sampling
	// strata), present when the campaign runs with a rule. StoppedEarly
	// reports that the rule stopped the campaign.
	Convergence  *stats.Convergence `json:"convergence,omitempty"`
	StoppedEarly bool               `json:"stopped_early,omitempty"`

	// Allocation reports a stratified campaign's budget state: the epochs
	// planned so far, the unallocated budget, and the per-stratum census
	// populations, planned draws and sealed injections. Absent for uniform
	// campaigns.
	Allocation *AllocationView `json:"allocation,omitempty"`

	ElapsedMs int64  `json:"elapsed_ms"`
	Failed    bool   `json:"failed"`
	Error     string `json:"error,omitempty"`
}

// AllocationView is the /v1/status allocation block of a stratified
// campaign.
type AllocationView struct {
	Mode       string `json:"mode"`
	Epochs     int    `json:"epochs_planned"`
	BudgetLeft int    `json:"budget_left"`
	// Strata lists per-stratum budgets in plan (registration) order.
	Strata []StratumBudgetView `json:"strata"`
}

// StratumBudgetView is one sampling stratum's budget row: its census
// population, the sequence prefix planned into shards so far, and the
// injections sealed by completed shards.
type StratumBudgetView struct {
	Stratum    string `json:"stratum"`
	Population int    `json:"population"`
	Planned    int    `json:"planned"`
	Sealed     int64  `json:"sealed"`
}

// ShardView is one shard's row in the status: its range, state, current
// or last owner, attempts, and live injection count this lease.
type ShardView struct {
	ID       int    `json:"id"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Stratum  string `json:"stratum,omitempty"`
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// LiveInjections is heartbeat-reported progress of the current lease
	// (0 for queued/completed shards — completed work is in the totals).
	LiveInjections uint64 `json:"live_injections,omitempty"`
}

// WorkerView is one worker's row in the status.
type WorkerView struct {
	// Injections credited to this worker (heartbeat-reported progress
	// plus completion top-ups).
	Injections uint64  `json:"injections"`
	Rate       float64 `json:"rate_per_sec"`
	ShardsDone int     `json:"shards_done"`
	Failures   int     `json:"failures,omitempty"`
	LastSeenMs int64   `json:"last_seen_ms"` // milliseconds from last contact to now, or to the campaign's end
}

// ShowProgress redraws the fleet progress line on w in place every period,
// until ctx ends or the campaign is over; a campaign that is over by then
// gets its final line drawn.
func (c *Coordinator) ShowProgress(ctx context.Context, w io.Writer, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
		case <-c.finished:
		case <-t.C:
			fmt.Fprintf(w, "\r%-100s", progressLine(c.Status()))
			continue
		}
		if c.overLocked() { // it reads only the finished channel
			fmt.Fprintf(w, "\r%-100s", progressLine(c.Status()))
		}
		return
	}
}

// progressLine renders a status as the local progress line followed by the
// shard ledger's counts.
func progressLine(st Status) string {
	p := core.Progress{Done: int(st.Injections), Total: st.Total, Rate: st.Rate,
		ETA: time.Duration(st.EtaMs) * time.Millisecond, Utilization: st.Utilization,
		Outcomes: make(map[core.Outcome]uint64), Convergence: st.Convergence}
	for _, o := range core.Outcomes {
		p.Outcomes[o] = st.Outcomes[o.String()]
	}
	return fmt.Sprintf("%s — shards %d/%d done, %d leased, %d requeued", p.Line(),
		st.States["completed"], st.Shards, st.States["leased"]+st.States["heartbeating"], st.Requeues)
}

// Status assembles the fleet status from one read of the shard ledger.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.sweepLocked(now)
	snap := c.fleetSnapshotLocked()
	// A finished campaign's view is measured up to its end, so it holds still.
	if !c.ended.IsZero() {
		now = c.ended
	}
	p := core.ProgressFrom(snap, c.cfg.Campaign.Flips, c.copiesLocked(), now.Sub(c.started))
	st := Status{
		Shards:       len(c.shards),
		ShardSize:    c.cfg.ShardSize,
		States:       make(map[string]int),
		Grants:       c.grants,
		Requeues:     c.requeues,
		Injections:   snap.Injections,
		Outcomes:     snap.Outcomes,
		Total:        p.Total,
		Rate:         p.Rate,
		EtaMs:        p.ETA.Milliseconds(),
		Utilization:  p.Utilization,
		Convergence:  c.eval,
		StoppedEarly: c.stopEval != nil,
		ElapsedMs:    p.Elapsed.Milliseconds(),
		Failed:       c.err != nil,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	if sec := p.Elapsed.Seconds(); sec > 0 && snap.Batches > 0 {
		st.BatchesPerSec = float64(snap.Batches) / sec
	}
	if e := c.epochs; e != nil {
		av := &AllocationView{
			Mode:       c.cfg.Campaign.Alloc.Mode,
			Epochs:     e.N,
			BudgetLeft: e.Left,
		}
		for _, key := range e.Plan.Keys() {
			row := StratumBudgetView{
				Stratum:    key,
				Population: c.sealed.Census[key],
				Planned:    e.Drawn[key],
			}
			for _, n := range c.sealed.ByStratum[key] {
				row.Sealed += int64(n)
			}
			av.Strata = append(av.Strata, row)
		}
		st.Allocation = av
	}

	st.ShardsV = make([]ShardView, 0, len(c.shards))
	for _, s := range c.shards {
		v := ShardView{ID: s.ID, Lo: s.Lo, Hi: s.Hi, Stratum: s.Stratum, Attempts: s.attempts}
		switch s.status {
		case shardDone:
			v.State = "completed"
		case shardLeased:
			v.Worker = s.owner
			v.LiveInjections = s.liveInjections()
			if s.lastBeat.IsZero() {
				v.State = "leased"
			} else {
				v.State = "heartbeating"
			}
		case shardPending:
			if s.attempts > 0 {
				v.State = "requeued"
			} else {
				v.State = "queued"
			}
		}
		st.States[v.State]++
		st.ShardsV = append(st.ShardsV, v)
	}

	if len(c.workers) > 0 {
		st.Workers = make(map[string]WorkerView, len(c.workers))
		for id, ws := range c.workers {
			v := WorkerView{
				Injections: ws.injections,
				ShardsDone: ws.shardsDone,
				Failures:   ws.failures,
				LastSeenMs: now.Sub(ws.lastSeen).Milliseconds(),
			}
			if sec := now.Sub(ws.firstSeen).Seconds(); sec > 0 {
				v.Rate = float64(ws.injections) / sec
			}
			st.Workers[id] = v
		}
	}
	return st
}
