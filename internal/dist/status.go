package dist

import (
	"time"

	"sfi/internal/obs"
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

	// Rate is fleet-wide *injections* per second since coordinator start;
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
	// spent injecting, busy-nanoseconds over (workers × elapsed). It
	// undercounts slightly between a shard's last heartbeat and its
	// completion.
	Utilization float64 `json:"utilization,omitempty"`

	// Outcomes is the live fleet-wide outcome mix (same basis as
	// Injections).
	Outcomes map[string]uint64 `json:"outcomes,omitempty"`

	Workers map[string]WorkerView `json:"workers,omitempty"`
	ShardsV []ShardView           `json:"shard_states,omitempty"`

	// Convergence is the live fleet-wide confidence-interval evaluation
	// (same basis as Injections), present when the campaign runs with a
	// stopping rule. The stop decision itself is made over sealed
	// completed-shard counts only; StoppedEarly reports that it fired.
	Convergence  *stats.Convergence `json:"convergence,omitempty"`
	StoppedEarly bool               `json:"stopped_early,omitempty"`

	// Allocation reports a stratified campaign's budget state: the epochs
	// planned so far, the unallocated budget, and the per-stratum census
	// populations, planned draws and sealed injections. Absent for uniform
	// campaigns.
	Allocation *AllocationView `json:"allocation,omitempty"`

	// Latency is the campaign's critical-path latency attribution, derived
	// from the coordinator's span tree (present only when the coordinator
	// runs with a Tracer and spans have been recorded).
	Latency *obs.Attribution `json:"latency,omitempty"`

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
	LastSeenMs int64   `json:"last_seen_ms"` // milliseconds since last contact
}

// Status assembles the fleet status.
func (c *Coordinator) Status() Status {
	now := time.Now()
	snap := c.fleet.Snapshot()

	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := now.Sub(c.started)
	st := Status{
		Shards:    len(c.shards),
		ShardSize: c.cfg.ShardSize,
		States:    make(map[string]int),
		Grants:    c.grants,
		Requeues:  c.requeues,
		Total:     c.cfg.Campaign.Flips,
		ElapsedMs: elapsed.Milliseconds(),
		Failed:    c.err != nil,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	st.Injections = snap.Injections
	if len(snap.Outcomes) > 0 {
		st.Outcomes = snap.Outcomes
	}
	if stop := c.cfg.Campaign.Stop; stop.Enabled() {
		st.Convergence = snap.Convergence(outcomeClasses(), stop.Rule(), false)
	}
	st.StoppedEarly = c.stoppedEarly
	if c.plan != nil {
		av := &AllocationView{
			Mode:       c.cfg.Campaign.Alloc.Mode,
			Epochs:     c.epoch,
			BudgetLeft: c.budgetLeft,
		}
		for _, key := range c.plan.Keys() {
			row := StratumBudgetView{
				Stratum:    key,
				Population: c.strataPops[key],
				Planned:    c.drawn[key],
			}
			for _, n := range c.sealed.ByStratum[key] {
				row.Sealed += int64(n)
			}
			av.Strata = append(av.Strata, row)
		}
		st.Allocation = av
	}
	if sec := elapsed.Seconds(); sec > 0 {
		st.Rate = float64(snap.Injections) / sec
		if snap.Batches > 0 {
			st.BatchesPerSec = float64(snap.Batches) / sec
		}
		if st.Rate > 0 {
			remaining := float64(st.Total) - float64(snap.Injections)
			if remaining > 0 {
				st.EtaMs = int64(remaining / st.Rate * 1000)
			}
		}
	}
	if t := c.cfg.Tracer; t != nil && t.Total() > 0 {
		doc := t.Doc()
		st.Latency = &doc.Attribution
	}

	st.ShardsV = make([]ShardView, 0, len(c.shards))
	for _, s := range c.shards {
		v := ShardView{ID: s.ID, Lo: s.Lo, Hi: s.Hi, Stratum: s.Stratum, Attempts: s.attempts}
		switch s.status {
		case shardDone:
			v.State = "completed"
		case shardLeased:
			v.Worker = s.owner
			v.LiveInjections = s.liveInj
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
		if denom := float64(len(c.workers)) * float64(elapsed.Nanoseconds()); denom > 0 {
			st.Utilization = float64(snap.BusyNs) / denom
		}
	}
	return st
}
