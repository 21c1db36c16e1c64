package dist

import (
	"errors"
	"flag"
	"fmt"
	"slices"

	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/store"
)

// CampaignSpec is the one serializable description of a campaign. The
// commands' flags spell it (CampaignFlags), every way in checks it with
// Validate, a lease carries it to the workers, and the runnable
// configuration (CampaignConfig), the journal's binding (journalHeader) and
// the report's content address (Digest) are all derived from it. It is the
// wire twin of core.CampaignConfig minus the process-local parts (filter
// closure, observability callbacks, shard range).
type CampaignSpec struct {
	Runner      core.RunnerConfig `json:"runner"`
	Seed        uint64            `json:"seed"`
	Flips       int               `json:"flips"`
	Filter      FilterSpec        `json:"filter"`
	KeepResults bool              `json:"keep_results,omitempty"`

	// ShardWorkers is the number of concurrent model copies a worker
	// process fans each shard out over (0 = GOMAXPROCS). A worker's own
	// configuration may override it.
	ShardWorkers int `json:"shard_workers,omitempty"`

	// Stop is the campaign's adaptive stopping rule. Workers always run
	// their shards to the end of the leased range — only the coordinator
	// evaluates convergence, over sealed completed-shard counts, and it
	// cancels outstanding leases by answering heartbeats with 410 once the
	// rule fires. Keeping the decision off the workers makes it a pure
	// function of the completed shards (a uniform campaign's shard prefix),
	// so a journal replay reaches the same verdict.
	Stop core.StopConfig `json:"stop,omitempty"`

	// Alloc selects the campaign's budget allocation across sampling
	// strata. Under AllocNeyman the coordinator plans shards per
	// allocation epoch — each shard a slice of one stratum's sequence,
	// carried on the lease — and re-allocates at epoch boundaries over
	// sealed counts. Workers stay allocation-agnostic: a stratum shard is
	// an ordinary campaign over a different deterministic bit slice. The
	// zero value (uniform) keeps the wire format byte-identical.
	Alloc core.AllocConfig `json:"alloc,omitzero"`
}

// CampaignFlags registers the flags that describe a campaign on fs — one
// set of names, defaults and help for every command that takes a campaign
// (sfi, sfi-coord, sfi submit), only the -flips default being the command's
// own — and returns the function that, once fs is parsed, builds the spec
// they spell. A spec it returns without error has passed Validate.
func CampaignFlags(fs *flag.FlagSet, defaultFlips int) func() (CampaignSpec, error) {
	var (
		flips    = fs.Int("flips", defaultFlips, "number of latch bits to inject")
		seed     = fs.Uint64("seed", 1, "sampling seed")
		backend  = fs.String("backend", "", "engine backend to inject into (p6lite, awan; empty = p6lite)")
		lanes    = fs.Int("lanes", 0, "simulation-lane word width for batch-capable backends (awan): 64 packs 63 faults per model pass, 1 forces the scalar path, 0 = backend maximum")
		unit     = fs.String("unit", "", "target one unit (IFU, IDU, FXU, FPU, LSU, RUT, Core)")
		typ      = fs.String("type", "", "target one latch type (FUNC, REGFILE, GPTR, MODE)")
		macro    = fs.String("macro", "", "target latch groups by name prefix")
		sticky   = fs.Bool("sticky", false, "sticky (stuck-at) injection instead of toggle")
		duration = fs.Int("duration", 0, "sticky fault duration in cycles (0 = permanent)")
		span     = fs.Int("span", 1, "adjacent bits per injection (multi-bit upsets)")
		raw      = fs.Bool("raw", false, "mask every hardware checker (Table 3 Raw mode)")
		noRec    = fs.Bool("no-recovery", false, "disable the recovery unit")
		window   = fs.Int("window", 0, "observation window in cycles (0 = default)")
		fixed    = fs.Bool("fixed-window", false, "disable quiesce early exit (paper's fixed 500k-cycle style)")
		nest     = fs.Bool("nest", false, "enable the core periphery (L2 + memory controller)")

		margin     = fs.Float64("margin", 0, "evaluate per-class confidence intervals and report convergence once every outcome class's interval is at most this many percentage points wide (0 = off)")
		confidence = fs.Float64("confidence", 0.95, "confidence level for the -margin intervals")
		stopConv   = fs.Bool("stop-on-converge", false, "stop the campaign as soon as the -margin rule converges instead of running the whole -flips budget")
		allocate   = fs.String("allocate", core.AllocUniform, "budget allocation across unit×latch-type sampling strata: uniform (pooled sample) or neyman (per-epoch Neyman re-allocation; with -margin, every stratum must converge)")
		epochs     = fs.Int("alloc-epochs", 0, "allocation epochs a -allocate neyman campaign re-plans at (0 = default)")
	)
	return func() (CampaignSpec, error) {
		spec := CampaignSpec{Runner: core.DefaultRunnerConfig(), Seed: *seed, Flips: *flips}
		r := &spec.Runner
		r.Backend = *backend
		r.CheckersOn, r.RecoveryOn = !*raw, !*noRec
		r.Proc.EnableNest = *nest
		if *sticky {
			r.Mode, r.StickyCycles = engine.Sticky, *duration
		}
		if *span > 1 {
			r.SpanBits = *span
		}
		if *window > 0 {
			r.Window = *window
		}
		if *fixed {
			r.QuiesceExit = 0
		}
		if *lanes > 0 {
			r.BatchLanes = *lanes
		}
		set := 0
		for _, f := range []FilterSpec{{"unit", *unit}, {"type", *typ}, {"prefix", *macro}} {
			if f.Arg != "" {
				spec.Filter = f
				set++
			}
		}
		if set > 1 {
			return spec, errors.New("use at most one of -unit, -type, -macro")
		}
		// The flag speaks percentage points (matching every rendered
		// percentage); the rule works in fractions. With no margin only a
		// -stop-on-converge is carried over, for Validate to refuse.
		spec.Stop.StopOnConverge = *stopConv
		if *margin > 0 {
			spec.Stop.TargetMargin, spec.Stop.Confidence = *margin/100, *confidence
		}
		// "uniform" is the zero AllocConfig, so a uniform campaign's wire
		// spec, journal header and digest do not depend on how it was asked
		// for.
		if *allocate != "" && *allocate != core.AllocUniform {
			spec.Alloc = core.AllocConfig{Mode: *allocate, Epochs: *epochs}
		}
		if err := spec.Validate(); err != nil {
			return spec, err
		}
		if *unit != "" {
			// A mistyped unit would otherwise surface as an empty population
			// once a runner is built; the census knows the names without one.
			db, err := engine.Census(spec.Runner)
			if err != nil {
				return spec, err
			}
			if !slices.Contains(db.Units(), *unit) {
				return spec, fmt.Errorf("unknown unit %q (the %s backend has %v; p6lite's NEST needs -nest)",
					*unit, engine.Resolve(*backend), db.Units())
			}
		}
		return spec, nil
	}
}

// Validate rejects a campaign nothing can run, naming what is wrong with
// it. A spec arrives from flags, from a caller's literal or off the wire
// (POST /v1/campaigns), and the commands, NewCoordinator and the campaign
// server all refuse it here, before anything is built, queued or stored.
func (s CampaignSpec) Validate() error {
	if s.Flips < 1 {
		return errors.New("dist: campaign needs at least one flip")
	}
	if b := engine.Resolve(s.Runner.Backend); !slices.Contains(engine.Backends(), b) {
		return fmt.Errorf("dist: unknown backend %q (registered: %v)", b, engine.Backends())
	}
	if err := s.Runner.Validate(); err != nil {
		return fmt.Errorf("dist: campaign runner: %w", err)
	}
	if _, err := s.Filter.Filter(); err != nil {
		return err
	}
	if err := s.Alloc.Validate(); err != nil {
		return err
	}
	if s.Stop.StopOnConverge && !s.Stop.Enabled() {
		return errors.New("dist: stop-on-converge needs a margin")
	}
	return nil
}

// CampaignConfig materializes the spec into a runnable configuration: the
// whole campaign, stopping rule and allocation included, for a nil lease; one
// leased shard otherwise, run to the end of its range whatever the rule says
// (see Stop). A lease with a Stratum scopes the shard range to that stratum's
// deterministic sequence (stratified campaigns); otherwise the range indexes
// the pooled uniform sample as always.
func (s CampaignSpec) CampaignConfig(lease *ShardLease) (core.CampaignConfig, error) {
	f, err := s.Filter.Filter()
	if err != nil {
		return core.CampaignConfig{}, err
	}
	cfg := core.CampaignConfig{
		Runner:      s.Runner,
		Seed:        s.Seed,
		Flips:       s.Flips,
		Filter:      f,
		KeepResults: s.KeepResults,
		Workers:     s.ShardWorkers,
	}
	if lease == nil {
		cfg.Stop, cfg.Alloc = s.Stop, s.Alloc
		return cfg, nil
	}
	cfg.Shard = &core.ShardRange{Lo: lease.Lo, Hi: lease.Hi}
	cfg.Stratum = lease.Stratum
	return cfg, nil
}

// Digest is the content address of the campaign's reports: the spec cut
// into shardSize-injection shards, with the backend name resolved so that
// trivially equal submissions ("" and "p6lite") share one report.
func (s CampaignSpec) Digest(shardSize int) string {
	s.Runner.Backend = engine.Resolve(s.Runner.Backend)
	return store.Digest(struct {
		Campaign  CampaignSpec `json:"campaign"`
		ShardSize int          `json:"shard_size"`
	}{s, shardSize})
}

// journalHeader is the first line of the campaign's journal: what a
// coordinator restarted over the file must agree with before it may count
// the shards recorded there as its own.
func (s CampaignSpec) journalHeader(shardSize int) journalHeader {
	model := engine.ImageDigest(s.Runner)
	if s.KeepResults {
		model += "+results"
	}
	return journalHeader{
		V:         1,
		Seed:      s.Seed,
		Backend:   engine.Resolve(s.Runner.Backend),
		Flips:     s.Flips,
		ShardSize: shardSize,
		Filter:    s.Filter,
		Stop:      s.Stop,
		Alloc:     s.Alloc,
		Model:     model,
	}
}
