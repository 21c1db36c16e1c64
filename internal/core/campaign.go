package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"time"

	"sfi/internal/engine"
	"sfi/internal/latch"
	"sfi/internal/obs"
	"sfi/internal/stats"
)

// CampaignConfig describes a statistical fault-injection campaign.
type CampaignConfig struct {
	Runner RunnerConfig

	// Seed drives latch sampling (and nothing else; the model and AVP are
	// deterministic given their own configs).
	Seed uint64

	// Flips is the number of latch bits to inject, sampled without
	// replacement from the filtered population.
	Flips int

	// Filter restricts the sampled population (nil = the whole design) —
	// the paper's targeted injection into units, latch types or macros.
	Filter latch.Filter

	// Workers is the number of concurrent model copies ("multiple
	// concurrent copies of the simulation environment can be run"); 0
	// means GOMAXPROCS.
	Workers int

	// KeepResults retains every per-injection Result in the report (set
	// false for very large campaigns to save memory; aggregates are
	// always kept).
	KeepResults bool

	// Obs configures campaign observability (metrics, injection traces,
	// live progress). The zero value is fully off and costs ~nothing.
	Obs ObsConfig

	// Stop configures adaptive statistical early-stop: when enabled, the
	// campaign evaluates sequential confidence intervals over its settled
	// outcome counts and (with StopOnConverge) stops dispatching at the
	// first point every outcome class's interval is within the target
	// margin — the paper's "just enough samples" methodology made
	// operational. The zero value keeps the classic fixed-Flips behavior
	// bit for bit.
	Stop StopConfig

	// Shard, when non-nil, restricts execution to the half-open
	// injection-index range [Lo, Hi) of the campaign's deterministic
	// sample. The full Flips-bit sample is still drawn (it is a pure
	// function of Seed and Filter, see SampleCampaignBits), so disjoint
	// shards executed by different processes partition exactly the
	// injections a single whole-campaign run would perform, and merging
	// their Reports reproduces the whole-campaign Report.
	Shard *ShardRange

	// Alloc selects how the injection budget is allocated across sampling
	// strata. The zero value is the classic uniform sample, byte-identical
	// to builds without stratified allocation; AllocNeyman runs the
	// campaign as a stratified sample plan with Neyman re-allocation
	// epochs (see SamplePlan).
	Alloc AllocConfig

	// Stratum, when non-empty, scopes execution to one sampling stratum of
	// the campaign's SamplePlan: Shard then indexes the stratum's own
	// deterministic sequence instead of the pooled sample. This is how a
	// distributed worker executes a stratified shard with the ordinary
	// uniform machinery — a stratum shard is just a campaign over a
	// different deterministic bit slice.
	Stratum string
}

// Allocation modes for AllocConfig.Mode.
const (
	// AllocUniform is the classic flat sample (the default; "" means the
	// same).
	AllocUniform = "uniform"
	// AllocNeyman runs stratified sampling with Neyman allocation: the
	// budget is split into epochs, and at every epoch boundary each
	// unconverged stratum draws budget proportional to its population
	// times its widest estimated class standard deviation.
	AllocNeyman = "neyman"
)

// DefaultAllocEpochs is the allocation-epoch count used when AllocConfig
// leaves Epochs unset.
const DefaultAllocEpochs = 4

// AllocConfig selects a campaign's budget-allocation strategy across
// sampling strata. The zero value is uniform sampling.
type AllocConfig struct {
	// Mode is "" or AllocUniform for the flat sample, AllocNeyman for
	// stratified Neyman allocation.
	Mode string `json:"mode,omitempty"`

	// Epochs is how many allocation epochs a stratified campaign splits
	// its budget into (default DefaultAllocEpochs). Re-allocation — and
	// the stop decision — happen only at epoch boundaries, over fully
	// settled counts, which is what keeps stratified campaigns
	// deterministic across worker counts.
	Epochs int `json:"epochs,omitempty"`
}

// Stratified reports whether the config selects stratified allocation.
func (a AllocConfig) Stratified() bool { return a.Mode == AllocNeyman }

// Validate rejects unknown allocation modes.
func (a AllocConfig) Validate() error {
	switch a.Mode {
	case "", AllocUniform, AllocNeyman:
		return nil
	}
	return fmt.Errorf("core: unknown allocation mode %q (want %s or %s)", a.Mode, AllocUniform, AllocNeyman)
}

// StopConfig configures adaptive statistical early-stop for a campaign.
// The zero value is fully disabled: the campaign runs exactly Flips
// injections and produces byte-identical reports to builds without the
// feature. Flips remains the hard sample budget — an adaptive campaign
// never runs more than Flips injections, it just may answer sooner.
type StopConfig struct {
	// TargetMargin is the maximum acceptable confidence-interval width
	// (hi-lo) per outcome class, as a fraction (0.02 = ±1 percentage
	// point). <= 0 disables adaptive evaluation entirely.
	TargetMargin float64 `json:"target_margin,omitempty"`

	// Confidence is the two-sided confidence level the margin must hold
	// at (default stats.DefaultConfidence). Intervals are sequential
	// (stats.SequentialZ), but the level is proven only over the looks at
	// n = 2^k, not over every look an early-stopping monitor makes
	// (ROADMAP 14(b) replaces the bound).
	Confidence float64 `json:"confidence,omitempty"`

	// MinPerClass is the minimum sample count before convergence may be
	// declared (default stats.DefaultMinPerClass) — the floor that keeps
	// rare classes (SDC, checkstop) from being declared converged at n≈0.
	MinPerClass int `json:"min_per_class,omitempty"`

	// StopOnConverge actually stops the dispatch once every class is
	// within the margin. When false (observe-only), the campaign runs all
	// Flips injections but still tracks and reports convergence — useful
	// for calibrating a margin before trusting it to cut campaigns short.
	StopOnConverge bool `json:"stop_on_converge,omitempty"`

	// Strata additionally gates convergence on the sampling strata: the
	// campaign has converged only once every stratum of its sample plan is
	// itself within the margin or exhausted. Armed automatically by
	// stratified allocation; zero for uniform campaigns, keeping their
	// wire formats unchanged.
	Strata bool `json:"strata,omitempty"`
}

// Enabled reports whether convergence tracking is active.
func (s StopConfig) Enabled() bool { return s.TargetMargin > 0 }

// Rule returns the stats stopping rule the config describes.
func (s StopConfig) Rule() stats.StopRule {
	return stats.StopRule{
		TargetMargin: s.TargetMargin,
		Confidence:   s.Confidence,
		MinPerClass:  s.MinPerClass,
		Strata:       s.Strata,
	}
}

// ShardRange is a half-open range [Lo, Hi) of injection indices into a
// campaign's deterministic sample.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Size returns the number of injections in the shard.
func (s ShardRange) Size() int { return s.Hi - s.Lo }

// PlanShards splits a flips-injection campaign into contiguous shards of at
// most shardSize injections (the last shard may be short). shardSize <= 0
// yields a single whole-campaign shard. The returned shards partition
// [0, flips) in order, so executing each with CampaignConfig.Shard and
// merging the Reports in plan order reproduces the single-process Report
// exactly, kept Results included.
func PlanShards(flips, shardSize int) []ShardRange {
	if flips <= 0 {
		return nil
	}
	if shardSize <= 0 || shardSize > flips {
		shardSize = flips
	}
	out := make([]ShardRange, 0, (flips+shardSize-1)/shardSize)
	for lo := 0; lo < flips; lo += shardSize {
		hi := lo + shardSize
		if hi > flips {
			hi = flips
		}
		out = append(out, ShardRange{Lo: lo, Hi: hi})
	}
	return out
}

// ObsConfig selects which observability features a campaign runs with. The
// zero value disables everything.
type ObsConfig struct {
	// Metrics collects per-worker metrics (outcome counters, latency and
	// cycle histograms) and attaches the merged snapshot to the Report.
	Metrics bool

	// Trace, when non-nil, receives one structured lifecycle event per
	// injection (subject to the sink's own sampling/bounding).
	Trace *obs.TraceSink

	// Tracer, when non-nil, records causal campaign spans — sampling and
	// batch planning, per-batch engine passes, report merge, and the
	// enclosing campaign.run span — parented under Parent. This is the
	// local half of end-to-end campaign tracing: a distributed worker
	// passes the shard span's context here so the core spans chain back to
	// the server's root span across processes.
	Tracer *obs.Tracer

	// Parent is the span context campaign spans parent under (the zero
	// value makes campaign.run a root span, the standalone-`sfi` case).
	Parent obs.SpanContext

	// Live, when non-nil, is the handle the campaign's progress is read
	// through, while it runs and after. It implies metrics collection.
	Live *Live
}

// Progress is a point-in-time view of a running campaign.
type Progress struct {
	Done    int           // injections classified so far
	Total   int           // campaign size
	Workers int           // concurrent model copies
	Elapsed time.Duration // since sampling finished and workers started
	Rate    float64       // injections/second so far
	ETA     time.Duration // naive remaining-work estimate at the current rate
	// Outcomes is the running outcome mix.
	Outcomes map[Outcome]uint64
	// Utilization is the fraction of worker wall-time spent inside
	// injections (1.0 = all workers busy the whole time).
	Utilization float64
	// Metrics is the merged cross-worker snapshot this view was derived
	// from — live campaign state for debug endpoints (expvar, /metrics).
	Metrics *obs.Snapshot
	// Convergence is the live per-class confidence-interval evaluation,
	// present only when the campaign runs with a StopConfig (nil
	// otherwise). Its widest outstanding margin is what Line renders.
	Convergence *stats.Convergence
}

// Live is a read handle on a campaign (ObsConfig.Live): call Progress from
// any goroutine, while the campaign runs or after it returns. A handle
// follows one campaign at a time.
type Live struct {
	mu  sync.Mutex
	run liveRun
}

type liveRun struct {
	metrics        []*obs.Metrics // the per-worker collectors
	total, workers int
	start, end     time.Time // end is zero while the campaign runs
	conv           *stats.Convergence
}

// Progress merges the per-worker collectors into a view of the campaign
// now. Before the run starts it is empty, with a non-nil Metrics; after the
// run returns it is the final view, its elapsed time frozen. Convergence is
// the newest evaluation made over settled counts.
func (l *Live) Progress() Progress {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, s := l.run, obs.NewSnapshot()
	for _, m := range r.metrics {
		s.Merge(m.Snapshot())
	}
	if r.start.IsZero() {
		return Progress{Metrics: s}
	}
	if r.end.IsZero() {
		r.end = time.Now()
	}
	p := progressOver(s, r.total, r.workers, r.end.Sub(r.start))
	p.Convergence = r.conv
	return p
}

func (l *Live) set(f func(*liveRun)) {
	l.mu.Lock()
	f(&l.run)
	l.mu.Unlock()
}

// DefaultCampaignConfig returns a whole-core random campaign configuration.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Runner:      DefaultRunnerConfig(),
		Seed:        1,
		Flips:       1000,
		KeepResults: true,
	}
}

// ByGroupPrefix selects latch groups whose name starts with prefix — the
// paper's macro-targeted injection.
func ByGroupPrefix(prefix string) latch.Filter {
	return func(g *latch.Group) bool { return strings.HasPrefix(g.Name, prefix) }
}

// Report aggregates a campaign's outcomes.
type Report struct {
	Total   int
	Counts  map[Outcome]int
	Results []Result // per-injection detail when KeepResults

	// ByStratum is the report's one outcome breakdown: the unit × latch-type
	// cross, keyed StratumKey(unit, type). Per unit and per latch type are
	// its Marginals.
	ByStratum map[string]map[Outcome]int

	// Census is the sampling design: the per-stratum population of a
	// stratified draw (a Neyman plan's strata, a stratum shard's one), nil
	// for a uniform draw. ComputeConvergence evaluates the strata it names,
	// and it puts by_stratum in the JSON export.
	Census map[string]int

	// Workers is the number of concurrent model copies the campaign ran.
	Workers int
	// Metrics is the merged cross-worker metrics snapshot, present when
	// ObsConfig enabled metrics collection (nil otherwise).
	Metrics *obs.Snapshot
	// Convergence is the final per-class confidence-interval evaluation,
	// present only for campaigns run with a StopConfig (nil otherwise, so
	// fixed-N report serializations are unchanged).
	Convergence *stats.Convergence
}

// Marginals sums the cross over latch types and over units: the per-unit
// and per-latch-type outcome breakdowns (the paper's Figs. 3-5 and
// Table 3), as fresh maps.
func (r *Report) Marginals() (byUnit map[string]map[Outcome]int, byType map[latch.Type]map[Outcome]int) {
	byUnit, byType = make(map[string]map[Outcome]int), make(map[latch.Type]map[Outcome]int)
	for key, row := range r.ByStratum {
		unit, t := splitStratumKey(key)
		addRow(byUnit, unit, row)
		addRow(byType, t, row)
	}
	return byUnit, byType
}

// addRow adds an outcome row into rows[k], creating it if needed.
func addRow[K comparable](rows map[K]map[Outcome]int, k K, row map[Outcome]int) {
	d := rows[k]
	if d == nil {
		d = make(map[Outcome]int, len(row))
		rows[k] = d
	}
	for o, n := range row {
		d[o] += n
	}
}

func newReport() *Report {
	return &Report{
		Counts:    make(map[Outcome]int),
		ByStratum: make(map[string]map[Outcome]int),
	}
}

func (r *Report) add(res Result, keep bool) {
	r.Total++
	r.Counts[res.Outcome]++
	// The lookup's key does not escape, so it is built on the stack: only a
	// new cell allocates its key.
	row := r.ByStratum[StratumKey(res.Unit, res.LatchType)]
	if row == nil {
		row = make(map[Outcome]int)
		r.ByStratum[StratumKey(res.Unit, res.LatchType)] = row
	}
	row[res.Outcome]++
	if keep {
		r.Results = append(r.Results, res)
	}
}

// outcomeNames maps Outcome codes to their reporting names, indexed by the
// integer code, for obs collectors.
func outcomeNames() []string {
	names := make([]string, len(Outcomes)+1)
	for _, o := range Outcomes {
		names[int(o)] = o.String()
	}
	return names
}

// ProgressFrom derives a Progress view from a merged metrics snapshot —
// rate, ETA and outcome mix over whatever the snapshot covers. It is the
// shared derivation for local campaigns (per-worker collectors merged) and
// fleet views (a distributed coordinator's aggregated worker snapshots);
// workers is the concurrent-model-copy count for the utilization estimate
// (pass 0 when unknown — utilization is then reported as 0).
func ProgressFrom(s *obs.Snapshot, total, workers int, start time.Time) Progress {
	return progressOver(s, total, workers, time.Since(start))
}

// progressOver is ProgressFrom over a given elapsed time.
func progressOver(s *obs.Snapshot, total, workers int, elapsed time.Duration) Progress {
	p := Progress{
		Done:     int(s.Injections),
		Total:    total,
		Workers:  workers,
		Elapsed:  elapsed,
		Outcomes: make(map[Outcome]uint64, len(Outcomes)),
		Metrics:  s,
	}
	for _, o := range Outcomes {
		if n := s.Outcomes[o.String()]; n > 0 {
			p.Outcomes[o] = n
		}
	}
	if sec := elapsed.Seconds(); sec > 0 {
		p.Rate = float64(p.Done) / sec
		if workers > 0 {
			p.Utilization = float64(s.BusyNs) / (float64(workers) * float64(elapsed.Nanoseconds()))
		}
	}
	if p.Rate > 0 && p.Done < p.Total {
		p.ETA = time.Duration(float64(p.Total-p.Done) / p.Rate * float64(time.Second))
	}
	return p
}

// progressTags are the single-letter outcome tags of the live progress
// line (checkstop is "k": "c" is taken by corrected).
var progressTags = map[Outcome]string{
	Vanished: "v", Corrected: "c", Hang: "h", Checkstop: "k", SDC: "s",
}

// Line renders the progress view as one human-readable status line —
// `done/total (pct)  rate  eta  busy  [outcome mix]` — shared by cmd/sfi's
// local progress renderer and the distributed coordinator's fleet
// progress line.
func (p Progress) Line() string {
	var mix strings.Builder
	for _, o := range Outcomes {
		if n := p.Outcomes[o]; n > 0 {
			fmt.Fprintf(&mix, " %s:%d", progressTags[o], n)
		}
	}
	eta := "-"
	if p.ETA > 0 {
		eta = p.ETA.Round(time.Second).String()
	}
	pct := 0.0
	if p.Total > 0 {
		pct = 100 * float64(p.Done) / float64(p.Total)
	}
	line := fmt.Sprintf("%d/%d (%.1f%%)  %.0f inj/s  eta %s", p.Done, p.Total, pct, p.Rate, eta)
	if p.Utilization > 0 {
		line += fmt.Sprintf("  busy %.0f%%", 100*p.Utilization)
	}
	if mix.Len() > 0 {
		line += fmt.Sprintf(" [%s]", strings.TrimSpace(mix.String()))
	}
	// Widest outstanding margin: which class still holds the campaign open,
	// and how far its interval width is from the target. Stratified
	// campaigns additionally show the widest unconverged sampling stratum —
	// the one the allocator is steering budget toward.
	if c := p.Convergence; c != nil {
		if c.Converged {
			line += fmt.Sprintf("  ci ok<=%.2f%%", 100*c.TargetMargin)
		} else {
			line += fmt.Sprintf("  ci %s %.2f%%>%.2f%%",
				c.WidestClass, 100*c.WidestWidth, 100*c.TargetMargin)
		}
		if c.WidestStratum != "" {
			line += fmt.Sprintf("  st %s %.2f%%", c.WidestStratum, 100*c.WidestStratumWidth)
		}
	}
	return line
}

// planBatches groups the sample positions (indices into bits) into the
// campaign's dispatch units: positions sharing a deterministic checkpoint
// phase are chunked, in sample order, into batches of at most size. The
// plan involves no scheduling or process-local state — it is a pure
// function of (bits, phases, size) — so disjoint shards of one campaign
// plan exactly the batches a whole-campaign run would, and a short final
// batch per phase group simply leaves the backend's extra lanes masked
// off. size <= 1 yields one-position batches (the scalar dispatch).
func planBatches(bits []int, phases, size int) [][]int {
	if size <= 1 {
		out := make([][]int, len(bits))
		for i := range bits {
			out[i] = []int{i}
		}
		return out
	}
	byPhase := make([][]int, phases)
	for i, bit := range bits {
		ck, _ := injectionSchedule(bit, phases)
		byPhase[ck] = append(byPhase[ck], i)
	}
	var out [][]int
	for _, g := range byPhase {
		for len(g) > size {
			out = append(out, g[:size:size])
			g = g[size:]
		}
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// SampleCampaignBits draws the campaign's full deterministic injection
// sample from db: the Flips logical latch-bit indices, in dispatch order.
// The sample is a pure function of (seed, flips, filter) and the latch
// database layout — it involves no map iteration, scheduling or other
// process-local state — so independent processes that build the same model
// derive bit-for-bit identical samples. That purity is what makes shard
// partitioning reproducible: shard [Lo, Hi) means injections Lo..Hi-1 of
// exactly this slice, wherever it executes.
func SampleCampaignBits(db *latch.DB, seed uint64, flips int, f latch.Filter) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5f1))
	return db.SampleBits(rng, flips, f)
}

// RunCampaign executes a campaign: it samples Flips latch bits from the
// filtered population and classifies every injection, fanning the work out
// over concurrent model copies. The AVP is generated and warmed once per
// process and config, in the cached prototype (WarmRunner); every worker is
// a warm clone of it. A batch that fails (a panic below the model) aborts
// the campaign: the dispatcher stops handing out injections as soon as the
// first failure is reported, and every failed batch's error is in the
// returned (joined) error, so one failure does not mask another.
func RunCampaign(cfg CampaignConfig) (*Report, error) {
	return RunCampaignContext(context.Background(), cfg)
}

// RunCampaignContext is RunCampaign with cancellation: when ctx is
// cancelled the dispatcher stops handing out injections, in-flight
// injections run to completion (each is sub-millisecond to
// low-millisecond), and the campaign returns ctx's error. A distributed
// coordinator shutting down or a worker losing its shard lease uses this
// to abandon a shard promptly instead of draining it.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*Report, error) {
	// The prototype runner: it provides the latch database for sampling,
	// the warmed checkpoints the clones adopt, and worker 0's model.
	first, err := WarmRunner(cfg.Runner)
	if err != nil {
		return nil, err
	}
	return RunCampaignWith(ctx, first, cfg)
}

// draw is one source's slice of an epoch: bits of one deterministic sequence
// in sequence order. key names the sampling stratum the bits were drawn
// from; "" is the pooled uniform sample. res holds the results in sequence
// order — batches own disjoint positions, so workers fill it without
// synchronization.
//
// batches is the draw's dispatch plan. A bit-parallel backend
// (engine.BatchBackend) classifies up to BatchSize injections per model
// pass, so the unit of dispatch is a batch of sequence positions rather than
// one position. The plan is a pure function of the bits (planBatches groups
// them by each bit's deterministic checkpoint phase), so Reports stay
// identical across worker counts — and, by the scalar-equivalence guarantee,
// identical to the scalar path bit for bit. Scalar backends get one-position
// batches and per-injection dispatch.
type draw struct {
	key     string
	bits    []int
	batches [][]int
	res     []Result
}

// job is the dispatch unit: one batch (positions into d.bits) of one draw.
// n is its index in the epoch's dispatch order.
type job struct {
	d   *draw
	pos []int
	n   int
}

// settledJob reports job n of the epoch settled, with the error that failed
// it.
type settledJob struct {
	n   int
	err error
}

// bits returns the latch bits the job injects, in lane order.
func (j job) bits() []int {
	out := make([]int, len(j.pos))
	for i, pos := range j.pos {
		out[i] = j.d.bits[pos]
	}
	return out
}

// source is where a campaign's draws come from. Every campaign is a
// sequence of epochs and every epoch an ordered list of draws; the three
// campaign shapes differ only here:
//
//   - a uniform campaign or pooled shard is one epoch with one keyless draw;
//   - a stratum shard is one epoch with one keyed draw;
//   - a Neyman campaign asks its epoch ledger (Epochs) for the next epoch's
//     draws at every barrier, over the settled report.
type source struct {
	total int                           // injections the campaign can run (Progress.Total)
	next  func(settled *Report) []*draw // the next epoch; returns nil once the campaign is over
}

// newSource validates cfg's sampling fields and builds the campaign's draw
// source. The sample's census goes on rep, the report its draws fold into;
// attrs describing the sample go on sp.
func newSource(first *Runner, cfg CampaignConfig, rep *Report, runSp, sp *obs.Span) (*source, error) {
	phases, batchSize := first.Backend().Phases(), first.BatchSize()
	newDraw := func(key string, bits []int) *draw {
		return &draw{key: key, bits: bits, batches: planBatches(bits, phases, batchSize), res: make([]Result, len(bits))}
	}
	if cfg.Alloc.Stratified() && cfg.Stratum == "" {
		if cfg.Shard != nil {
			return nil, fmt.Errorf("core: a stratified campaign cannot take a pooled shard range (shards of stratified campaigns carry a stratum)")
		}
		// Each epoch extends every allocated stratum's prefix of its own
		// deterministic sequence.
		epochs, err := NewEpochs(first.DB(), cfg)
		if err != nil {
			return nil, err
		}
		plan := epochs.Plan
		sp.AttrInt("flips", int64(cfg.Flips)).
			AttrInt("strata", int64(len(plan.Strata))).
			AttrInt("population", int64(plan.TotalBits()))
		next := func(settled *Report) []*draw {
			ep := epochs.Next(settled)
			if ep == nil {
				return nil
			}
			cfg.Obs.Trace.RecordJSON(obs.AllocationEvent{Kind: "allocate", Epoch: ep.N, Budget: ep.Budget, Shares: ep.Shares})
			cfg.Obs.Tracer.StartSpan("allocate", "core", runSp.Context()).
				AttrInt("epoch", int64(ep.N)).AttrInt("budget", int64(ep.Budget)).End()
			var draws []*draw
			for _, sh := range ep.Shares {
				if sh.Next > 0 {
					lo := epochs.Drawn[sh.Stratum]
					draws = append(draws, newDraw(sh.Stratum, plan.Stratum(sh.Stratum).Bits[lo:lo+sh.Next]))
				}
			}
			epochs.Apply(*ep)
			return draws
		}
		rep.Census = plan.Populations()
		return &source{total: cfg.Flips, next: next}, nil
	}

	// One epoch over one deterministic sequence — the pooled sample, or one
	// stratum's own sequence (so any [Lo, Hi) of any stratum is reproducible
	// independently of every other stratum: the plan's prefix-stability
	// contract) — narrowed to the shard range when there is one.
	var bits []int
	what := "flips"
	if cfg.Stratum != "" {
		stratum := BuildSamplePlan(first.DB(), cfg.Seed, cfg.Filter).Stratum(cfg.Stratum)
		if stratum == nil {
			return nil, fmt.Errorf("core: unknown sampling stratum %q", cfg.Stratum)
		}
		bits, what = stratum.Bits, "bits of stratum "+cfg.Stratum
		rep.Census = map[string]int{cfg.Stratum: stratum.Population()}
	} else {
		bits = SampleCampaignBits(first.DB(), cfg.Seed, cfg.Flips, cfg.Filter)
	}
	if s := cfg.Shard; s != nil {
		if s.Lo < 0 || s.Hi > len(bits) || s.Lo >= s.Hi {
			return nil, fmt.Errorf("core: shard [%d,%d) out of range for %d %s", s.Lo, s.Hi, len(bits), what)
		}
		bits = bits[s.Lo:s.Hi]
	}
	only := []*draw{newDraw(cfg.Stratum, bits)}
	sp.AttrInt("flips", int64(cfg.Flips)).
		AttrInt("injections", int64(len(bits))).
		AttrInt("batches", int64(len(only[0].batches)))
	next := func(*Report) []*draw {
		epoch := only
		only = nil
		return epoch
	}
	return &source{total: len(bits), next: next}, nil
}

// RunCampaignWith runs a campaign on an already-built prototype runner,
// which must have been constructed from cfg.Runner. It is the shard
// execution primitive for distributed workers: building and warming the
// prototype dominates shard start-up, so a worker process builds it once
// and runs every leased shard against it (clones are still created per
// campaign worker as usual). The prototype's observability attachments are
// reset to cfg.Obs on every call.
//
// This is the one campaign executor: every shape of campaign (see source)
// runs through the same worker pool, dispatch loop, error handling and
// report build. Each epoch is dispatched over the
// pool and fully drained — the epoch barrier — before its results are
// folded into the report and anything is evaluated or re-allocated, so stop
// decisions and allocations read settled counts only and the report is
// deterministic across worker counts. A keyless draw (a uniform campaign's
// single epoch, the whole budget) is decided job by job instead, by
// PrefixStop: a StopOnConverge campaign stops at the smallest prefix of
// dispatch order that converges, whatever the worker count.
func RunCampaignWith(ctx context.Context, first *Runner, cfg CampaignConfig) (*Report, error) {
	if cfg.Flips < 1 {
		return nil, fmt.Errorf("core: campaign needs at least one flip")
	}
	if err := cfg.Alloc.Validate(); err != nil {
		return nil, err
	}
	// Sampling is without replacement, so the filtered population bounds
	// the campaign size — easy to exceed on small gate-level designs.
	if total := first.DB().CountBits(cfg.Filter); cfg.Flips > total {
		return nil, fmt.Errorf("core: campaign of %d flips exceeds the filtered population of %d bits",
			cfg.Flips, total)
	}
	cfg.Stop = cfg.Alloc.ArmStop(cfg.Stop)
	// Campaign tracing: campaign.run encloses the whole local run; its
	// children are the sample/plan span, one allocate span per Neyman epoch,
	// one span per bit-parallel batch pass (recorded by the runners), and
	// the merge span. All tracer and span calls are nil-safe, so the
	// untraced path takes no branches beyond these calls themselves.
	runSp := cfg.Obs.Tracer.StartSpan("campaign.run", "core", cfg.Obs.Parent)
	sampleSp := cfg.Obs.Tracer.StartSpan("sample", "core", runSp.Context())
	rep := newReport()
	src, err := newSource(first, cfg, rep, runSp, sampleSp)
	if err != nil {
		return nil, err
	}
	sampleSp.End()
	batched := first.BatchSize() > 1
	epoch := src.next(rep)
	jobs := epochJobs(epoch)

	// The pool is sized to the first epoch; no later one draws more injections.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Observability: each worker records into its own collector (no shared
	// cache lines on the hot path); a Live handle's reader and the final
	// Report merge the per-worker snapshots. A Live handle implies metrics.
	collect := cfg.Obs.Metrics || cfg.Obs.Live != nil
	live := cfg.Obs.Live
	if live == nil {
		live = new(Live)
	}
	var metrics []*obs.Metrics
	if collect {
		names := outcomeNames()
		metrics = make([]*obs.Metrics, workers)
		for w := range metrics {
			metrics[w] = obs.New(names)
		}
	}
	workerObs := func(w int) *obs.Metrics {
		if metrics == nil {
			return nil
		}
		return metrics[w]
	}
	// Unconditional: also detaches any collector a previous campaign on a
	// reused prototype (RunCampaignWith) left behind.
	first.Observe(workerObs(0), cfg.Obs.Trace, cfg.Obs.Tracer, runSp.Context())

	// One reader of outcomes: workers hand each settled job back to the
	// dispatch loop, and every convergence evaluation is made there over
	// settled counts, the newest kept on the Live handle; seen dedups events.
	var wg sync.WaitGroup
	next := make(chan job)
	settled := make(chan settledJob, workers) // one per worker: a settle never waits
	seen := make(map[string]bool)
	evaluated := func(c *stats.Convergence) {
		live.set(func(r *liveRun) { r.conv = c })
		emitConvergenceEvents(cfg.Obs.Trace, c, seen)
	}

	// runJob classifies one batch. A panic below it (PRs 11 and 13 each
	// found a model indexing a table with injected state) becomes an error
	// naming what replays it.
	runJob := func(r *Runner, j job) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("core: injection into bit(s) %v panicked (seed %d, backend %s): %v",
					j.bits(), cfg.Seed, engine.Resolve(cfg.Runner.Backend), p)
			}
		}()
		d := j.d
		if !batched {
			d.res[j.pos[0]] = r.RunInjection(d.bits[j.pos[0]])
			return nil
		}
		for i, res := range r.RunInjectionBatch(j.bits()) {
			d.res[j.pos[i]] = res
		}
		return nil
	}
	// A failed job still settles, so no barrier waits on it; it ends its
	// worker (the model's state is unknown) and fails the campaign.
	worker := func(r *Runner) {
		defer wg.Done()
		for j := range next {
			err := runJob(r, j)
			settled <- settledJob{j.n, err}
			if err != nil {
				return
			}
		}
	}

	wg.Add(workers)
	live.set(func(r *liveRun) {
		*r = liveRun{metrics: metrics, total: src.total, workers: workers, start: time.Now()}
	})

	// Worker start order: Clone reads the prototype's live model state
	// (value planes, counters), so the prototype may not start injecting
	// until every extra worker has finished cloning from it. Clones are
	// still taken concurrently with each other — they only read the
	// prototype.
	var cloning sync.WaitGroup
	cloning.Add(workers - 1)
	go func() {
		cloning.Wait()
		worker(first)
	}()
	for w := 1; w < workers; w++ {
		go func() {
			r := first.Clone()
			cloning.Done()
			r.Observe(workerObs(w), cfg.Obs.Trace, cfg.Obs.Tracer, runSp.Context())
			worker(r)
		}()
	}

	// Fail-fast dispatch: stop handing out work the moment a worker
	// reports a failure or the context is cancelled; in-flight batches run
	// to completion either way. Convergence is the one *successful* early
	// exit.
	var errs []error
	rule := cfg.Stop.Rule()
	cancelled := ctx.Done()
	for len(jobs) > 0 {
		// A keyless draw, the whole budget, is decided job by job, over the
		// smallest converged prefix of dispatch order (PrefixStop). Dispatch
		// never waits for the prefix, so a stop drops whatever finished past
		// the cut meanwhile.
		keyless := cfg.Stop.Enabled() && epoch[0].key == ""
		prefix := NewPrefixStop(len(jobs), cfg.Stop, evaluated)
		sent, running, cut := 0, 0, len(jobs)
		for (sent < cut && len(errs) == 0) || running > 0 {
			var out chan<- job // nil, so never ready, once dispatch is over
			var j job
			if sent < cut && len(errs) == 0 {
				out, j = next, jobs[sent]
			}
			select {
			case out <- j:
				sent++
				running++
			case s := <-settled:
				running--
				if s.err != nil {
					errs = append(errs, s.err)
				} else if keyless {
					counts := make(map[Outcome]int)
					for _, pos := range jobs[s.n].pos {
						counts[jobs[s.n].d.res[pos].Outcome]++
					}
					cut = prefix.Settle(s.n, counts)
				}
			case <-cancelled:
				errs = append(errs, fmt.Errorf("core: campaign cancelled: %w", context.Cause(ctx)))
				cancelled = nil
			}
		}
		if len(errs) > 0 {
			break
		}
		// The epoch barrier: every dispatched batch has settled. Results past
		// the cut are cleared, so the report covers exactly the prefix the
		// stop was decided on.
		for _, j := range jobs[cut:sent] {
			for _, pos := range j.pos {
				j.d.res[pos] = Result{}
			}
		}
		for _, d := range epoch {
			rep.addDraw(d, cfg.KeepResults)
		}
		if cut < len(jobs) {
			break
		}
		// A planned epoch is decided at its barrier, over the folded report,
		// by the evaluation the report prints and a coordinator's epoch
		// boundary uses.
		if cfg.Stop.Enabled() && !keyless {
			c := rep.ComputeConvergence(rule)
			evaluated(c)
			if c.Converged && cfg.Stop.StopOnConverge {
				break
			}
		}
		epoch = src.next(rep)
		jobs = epochJobs(epoch)
	}
	close(next)
	wg.Wait()
	live.set(func(r *liveRun) { r.end = time.Now() })
	// Each failed job names its own bits, and cancellation is appended once.
	if len(errs) > 0 {
		err := errors.Join(errs...)
		if runSp != nil {
			runSp.Attr("error", err.Error()).End()
		}
		return nil, err
	}

	mergeSp := cfg.Obs.Tracer.StartSpan("merge", "core", runSp.Context())
	rep.Workers = workers
	if collect {
		rep.Metrics = live.Progress().Metrics // what workers ran, past a stop too
	}
	if cfg.Stop.Enabled() {
		// Over the counts the stop was decided on, with every breakdown; its
		// events are those no earlier evaluation emitted.
		rep.Convergence = rep.ComputeConvergence(rule)
		evaluated(rep.Convergence)
	}
	mergeSp.AttrInt("injections", int64(rep.Total)).End()
	if runSp != nil {
		runSp.AttrInt("injections", int64(rep.Total)).AttrInt("workers", int64(workers)).End()
	}
	return rep, nil
}

// epochJobs flattens an epoch's draws into its dispatch order: draw by
// draw, each draw's batches in plan order.
func epochJobs(draws []*draw) []job {
	var jobs []job
	for _, d := range draws {
		for _, pos := range d.batches {
			jobs = append(jobs, job{d, pos, len(jobs)})
		}
	}
	return jobs
}

// addDraw folds a settled draw into the report in sequence order, so kept
// Results stay in the campaign's deterministic dispatch order. Positions
// past an adaptive stop hold the invalid zero Result and are skipped.
func (r *Report) addDraw(d *draw, keep bool) {
	for _, res := range d.res {
		if res.Outcome != 0 {
			r.add(res, keep)
		}
	}
}

// emitConvergenceEvents records each class's first margin crossing — and,
// once, the campaign-wide stop decision — as JSONL convergence events.
// seen carries the already-reported set between calls ("" = the campaign
// decision itself).
func emitConvergenceEvents(trace *obs.TraceSink, c *stats.Convergence, seen map[string]bool) {
	if trace == nil || c == nil {
		return
	}
	for _, ci := range c.Classes {
		if ci.Converged && !seen[ci.Class] {
			seen[ci.Class] = true
			trace.RecordJSON(obs.ConvergenceEvent{
				Kind: "class_converged", Class: ci.Class, K: ci.K, N: ci.N,
				Lo: ci.Lo, Hi: ci.Hi, Width: ci.Width,
				TargetMargin: c.TargetMargin, Confidence: c.Confidence,
			})
		}
	}
	if c.Converged && !seen[""] {
		seen[""] = true
		trace.RecordJSON(obs.ConvergenceEvent{
			Kind: "stop", N: c.Total, Width: c.WidestWidth,
			TargetMargin: c.TargetMargin, Confidence: c.Confidence,
		})
	}
}

// String renders the report in the paper's Table 2 style.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total flips: %d\n", r.Total)
	for _, ci := range r.Estimate().Pooled {
		fmt.Fprintf(&sb, "  %-10s %6d  (%6.2f%%)\n", ci.Class, ci.K, 100*ci.Fraction)
	}
	return sb.String()
}
