// Package sfi is the public API of the Statistical Fault Injection (SFI)
// library, a from-scratch reproduction of "Statistical Fault Injection"
// (Ramachandran, Kudva, Kellington, Schumann, Sanda — DSN 2008).
//
// The library contains a latch-accurate POWER6-style core model with a full
// RAS stack (hardware checkers, recovery unit, checkstop escalation, fault
// isolation registers), an emulation engine with checkpoint/reload and
// fault-injection ports, a pseudo-random verification workload (AVP) with
// golden signatures, a beam-experiment simulation for calibration, and the
// SFI campaign framework itself: statistical sampling of latch populations,
// targeted injection, outcome classification and cause-effect tracing.
//
// Quick start:
//
//	cfg := sfi.DefaultCampaignConfig()
//	cfg.Flips = 1000
//	report, err := sfi.RunCampaign(cfg)
//	...
//	fmt.Println(report)
package sfi

import (
	"context"
	"io"
	"time"

	"sfi/internal/beam"
	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/latch"
	"sfi/internal/obs"
	"sfi/internal/proc"
	"sfi/internal/stats"
	"sfi/internal/workload"

	// Engine backends register themselves by import: every facade user can
	// select them by name via RunnerConfig.Backend.
	_ "sfi/internal/engine/awan"
	_ "sfi/internal/engine/p6lite"
)

// Re-exported campaign types: see the core package for full documentation.
type (
	// CampaignConfig describes a statistical fault-injection campaign.
	CampaignConfig = core.CampaignConfig
	// RunnerConfig parameterizes a single-model injection runner.
	RunnerConfig = core.RunnerConfig
	// Runner owns one warmed, checkpointed model for repeated injections.
	Runner = core.Runner
	// Report aggregates campaign outcomes. Report.Merge folds the reports
	// of disjoint campaign shards back into the whole-campaign report —
	// the aggregation primitive behind distributed execution (sfi-coord /
	// sfi-worker).
	Report = core.Report
	// ShardRange is a half-open range [Lo, Hi) of injection indices into
	// a campaign's deterministic sample; set CampaignConfig.Shard to run
	// just that slice of the campaign.
	ShardRange = core.ShardRange
	// Result is one injection's classified destiny with its trace.
	Result = core.Result
	// Outcome is the destiny category of an injected bit flip.
	Outcome = core.Outcome

	// BeamConfig parameterizes a simulated proton-beam experiment.
	BeamConfig = beam.Config
	// BeamReport summarizes a beam run.
	BeamReport = beam.Report

	// LatchFilter selects part of the latch population for targeted
	// injection.
	LatchFilter = latch.Filter
	// LatchType is the scan-chain class of a latch (FUNC, REGFILE, GPTR,
	// MODE).
	LatchType = latch.Type

	// InjectionMode is toggle or sticky.
	InjectionMode = engine.Mode

	// ObsConfig selects campaign observability features (zero value = off).
	ObsConfig = core.ObsConfig
	// Progress is a point-in-time view of a running campaign, read through
	// a Live handle.
	Progress = core.Progress
	// Live is the read handle on a campaign (ObsConfig.Live): its Progress
	// method merges the workers' metrics when called, from any goroutine.
	Live = core.Live
	// MetricsSnapshot is the merged cross-worker metrics view attached to
	// a Report when metrics are enabled; it serializes to JSON (expvar) and
	// Prometheus text (WritePrometheus).
	MetricsSnapshot = obs.Snapshot
	// TraceSink receives one structured JSONL lifecycle event per
	// injection.
	TraceSink = obs.TraceSink
	// TraceOptions bounds a TraceSink (sampling stride, max events).
	TraceOptions = obs.TraceOptions
	// TraceEvent is one injection's structured lifecycle record.
	TraceEvent = obs.TraceEvent

	// Tracer mints causal campaign spans (see ObsConfig.Tracer); its Doc
	// method assembles the recorded spans into a TraceDoc.
	Tracer = obs.Tracer
	// Span is one timed operation in a campaign's causal tree.
	Span = obs.Span
	// SpanContext parents a child span across goroutines or processes.
	SpanContext = obs.SpanContext
	// TraceDoc is the assembled span tree with its critical path and
	// latency attribution.
	TraceDoc = obs.TraceDoc
	// Attribution is a campaign's critical-path latency decomposition.
	Attribution = obs.Attribution

	// AllocConfig selects how a campaign's injection budget is allocated
	// across sampling strata (unit × latch-type): the zero value keeps the
	// classic pooled uniform sample bit for bit; Mode AllocNeyman runs the
	// campaign as allocation epochs, re-splitting each epoch's budget by
	// Neyman allocation over the strata's observed outcome variance.
	AllocConfig = core.AllocConfig

	// StopConfig is a campaign's adaptive statistical stopping rule:
	// sequential Wilson intervals per outcome class, with the campaign
	// stopping once every class is inside the target margin. The intervals
	// hold their level over the looks at n = 2^k only (stats.SequentialZ;
	// ROADMAP 14(b) replaces the bound).
	// The zero value keeps the classic fixed-Flips behavior bit for bit.
	StopConfig = core.StopConfig
	// Convergence is a per-class confidence-interval evaluation of a
	// campaign against a stopping rule, attached to adaptive Reports and
	// carried live in Progress.
	Convergence = stats.Convergence
	// ClassInterval is one outcome class's row of a population: count, size,
	// fraction and interval (a Report's Estimate, a Convergence's).
	ClassInterval = stats.ClassInterval
	// Estimate is a report's numbers, per population: Report.Estimate.
	Estimate = core.Estimate
)

// Outcome categories (the paper's Figure 1 vocabulary).
const (
	Vanished  = core.Vanished
	Corrected = core.Corrected
	Hang      = core.Hang
	Checkstop = core.Checkstop
	SDC       = core.SDC
)

// Injection modes.
const (
	Toggle = engine.Toggle
	Sticky = engine.Sticky
)

// Engine backend names: set RunnerConfig.Backend to select the machine
// model a campaign injects into (BackendP6Lite is the default).
const (
	// BackendP6Lite is the latch-accurate POWER6-style core model under
	// the AVP workload.
	BackendP6Lite = "p6lite"
	// BackendAwan is the gate-level netlist engine running a bank of
	// checked-ALU macros (size it with RunnerConfig.Awan).
	BackendAwan = "awan"
)

// Backends lists the registered engine backend names.
func Backends() []string { return engine.Backends() }

// Budget allocation modes (CampaignConfig.Alloc.Mode).
const (
	// AllocUniform is the classic pooled uniform sample (the default).
	AllocUniform = core.AllocUniform
	// AllocNeyman allocates the budget across sampling strata by Neyman
	// allocation, re-planned at epoch boundaries.
	AllocNeyman = core.AllocNeyman
)

// DefaultAllocEpochs is the number of allocation epochs a stratified
// campaign is split into when AllocConfig.Epochs is 0.
const DefaultAllocEpochs = core.DefaultAllocEpochs

// Latch types.
const (
	LatchFunc    = latch.Func
	LatchRegFile = latch.RegFile
	LatchGPTR    = latch.GPTR
	LatchMode    = latch.Mode
)

// Outcomes lists all outcome categories in reporting order.
var Outcomes = core.Outcomes

// WriteConvergencePrometheus renders a convergence evaluation as Prometheus
// gauges under prefix (per-class interval bounds, widths and converged
// flags). Nil c writes nothing.
func WriteConvergencePrometheus(w io.Writer, prefix string, c *Convergence) error {
	return obs.WriteConvergencePrometheus(w, prefix, c)
}

// Units lists the core's unit names in the paper's order (IFU, IDU, FXU,
// FPU, LSU, RUT, Core).
var Units = proc.Units

// UnitNEST is the optional core-periphery unit (L2 + memory controller),
// present when RunnerConfig.Proc.EnableNest is set — the paper's "fault
// injections in the periphery of the core" future work.
const UnitNEST = proc.UnitNEST

// LatchTypes lists the latch types in Figure 5 order.
var LatchTypes = latch.Types

// Row returns outcome o's row of one of an Estimate's populations.
func Row(rows []ClassInterval, o Outcome) ClassInterval { return core.Row(rows, o) }

// DefaultCampaignConfig returns a whole-core random campaign configuration.
func DefaultCampaignConfig() CampaignConfig { return core.DefaultCampaignConfig() }

// DefaultRunnerConfig returns the standard SFI runner configuration.
func DefaultRunnerConfig() RunnerConfig { return core.DefaultRunnerConfig() }

// RunCampaign executes a fault-injection campaign.
func RunCampaign(cfg CampaignConfig) (*Report, error) { return core.RunCampaign(cfg) }

// RunCampaignContext is RunCampaign with cancellation: when ctx is
// cancelled, dispatch stops, in-flight injections finish, and the
// campaign returns ctx's error.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*Report, error) {
	return core.RunCampaignContext(ctx, cfg)
}

// PlanShards splits a flips-injection campaign into contiguous shards of
// at most shardSize injections. Executing each shard (CampaignConfig.Shard)
// with the same seed — in any process, in any order — and merging the
// Reports in plan order reproduces the single-process campaign Report
// exactly. shardSize <= 0 yields one whole-campaign shard.
func PlanShards(flips, shardSize int) []ShardRange { return core.PlanShards(flips, shardSize) }

// NewRunner builds, warms and checkpoints a single injection runner.
func NewRunner(cfg RunnerConfig) (*Runner, error) { return core.NewRunner(cfg) }

// NewTraceSink wraps a writer in a JSONL injection-trace sink (see
// ObsConfig.Trace). The sink serializes concurrent writers; wrap a
// *bufio.Writer for high-rate traces and flush it after the campaign.
func NewTraceSink(w io.Writer, opts TraceOptions) *TraceSink {
	return obs.NewTraceSink(w, opts)
}

// NewTracer builds a campaign span tracer whose trace/span IDs are minted
// from a splitmix64 stream seeded by the campaign seed, so a rerun of the
// same campaign mints the same IDs.
func NewTracer(seed uint64) *Tracer { return obs.NewTracer(seed) }

// ProgressFrom derives a Progress view (rate, ETA, outcome mix) from a
// metrics snapshot — the shared derivation behind a local campaign's Live
// handle and distributed fleet status. Pass workers 0 when the
// concurrent-copy count is unknown; utilization is then omitted.
func ProgressFrom(s *MetricsSnapshot, total, workers int, start time.Time) Progress {
	return core.ProgressFrom(s, total, workers, start)
}

// PublishMetricsExpvar registers a live metrics view under name in the
// process-wide expvar registry (served at /debug/vars alongside pprof when
// an HTTP listener is up). The function is re-evaluated on every scrape.
func PublishMetricsExpvar(name string, fn func() *MetricsSnapshot) {
	obs.PublishExpvar(name, fn)
}

// ByUnit selects one unit's latches for targeted injection.
func ByUnit(unit string) LatchFilter { return latch.ByUnit(unit) }

// ByType selects one latch type for targeted injection.
func ByType(t LatchType) LatchFilter { return latch.ByType(t) }

// ByGroupPrefix selects latch groups by name prefix (macro-level targeting).
func ByGroupPrefix(prefix string) LatchFilter { return core.ByGroupPrefix(prefix) }

// DefaultBeamConfig returns the calibrated beam configuration.
func DefaultBeamConfig() BeamConfig { return beam.DefaultConfig() }

// RunBeam executes a simulated proton-beam experiment.
func RunBeam(cfg BeamConfig) (*BeamReport, error) { return beam.Run(cfg) }

// CalibrateBeam compares a campaign's estimated outcome proportions with a
// beam report (Table 2), returning the chi-square statistic and p-value.
func CalibrateBeam(rep *Report, b *BeamReport) (stat, p float64, err error) {
	f := fractions(rep)
	return beam.Calibrate(f[Vanished], f[Corrected], f[Checkstop], b)
}

// Table1 is the AVP-versus-SPECInt comparison result.
type Table1 = workload.Table1

// BuildTable1 measures the workload profiles and the AVP (paper Table 1).
func BuildTable1(seed uint64) (*Table1, error) { return workload.BuildTable1(seed) }
