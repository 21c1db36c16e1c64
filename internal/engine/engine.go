// Package engine is the backend-neutral seam between the SFI campaign
// framework (internal/core) and the machine models it injects into. The
// paper's methodology needs only five capabilities from the Awan engine —
// enumerate state bits, checkpoint/reload, inject, clock, observe — and
// this package states exactly that contract as the Backend interface, plus
// a config-driven registry so campaigns select a model fidelity by name:
// the latch-accurate "p6lite" core model (internal/proc under the AVP) or
// the gate-level "awan" netlist engine (internal/awan). Everything above
// this seam — sampling, sharding, warm-clone workers, dirty-restore
// checkpoints, metrics/trace/progress, distributed execution — is backend
// agnostic and inherited by every backend for free.
package engine

import "sfi/internal/latch"

// Mode selects how long an injected fault is forced.
type Mode int

// Injection modes (paper section 2: "the fault may exist for the duration
// of a cycle (toggle mode) or for a larger number of cycles (sticky mode)").
const (
	Toggle Mode = iota + 1
	Sticky
)

func (m Mode) String() string {
	if m == Toggle {
		return "toggle"
	}
	return "sticky"
}

// Injection describes one latch fault.
type Injection struct {
	Bit  int  // logical latch-bit index in the backend's latch database
	Mode Mode // toggle: flip once; sticky: hold the flipped value
	// Duration is the number of cycles a sticky fault is held
	// (0 = held for the rest of the run).
	Duration int
	// Span flips Span adjacent logical bits starting at Bit (clipped to
	// the population) — a multi-bit upset. 0 and 1 both mean single-bit.
	// Sticky mode holds only the first bit of a span.
	Span int
}

// Event reports what one clocked cycle did.
type Event struct {
	// Barrier: the workload reached a verification barrier (a testend for
	// the AVP-driven core model, an operation boundary for the gate-level
	// stimulus) at which architected state can be checked against golden.
	Barrier bool
	Halted  bool
}

// RunStats summarizes a monitored run.
type RunStats struct {
	Cycles     uint64 // cycles observed (a backend may replay fault-free ones rather than clock them)
	Stepped    uint64 // cycles clocked on the run's behalf: Cycles on awan, fewer on p6lite, which replays
	Barriers   int    // verification barriers retired
	Halted     bool
	Checkstop  bool
	Hang       bool // the backend's hang detector fired and gave up
	NoProgress bool // harness watchdog: loss of forward progress
}

// BarrierCheck is the backend's verdict at one verification barrier.
type BarrierCheck struct {
	// StateOK: the architected state matches the workload's golden
	// reference at this barrier. False means silent data corruption.
	StateOK bool
	// Busy: error-handling activity (recovery, retry) happened since the
	// previous barrier; quiesce-based early exit must not count this
	// barrier as clean.
	Busy bool
}

// Verdict is the backend's post-run machine-check summary, polled once
// after the observation window — the paper's FIR/status sweep.
type Verdict struct {
	Checkstop bool
	// Detected: some checker observed the fault; FirstChecker names the
	// first one to post and DetectCycle is the cycle it posted at.
	Detected     bool
	FirstChecker string
	DetectCycle  uint64
	// Recoveries counts error-recovery actions during the window.
	Recoveries uint64
	// Corrected: the machine corrected an error without a full recovery
	// (array scrub, FIR-only posts).
	Corrected bool
}

// Backend is one injectable machine model. A Backend is single-goroutine
// (campaigns give every worker its own via Clone); construction leaves it
// warmed to workload steady state with a set of phased checkpoints spread
// across the workload (Phases), so injections sample "realistic
// conditions" rather than one fixed machine state.
type Backend interface {
	// DB exposes the backend's latch population: bit enumeration for
	// sampling and per-bit metadata (group, unit, latch type).
	DB() *latch.DB

	// Phases returns the number of phased checkpoints; ReloadPhase
	// restores the model (and the backend's workload tracking) to one of
	// them, clearing any sticky force. Like Step, a backend may put the
	// restore off until something needs the model, as long as every later
	// answer is what the restored model would have given.
	Phases() int
	ReloadPhase(p int)

	// Step observes one machine cycle, maintaining any sticky force. Like
	// Run, a backend need not clock a cycle it can prove fault-free, as
	// long as the Event, Cycle and every later Run are what clocking it
	// would have produced.
	Step() Event

	// Inject applies a fault at the current cycle.
	Inject(inj Injection) error

	// Run observes up to maxCycles, invoking onBarrier at every
	// verification barrier (returning false from the callback stops the
	// run); it also stops on checkstop, halt, hang or loss of progress.
	// A backend need not clock the cycles it can prove fault-free, as
	// long as stats, callbacks, CheckBarrier, Verdict and Cycle are what
	// clocking them would have produced.
	Run(maxCycles int, onBarrier func() bool) RunStats

	// CheckBarrier compares architected state against the workload's
	// golden reference for the barrier just retired. Only valid from
	// inside a Run barrier callback.
	CheckBarrier() BarrierCheck

	// Verdict polls the machine-check state after a run.
	Verdict() Verdict

	// FIRNames returns the names of the checkers whose fault-isolation
	// bits are currently set, for structured trace events.
	FIRNames() []string

	// Cycle returns the current machine cycle, as observed.
	Cycle() uint64

	// Clone duplicates a warmed backend without re-running warm-up,
	// sharing only immutable state (checkpoints, programs) so clones run
	// injections concurrently. Cloning may read the source's live model
	// state, so it must happen while the source is quiescent — concurrent
	// clones of one idle prototype are fine, cloning a backend that is
	// mid-run is not (campaign fan-out holds the prototype until every
	// worker has cloned).
	Clone() Backend
}

// BatchInjection is one fault lane of a batched pass: the injection itself
// plus the per-lane phase-jitter delay (cycles after the checkpoint reload
// at which the flip is applied).
type BatchInjection struct {
	Inj   Injection
	Delay int
}

// BatchResult is one fault lane's outcome from RunBatch, carrying exactly
// the observations the scalar protocol extracts per injection: the run
// stats, the post-run machine verdict, whether the lane's architected
// state diverged from golden at a barrier (SDC), and the cycle the fault
// was applied at (for detection-latency computation).
type BatchResult struct {
	Stats       RunStats
	Verdict     Verdict
	SDC         bool
	InjectCycle uint64
}

// BatchBackend is the optional bit-parallel extension of Backend: a model
// whose value plane carries many independent simulation lanes in lockstep,
// so one combinational evaluation advances a whole batch of injections —
// classic parallel-pattern fault simulation. Scalar backends simply don't
// implement it; campaign workers detect it dynamically and fall back to
// per-injection Run otherwise. Per-lane classification must be
// semantically identical to running each injection through the scalar
// protocol (the equivalence is test- and CI-gated).
type BatchBackend interface {
	Backend

	// MaxBatch returns the number of independent fault lanes one RunBatch
	// pass can carry (the word width minus the golden lane). 0 disables
	// batching.
	MaxBatch() int

	// RunBatch restores phased checkpoint p once, then runs every given
	// injection in its own fault lane against the shared golden lane:
	// lane k's fault is applied after injs[k].Delay cycles, and each lane
	// independently observes the scalar protocol's stopping rules —
	// divergence at a barrier (SDC), checker detection (checkstop),
	// quiesce consecutive clean barriers, or the window expiring. Lanes
	// beyond len(injs) stay masked off (identical to golden), so a short
	// final batch cannot skew classification.
	RunBatch(p int, injs []BatchInjection, window, quiesce int) ([]BatchResult, error)
}

// BatchStats describes the phase breakdown of the most recent RunBatch
// pass: how long the shared checkpoint restore took versus the lockstep
// run, how far the pass stepped, and how many lanes exited through the
// quiesce rule. The campaign tracer stamps these onto per-batch spans so
// a trace attributes pass latency to restore vs propagation.
type BatchStats struct {
	RestoreNs int64 // shared phased-checkpoint reload
	RunNs     int64 // lockstep stepping until the last lane retired
	Cycles    int   // machine cycles stepped since the reload
	Barriers  int   // AVP barriers retired during the pass
	Quiesced  int   // lanes that exited via consecutive clean barriers
}

// BatchStatsReporter is optionally implemented by batch backends that can
// break a pass into its phases. LastBatchStats returns the stats of the
// most recent RunBatch call on this backend instance (not safe to
// interleave with concurrent RunBatch calls on the same instance — one
// runner owns one backend, as everywhere else).
type BatchStatsReporter interface {
	LastBatchStats() BatchStats
}

// Splitmix64 is the shared per-bit hash: it deterministically assigns each
// injection its workload phase (and drives backend stimulus generation),
// independent of worker scheduling or process boundaries.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
