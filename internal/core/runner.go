package core

import (
	"time"

	"sfi/internal/engine"
	"sfi/internal/latch"
	"sfi/internal/obs"
)

// RunnerConfig parameterizes one injection runner. It is an alias of the
// engine-level config: the Backend field selects the machine model (see
// engine.Register), and the rest parameterizes the injection protocol.
type RunnerConfig = engine.Config

// DefaultRunnerConfig returns the standard SFI configuration.
func DefaultRunnerConfig() RunnerConfig { return engine.DefaultConfig() }

// Result records the destiny of one injection, including the cause-effect
// trace from the flipped latch to the first checker that saw the error.
type Result struct {
	Bit        int
	Group      string
	Unit       string
	LatchType  latch.Type
	Entry      int
	BitInEntry int

	Outcome Outcome

	// Cause-and-effect trace.
	Detected      bool   // some checker observed the fault
	FirstChecker  string // name of the first checker that posted
	DetectLatency uint64 // cycles from injection to first detection

	Recoveries uint64 // RUT retries during the observation window
	Cycles     uint64 // cycles actually observed
	TestEnds   int    // workload barriers passed
}

// Runner owns one injectable machine model ready for repeated injections:
// the backend is warmed to workload steady state and checkpointed at
// several phases of the workload pass; every injection reloads one of the
// checkpoints (chosen deterministically from the injected bit), advances a
// small additional phase delay, flips the latch and monitors the outcome.
// Spreading the injection instants across the workload is what makes the
// campaign sample "realistic conditions" rather than one fixed machine
// state. The Runner itself is backend-neutral: everything
// model-specific — warm-up, checkpoints, barrier verification, machine
// checks — lives behind the engine.Backend interface.
type Runner struct {
	cfg RunnerConfig
	be  engine.Backend

	// The scalar path's barrier callback and the state it keeps across one
	// run: bound once, by newRunner, so that an injection allocates nothing.
	onBarrier func() bool
	sdc       bool // architected state diverged at a barrier
	cleanEnds int  // consecutive barriers with no error activity

	// Observability (each nil = off, the default; set together by Observe):
	// obs collects metrics, trace records per-injection lifecycle events,
	// tracer records one causal span per bit-parallel batch pass, parented
	// under spanCtx. Clones do not inherit them (each campaign worker gets
	// its own collector).
	obs     *obs.Metrics
	trace   *obs.TraceSink
	tracer  *obs.Tracer
	spanCtx obs.SpanContext
}

// NewRunner builds, warms and checkpoints a runner on the backend
// selected by cfg.Backend (the process must have registered it, usually
// via a blank import of the backend package).
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	be, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return newRunner(cfg, be), nil
}

func newRunner(cfg RunnerConfig, be engine.Backend) *Runner {
	r := &Runner{cfg: cfg, be: be}
	r.onBarrier = r.quiesce
	return r
}

// quiesce is the barrier callback of a monitored run: it stops the run on
// incorrect architected state, and otherwise after QuiesceExit consecutive
// clean barriers with no new error activity in between (never, at 0).
func (r *Runner) quiesce() bool {
	chk := r.be.CheckBarrier()
	if !chk.StateOK {
		r.sdc = true
		return false
	}
	if chk.Busy {
		r.cleanEnds = 0
		return true
	}
	r.cleanEnds++
	return r.cfg.QuiesceExit == 0 || r.cleanEnds < r.cfg.QuiesceExit
}

// Backend exposes the runner's engine backend (for backend-specific
// access; campaign code stays behind the interface).
func (r *Runner) Backend() engine.Backend { return r.be }

// DB exposes the backend's latch population for sampling and metadata.
func (r *Runner) DB() *latch.DB { return r.be.DB() }

// Observe attaches the runner's observers; nil detaches any of them (the
// default is fully off). Every injection is folded into m and offered to
// trace by record, the one place an injection is measured — the backend
// sees none of them. With a tracer, each bit-parallel batch pass records
// one "batch" span (lane occupancy, restore/run split, quiesce exits)
// parented under parent. The scalar per-injection path is deliberately not
// spanned — injection lifecycle detail already flows through the trace
// sink, and a span per injection would put allocation on the hot path.
func (r *Runner) Observe(m *obs.Metrics, trace *obs.TraceSink, tr *obs.Tracer, parent obs.SpanContext) {
	r.obs, r.trace, r.tracer, r.spanCtx = m, trace, tr, parent
}

// Clone duplicates a warmed runner without re-running warm-up and
// checkpointing: the backend shares its immutable checkpoints and
// workload with the prototype but owns all mutable model state, so
// prototype and clones can run injections concurrently.
func (r *Runner) Clone() *Runner {
	return newRunner(r.cfg, r.be.Clone())
}

// splitmix64 deterministically assigns each injection its workload phase,
// independent of worker scheduling.
func splitmix64(x uint64) uint64 { return engine.Splitmix64(x) }

// injectionSchedule derives one sampled bit's deterministic injection
// instant: the phased checkpoint to reload and the sub-workload phase
// jitter (in cycles) before the flip. Both the scalar path and the batch
// planner/dispatcher derive from this single function, which is what keeps
// their classifications identical.
func injectionSchedule(bit, phases int) (ckIdx, delay int) {
	h := splitmix64(uint64(bit))
	return int(h % uint64(phases)), int((h >> 16) % 197)
}

// classify folds one injection's observations — run stats, machine
// verdict, barrier divergence, injection cycle — into a classified Result.
// It is the single classification point shared by the scalar and the
// batched path.
func (r *Runner) classify(bit int, st engine.RunStats, v engine.Verdict, sdc bool, injectCycle uint64) Result {
	g, entry, bie := r.be.DB().Locate(bit)
	res := Result{
		Bit:        bit,
		Group:      g.Name,
		Unit:       g.Unit,
		LatchType:  g.Kind,
		Entry:      entry,
		BitInEntry: bie,
	}
	res.Cycles = st.Cycles
	res.TestEnds = st.Barriers
	res.Recoveries = v.Recoveries
	if v.Detected {
		res.Detected = true
		res.FirstChecker = v.FirstChecker
		// The capture cycle is read back from an injectable latch: a fault
		// held on it reports a cycle the run never saw. Detection happened
		// inside the window, so the window bounds the latency.
		res.DetectLatency = st.Cycles
		if d := v.DetectCycle - injectCycle; v.DetectCycle >= injectCycle && d <= st.Cycles {
			res.DetectLatency = d
		}
	}
	switch {
	case v.Checkstop:
		res.Outcome = Checkstop
	case st.Hang || st.NoProgress:
		res.Outcome = Hang
	case sdc:
		res.Outcome = SDC
	case res.Recoveries > 0 || v.Corrected:
		res.Outcome = Corrected
	default:
		res.Outcome = Vanished
	}
	return res
}

// record feeds one classified injection to the attached metrics collector
// and trace sink. ns is the wall time charged to the injection and stepped
// the cycles its backend says it clocked. The scalar path supplies its
// restore time and has the FIR polled; a batch lane has only its share of
// the pass (whose one restore ObserveBatch counted), and its FIR bits are
// not separable.
func (r *Runner) record(res Result, stepped uint64, t0 time.Time, ckIdx, delay int, ns uint64, restoreNs, propagateNs int64, lane bool) {
	r.obs.Fold(obs.Injection{ // nil-safe, like every Metrics method
		WallNs: ns, RestoreNs: uint64(restoreNs), Cycles: res.Cycles, Stepped: stepped,
		Outcome: int(res.Outcome), Unit: res.Unit, LatchType: res.LatchType.String(),
		Detected: res.Detected, DetectLat: res.DetectLatency, Lane: lane,
	})
	if r.trace == nil {
		return
	}
	var fir []string
	if !lane {
		fir = r.be.FIRNames()
	}
	r.trace.Record(&obs.TraceEvent{
		TS:            t0.UnixNano(),
		Bit:           res.Bit,
		Group:         res.Group,
		Unit:          res.Unit,
		LatchType:     res.LatchType.String(),
		Checkpoint:    ckIdx,
		DelayCycles:   delay,
		RestoreNs:     restoreNs,
		PropagateNs:   propagateNs,
		Cycles:        res.Cycles,
		Stepped:       stepped,
		TestEnds:      res.TestEnds,
		Outcome:       res.Outcome.String(),
		Detected:      res.Detected,
		FirstChecker:  res.FirstChecker,
		DetectLatency: res.DetectLatency,
		Recoveries:    res.Recoveries,
		FIR:           fir,
	})
}

// RunInjection reloads a phase-determined checkpoint, injects a single bit
// flip and observes the machine, returning the classified result.
func (r *Runner) RunInjection(bit int) Result {
	ckIdx, delay := injectionSchedule(bit, r.be.Phases())

	// Observability is off (nil) by default; the instrumented path times
	// the restore and propagation phases for metrics and trace events. The
	// restore is the ReloadPhase call: a backend that restores lazily
	// bills the model's restore to the call that needs it.
	observed := r.obs != nil || r.trace != nil
	var t0 time.Time
	var restoreNs int64
	if observed {
		t0 = time.Now()
	}
	r.be.ReloadPhase(ckIdx)
	if observed {
		restoreNs = time.Since(t0).Nanoseconds()
	}
	for i := 0; i < delay; i++ {
		r.be.Step()
	}

	injectCycle := r.be.Cycle()
	if err := r.be.Inject(engine.Injection{
		Bit: bit, Mode: r.cfg.Mode, Duration: r.cfg.StickyCycles,
		Span: r.cfg.SpanBits,
	}); err != nil {
		panic(err) // bits come from the database's own sampling
	}

	r.sdc, r.cleanEnds = false, 0
	var p0 time.Time
	if observed {
		p0 = time.Now()
	}
	run := r.be.Run(r.cfg.Window, r.onBarrier)
	var propagateNs int64
	if observed {
		propagateNs = time.Since(p0).Nanoseconds()
	}
	res := r.classify(bit, run, r.be.Verdict(), r.sdc, injectCycle)

	if observed {
		r.record(res, run.Stepped, t0, ckIdx, delay, uint64(time.Since(t0).Nanoseconds()), restoreNs, propagateNs, false)
	}
	return res
}

// BatchSize returns how many injections the runner can classify per
// bit-parallel backend pass; anything below 2 means the runner is scalar
// (either the backend has no lanes or BatchLanes forced them off).
func (r *Runner) BatchSize() int {
	if bb, ok := r.be.(engine.BatchBackend); ok {
		return bb.MaxBatch()
	}
	return 0
}

// RunInjectionBatch classifies a group of sampled bits in one bit-parallel
// backend pass: the shared phased checkpoint is restored once, every bit
// gets its own fault lane, and per-bit Results are identical to running
// each bit through RunInjection. All bits must share one checkpoint phase
// (the campaign's batch planner groups them) and the group must fit the
// backend's MaxBatch.
func (r *Runner) RunInjectionBatch(bits []int) []Result {
	bb := r.be.(engine.BatchBackend)
	phases := r.be.Phases()
	ckIdx := -1
	injs := make([]engine.BatchInjection, len(bits))
	for i, bit := range bits {
		ck, delay := injectionSchedule(bit, phases)
		if ckIdx < 0 {
			ckIdx = ck
		} else if ck != ckIdx {
			panic("core: batch mixes checkpoint phases")
		}
		injs[i] = engine.BatchInjection{
			Inj: engine.Injection{
				Bit: bit, Mode: r.cfg.Mode, Duration: r.cfg.StickyCycles,
				Span: r.cfg.SpanBits,
			},
			Delay: delay,
		}
	}

	observed := r.obs != nil || r.trace != nil
	var t0 time.Time
	if observed {
		t0 = time.Now()
	}
	sp := r.tracer.StartSpan("batch", "engine", r.spanCtx)
	brs, err := bb.RunBatch(ckIdx, injs, r.cfg.Window, r.cfg.QuiesceExit)
	if err != nil {
		panic(err) // bits come from the database's own sampling
	}
	var st engine.BatchStats
	rep, reports := r.be.(engine.BatchStatsReporter)
	if reports {
		st = rep.LastBatchStats()
	}
	if sp != nil {
		sp.AttrInt("lanes", int64(len(bits))).
			AttrInt("max_lanes", int64(bb.MaxBatch())).
			AttrInt("checkpoint", int64(ckIdx))
		if reports {
			sp.AttrInt("restore_ns", st.RestoreNs).
				AttrInt("cycles", int64(st.Cycles)).
				AttrInt("barriers", int64(st.Barriers)).
				AttrInt("quiesced", int64(st.Quiesced))
		}
		sp.End()
	}
	out := make([]Result, len(bits))
	for i, br := range brs {
		out[i] = r.classify(bits[i], br.Stats, br.Verdict, br.SDC, br.InjectCycle)
	}
	if observed {
		// The pass's wall time is shared work: attribute an equal share to
		// each injection so rate and busy metrics stay comparable with the
		// scalar path.
		shareNs := uint64(time.Since(t0).Nanoseconds()) / uint64(len(bits))
		r.obs.ObserveBatch(uint64(len(bits)), uint64(st.RestoreNs))
		for i, res := range out {
			r.record(res, brs[i].Stats.Stepped, t0, ckIdx, injs[i].Delay, shareNs, 0, int64(shareNs), true)
		}
	}
	return out
}
