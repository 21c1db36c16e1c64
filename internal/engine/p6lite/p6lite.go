// Package p6lite adapts the latch-accurate POWER6-style core model
// (internal/proc under the AVP workload) as the default engine backend —
// the analogue of the paper's Awan accelerator plus its controlling host.
// Construction generates the AVP, warms the model to workload steady state,
// installs the dirty-tracking restore baseline and captures one phased
// checkpoint per testcase boundary. The backend schedules latch-bit faults
// (toggle and sticky mode) and clocks the model while monitoring the fault
// isolation registers and machine events; verification barriers are AVP
// testends, checked against the program's golden signatures and memory
// digests.
package p6lite

import (
	"fmt"

	"sfi/internal/avp"
	"sfi/internal/engine"
	"sfi/internal/latch"
	"sfi/internal/obs"
	"sfi/internal/proc"
)

// Name is the backend's registry name.
const Name = "p6lite"

func init() {
	engine.Register(Name, New)
	engine.RegisterCensus(Name, census)
}

// census enumerates the latch population without generating the AVP or
// warming the model: the core's latch inventory depends only on the proc
// configuration, so a fresh (cold) core's database is the full census.
func census(cfg engine.Config) (*latch.DB, error) {
	return proc.New(cfg.Proc).DB(), nil
}

// phasedCheckpoint is a model snapshot taken at one point of the AVP pass.
type phasedCheckpoint struct {
	ck     *proc.ModelCheckpoint
	nextTC int // testcase index expected at the next testend barrier
}

// Backend owns one core model warmed for repeated injections.
type Backend struct {
	cfg  engine.Config
	core *proc.Core
	prog *avp.Program

	// obs is the optional metrics collector (nil = off). Cycle accounting
	// is batched per monitored Run rather than per Step, so the per-cycle
	// hot path carries no instrumentation at all.
	obs *obs.Metrics

	ckpts     []phasedCheckpoint
	baseRecov uint64

	// nextTC is the testcase index expected at the next testend barrier;
	// Step rotates it as barriers retire.
	nextTC int
	// lastActivity is the recovery count at injection time, the baseline
	// for the quiesce busy check.
	lastActivity uint64

	// Active sticky force, if any. The forced bit is resolved to its
	// storage word once, at injection, so the per-cycle re-force is one
	// masked word access.
	stickyOn    bool
	stickyBit   latch.BitRef
	stickyVal   bool
	stickyUntil uint64 // cycle bound; 0 = forever
}

// New builds, warms and checkpoints a backend.
func New(cfg engine.Config) (engine.Backend, error) {
	cfg.AVP.MemBytes = cfg.Proc.MemBytes
	prog, err := avp.Generate(cfg.AVP)
	if err != nil {
		return nil, err
	}
	c := proc.New(cfg.Proc)
	c.Mem().LoadProgram(0, prog.Words)
	c.SetCheckersEnabled(cfg.CheckersOn)
	c.SetRecoveryEnabled(cfg.RecoveryOn)

	// Warm: two full passes reach AVP steady state (memory and registers
	// in their periodic regime).
	n := cfg.AVP.Testcases
	for ends := 0; ends < 2*n; ends++ {
		if err := runToTestEnd(c); err != nil {
			return nil, err
		}
	}
	// Install the dirty-tracking restore baseline at steady state: the
	// phased checkpoints below are captured as sparse deltas against it,
	// and every per-injection reload rewrites only the state that differs.
	c.InstallRestoreBaseline()
	b := &Backend{
		cfg:       cfg,
		core:      c,
		prog:      prog,
		baseRecov: c.Recoveries,
	}
	// One checkpoint per testcase boundary across a third full pass.
	for tc := 0; tc < n; tc++ {
		b.ckpts = append(b.ckpts, phasedCheckpoint{ck: c.SaveCheckpoint(), nextTC: tc})
		if err := runToTestEnd(c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// runToTestEnd clocks a fault-free core to its next testend barrier.
func runToTestEnd(c *proc.Core) error {
	for guard := 0; guard < 50_000_000; guard++ {
		if c.Step().TestEnd {
			return nil
		}
	}
	return fmt.Errorf("p6lite: warm-up did not reach a testend")
}

// Clone duplicates a warmed backend without re-generating the AVP or
// re-running the warm-up and checkpoint passes: it builds a fresh model,
// adopts the prototype's restore baseline (shared read-only) and reloads
// the first phased checkpoint. The clone shares the prototype's immutable
// checkpoints and program but owns all mutable model state, so prototype
// and clones can run injections concurrently.
func (b *Backend) Clone() engine.Backend {
	c := proc.New(b.cfg.Proc)
	c.SetCheckersEnabled(b.cfg.CheckersOn)
	c.SetRecoveryEnabled(b.cfg.RecoveryOn)
	c.AdoptBaselineFrom(b.core)
	nb := &Backend{
		cfg:       b.cfg,
		core:      c,
		prog:      b.prog,
		ckpts:     b.ckpts,
		baseRecov: b.baseRecov,
	}
	// Synchronize counters and capture state with a (dirty-path) reload.
	nb.ReloadPhase(0)
	return nb
}

// Core exposes the underlying model (bench and experiment access; the
// campaign layer stays behind the Backend interface).
func (b *Backend) Core() *proc.Core { return b.core }

// DB exposes the model's latch database.
func (b *Backend) DB() *latch.DB { return b.core.DB() }

// Phases returns the phased-checkpoint count (one per AVP testcase).
func (b *Backend) Phases() int { return len(b.ckpts) }

// ReloadPhase restores phased checkpoint p and its testcase tracking,
// clearing any sticky force.
func (b *Backend) ReloadPhase(p int) {
	ph := b.ckpts[p]
	b.core.RestoreCheckpoint(ph.ck)
	b.stickyOn = false
	b.nextTC = ph.nextTC
}

// Step clocks one cycle, re-applying an active sticky force and rotating
// the expected-testcase index at barriers.
func (b *Backend) Step() engine.Event {
	ev := b.core.Step()
	if b.stickyOn {
		if b.stickyUntil != 0 && b.core.Cycle >= b.stickyUntil {
			b.stickyOn = false
		} else {
			b.stickyBit.Set(b.stickyVal)
		}
	}
	if ev.TestEnd {
		b.nextTC = (b.nextTC + 1) % len(b.prog.Testcases)
	}
	return engine.Event{Barrier: ev.TestEnd, Halted: ev.Halted}
}

// Inject applies a fault at the current cycle: the bit (and the rest of its
// span) is flipped, and in sticky mode the flipped value is re-forced after
// every subsequent cycle until the duration expires. It also snapshots the
// recovery count as the quiesce baseline for CheckBarrier's busy test.
func (b *Backend) Inject(inj engine.Injection) error {
	db := b.core.DB()
	if inj.Bit < 0 || inj.Bit >= db.TotalBits() {
		return fmt.Errorf("p6lite: injection bit %d out of range [0,%d)", inj.Bit, db.TotalBits())
	}
	first := db.BitRef(inj.Bit)
	v := first.Flip()
	for i := 1; i < inj.Span && inj.Bit+i < db.TotalBits(); i++ {
		db.Flip(inj.Bit + i)
	}
	if inj.Mode == engine.Sticky {
		b.stickyOn = true
		b.stickyBit = first
		b.stickyVal = v
		b.stickyUntil = 0
		if inj.Duration > 0 {
			b.stickyUntil = b.core.Cycle + uint64(inj.Duration)
		}
	}
	b.lastActivity = b.core.Recoveries
	return nil
}

// Run clocks up to maxCycles, invoking onBarrier at every testend (if
// non-nil; returning false from the callback stops the run). The run also
// stops on halt, checkstop, a detected hang, or harness-level loss of
// forward progress (nothing completed for 2×HangLimit cycles).
func (b *Backend) Run(maxCycles int, onBarrier func() bool) engine.RunStats {
	var st engine.RunStats
	c := b.core
	lastCompleted := c.Completed
	lastProgressCycle := c.Cycle
	harnessLimit := uint64(2 * c.Config().HangLimit)

	for i := 0; i < maxCycles; i++ {
		ev := b.Step()
		st.Cycles++
		if c.Completed != lastCompleted {
			lastCompleted = c.Completed
			lastProgressCycle = c.Cycle
		}
		if ev.Barrier {
			st.Barriers++
			if onBarrier != nil && !onBarrier() {
				break
			}
		}
		switch {
		case ev.Halted:
			st.Halted = true
		case c.Checkstopped():
			st.Checkstop = true
		case c.HangDetected():
			st.Hang = true
		case c.Cycle-lastProgressCycle > harnessLimit:
			st.NoProgress = true
		default:
			continue
		}
		break // a stop condition fired
	}
	b.obs.ObserveRun(st.Cycles) // nil-safe
	return st
}

// CheckBarrier verifies architected state against the retired testcase's
// golden signature and memory digest, and reports whether recovery
// activity happened since the previous barrier.
func (b *Backend) CheckBarrier() engine.BarrierCheck {
	n := len(b.prog.Testcases)
	tc := b.prog.Testcases[(b.nextTC+n-1)%n] // the one Step just retired
	c := b.core
	st := c.ArchState()
	sigOK := st.MaskedSignature(tc.GPRMask, tc.FPRMask, tc.SPRMask) == tc.SigMasked
	memOK := c.Mem().DigestRange(b.prog.DataLo, b.prog.DataHi) == tc.MemDigest
	busy := c.Recoveries != b.lastActivity || c.InRecovery()
	if busy {
		b.lastActivity = c.Recoveries
	}
	return engine.BarrierCheck{StateOK: sigOK && memOK, Busy: busy}
}

// Verdict polls the machine-check state: checkstop, first-error trace,
// recovery count since construction, and correction evidence.
func (b *Backend) Verdict() engine.Verdict {
	c := b.core
	v := engine.Verdict{
		Checkstop:  c.Checkstopped(),
		Recoveries: c.Recoveries - b.baseRecov,
		Corrected:  c.ArrayCorrectedCount() > 0 || c.AnyFIR(),
	}
	if id, cyc, ok := c.FirstError(); ok {
		v.Detected = true
		// id is read from rut.err.src, an injectable latch: a held flip can
		// leave it naming no checker at all.
		if chk := c.Checkers(); id < len(chk) {
			v.FirstChecker = chk[id].Name
		} else {
			v.FirstChecker = fmt.Sprintf("invalid-checker-%d", id)
		}
		v.DetectCycle = cyc
	}
	return v
}

// FIRNames returns the names of the checkers whose fault-isolation-register
// bits are currently set — the FIR poll the paper's host does after each
// injection, used for structured trace events.
func (b *Backend) FIRNames() []string {
	var out []string
	for _, ch := range b.core.Checkers() {
		if b.core.FIRBit(ch.ID) {
			out = append(out, ch.Name)
		}
	}
	return out
}

// Cycle returns the current machine cycle.
func (b *Backend) Cycle() uint64 { return b.core.Cycle }

// SetObs attaches a metrics collector to the backend and its core (nil
// detaches, the default). Monitored runs then record their cycle counts
// and the core times its checkpoint restores.
func (b *Backend) SetObs(m *obs.Metrics) {
	b.obs = m
	b.core.SetObs(m)
}
