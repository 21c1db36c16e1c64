// Package p6lite adapts the latch-accurate POWER6-style core model
// (internal/proc driven by internal/emu under the AVP workload) as the
// default engine backend. Construction generates the AVP, warms the model
// to workload steady state, installs the dirty-tracking restore baseline
// and captures one phased checkpoint per testcase boundary; verification
// barriers are AVP testends, checked against the program's golden
// signatures and memory digests.
package p6lite

import (
	"fmt"

	"sfi/internal/avp"
	"sfi/internal/emu"
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

// Backend owns one emulated core model warmed for repeated injections.
type Backend struct {
	cfg  engine.Config
	eng  *emu.Engine
	prog *avp.Program

	ckpts     []phasedCheckpoint
	baseRecov uint64

	// nextTC is the testcase index expected at the next testend barrier;
	// Step and CheckBarrier rotate it as barriers retire.
	nextTC int
	// lastActivity is the recovery count at injection time, the baseline
	// for the quiesce busy check.
	lastActivity uint64
}

// New builds, warms and checkpoints a backend.
func New(cfg engine.Config) (engine.Backend, error) {
	if cfg.AVP.MemBytes != cfg.Proc.MemBytes {
		cfg.AVP.MemBytes = cfg.Proc.MemBytes
	}
	prog, err := avp.Generate(cfg.AVP)
	if err != nil {
		return nil, err
	}
	c := proc.New(cfg.Proc)
	c.Mem().LoadProgram(0, prog.Words)
	c.SetCheckersEnabled(cfg.CheckersOn)
	c.SetRecoveryEnabled(cfg.RecoveryOn)
	eng := emu.New(c)

	// Warm: two full passes reach AVP steady state (memory and registers
	// in their periodic regime).
	warmEnds := 2 * cfg.AVP.Testcases
	ends := 0
	for guard := 0; ends < warmEnds; guard++ {
		if guard > 50_000_000 {
			return nil, fmt.Errorf("p6lite: warm-up did not converge")
		}
		if eng.Step().TestEnd {
			ends++
		}
	}
	// Install the dirty-tracking restore baseline at steady state: the
	// phased checkpoints below are captured as sparse deltas against it,
	// and every per-injection reload rewrites only the state that differs.
	c.InstallRestoreBaseline()
	b := &Backend{
		cfg:       cfg,
		eng:       eng,
		prog:      prog,
		baseRecov: c.Recoveries,
	}
	// One checkpoint per testcase boundary across a third full pass.
	for i := 0; i < cfg.AVP.Testcases; i++ {
		b.ckpts = append(b.ckpts, phasedCheckpoint{
			ck:     eng.TakeCheckpoint(),
			nextTC: ends % cfg.AVP.Testcases,
		})
		for guard := 0; ; guard++ {
			if guard > 50_000_000 {
				return nil, fmt.Errorf("p6lite: checkpoint pass did not converge")
			}
			if eng.Step().TestEnd {
				ends++
				break
			}
		}
	}
	return b, nil
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
	c.AdoptBaselineFrom(b.eng.Core())
	eng := emu.New(c)
	nb := &Backend{
		cfg:       b.cfg,
		eng:       eng,
		prog:      b.prog,
		ckpts:     b.ckpts,
		baseRecov: b.baseRecov,
		nextTC:    b.ckpts[0].nextTC,
	}
	// Synchronize counters and capture state with a (dirty-path) reload.
	eng.ReloadFrom(b.ckpts[0].ck)
	return nb
}

// Core exposes the underlying model (bench and experiment access; the
// campaign layer stays behind the Backend interface).
func (b *Backend) Core() *proc.Core { return b.eng.Core() }

// Program exposes the AVP running on the model.
func (b *Backend) Program() *avp.Program { return b.prog }

// DB exposes the model's latch database.
func (b *Backend) DB() *latch.DB { return b.eng.Core().DB() }

// Phases returns the phased-checkpoint count (one per AVP testcase).
func (b *Backend) Phases() int { return len(b.ckpts) }

// ReloadPhase restores phased checkpoint p and its testcase tracking.
func (b *Backend) ReloadPhase(p int) {
	ph := b.ckpts[p]
	b.eng.ReloadFrom(ph.ck)
	b.nextTC = ph.nextTC
}

// ckpt pairs a model checkpoint with its barrier tracking.
type ckpt struct {
	ck     *proc.ModelCheckpoint
	nextTC int
}

// TakeCheckpoint captures the model state and barrier tracking.
func (b *Backend) TakeCheckpoint() engine.Checkpoint {
	return ckpt{ck: b.eng.TakeCheckpoint(), nextTC: b.nextTC}
}

// Reload restores a TakeCheckpoint snapshot.
func (b *Backend) Reload(c engine.Checkpoint) {
	k := c.(ckpt)
	b.eng.ReloadFrom(k.ck)
	b.nextTC = k.nextTC
}

// Step clocks one cycle, rotating the expected-testcase index at barriers.
func (b *Backend) Step() engine.Event {
	ev := b.eng.Step()
	if ev.TestEnd {
		b.nextTC = (b.nextTC + 1) % b.cfg.AVP.Testcases
	}
	return engine.Event{Barrier: ev.TestEnd, Halted: ev.Halted}
}

// Inject applies the fault and snapshots the recovery count as the quiesce
// baseline for CheckBarrier's busy test.
func (b *Backend) Inject(inj engine.Injection) error {
	if err := b.eng.Inject(inj); err != nil {
		return err
	}
	b.lastActivity = b.eng.Core().Recoveries
	return nil
}

// Run clocks up to maxCycles under the emulation engine's monitored run
// (checkstop, hang and forward-progress watchdogs included).
func (b *Backend) Run(maxCycles int, onBarrier func() bool) engine.RunStats {
	st := b.eng.Run(maxCycles, onBarrier)
	return engine.RunStats{
		Cycles:     st.Cycles,
		Barriers:   st.TestEnds,
		Halted:     st.Halted,
		Checkstop:  st.Checkstop,
		Hang:       st.Hang,
		NoProgress: st.NoProgress,
	}
}

// CheckBarrier verifies architected state against the retiring testcase's
// golden signature and memory digest, and reports whether recovery
// activity happened since the previous barrier.
func (b *Backend) CheckBarrier() engine.BarrierCheck {
	tc := b.prog.Testcases[b.nextTC]
	b.nextTC = (b.nextTC + 1) % b.cfg.AVP.Testcases
	c := b.eng.Core()
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
	c := b.eng.Core()
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

// FIRNames returns the names of the checkers whose FIR bits are set.
func (b *Backend) FIRNames() []string { return b.eng.FIRNames() }

// Cycle returns the current machine cycle.
func (b *Backend) Cycle() uint64 { return b.eng.Core().Cycle }

// SetObs attaches a metrics collector to the engine and core.
func (b *Backend) SetObs(m *obs.Metrics) { b.eng.SetObs(m) }
