package proc

import "fmt"

// Action is what a checker does when it fires: request a RUT retry or stop
// the machine.
type Action int

// Checker actions.
const (
	ActionRecover Action = iota + 1
	ActionCheckstop
)

func (a Action) String() string {
	if a == ActionRecover {
		return "recover"
	}
	return "checkstop"
}

// Checker identifiers. Each checker owns one FIR bit and one enable bit in
// the pervasive checker mask (the paper's Table 3 "masking of checkers").
const (
	ChkIFUPCPar = iota
	ChkIFUFBPar
	ChkIFUICUE
	ChkIDUD1Par
	ChkIDUD2Par
	ChkIDUIllegal
	ChkIDUDispFSM
	ChkIDUSPRPar
	ChkFXUOpPar
	ChkFXUResidue
	ChkFXUResPar
	ChkFXUGPRPar
	ChkFXUWBPar
	ChkFPUFPRPar
	ChkFPUPipePar
	ChkFPUFSM
	ChkLSUSTQPar
	ChkLSUSTQVDup
	ChkLSUERATPar
	ChkLSUDCUE
	ChkLSUAgenPar
	ChkLSULdPar
	ChkRUTFSM
	ChkRUTCapPar
	ChkRUTCkptUE
	ChkPRVFIRPar
	ChkPRVScanPar
	ChkPRVWatchdog
	ChkRingIFU
	ChkRingIDU
	ChkRingFXU
	ChkRingFPU
	ChkRingLSU
	ChkRingRUT
	ChkRingPRV
	ChkNESTRQPar
	ChkNESTL2UE
	ChkRingNEST

	numCheckers
)

// Checker describes one hardware checker.
type Checker struct {
	ID     int
	Name   string
	Unit   string
	Action Action
	// FIR is the global FIR bit index (register ID/8, bit ID%8 within the
	// register's low byte ... packed as bit = ID within fir[ID/64]).
	FIR int
	// Fired counts the times this checker detected an error (whether or
	// not it was enabled; disabled checkers do not post errors but the
	// count aids cause-effect analysis in tests).
	Fired uint64
}

func (c *Core) buildCheckers() {
	add := func(id int, name, unit string, act Action) {
		c.checkers = append(c.checkers, &Checker{
			ID: id, Name: name, Unit: unit, Action: act, FIR: id,
		})
	}
	add(ChkIFUPCPar, "ifu.pc.par", UnitIFU, ActionRecover)
	add(ChkIFUFBPar, "ifu.fb.par", UnitIFU, ActionRecover)
	add(ChkIFUICUE, "ifu.ic.ue", UnitIFU, ActionRecover)
	add(ChkIDUD1Par, "idu.d1.par", UnitIDU, ActionRecover)
	add(ChkIDUD2Par, "idu.d2.par", UnitIDU, ActionRecover)
	add(ChkIDUIllegal, "idu.illegal", UnitIDU, ActionRecover)
	add(ChkIDUDispFSM, "idu.disp.fsm", UnitIDU, ActionRecover)
	add(ChkIDUSPRPar, "idu.spr.par", UnitIDU, ActionRecover)
	add(ChkFXUOpPar, "fxu.op.par", UnitFXU, ActionRecover)
	add(ChkFXUResidue, "fxu.residue", UnitFXU, ActionRecover)
	add(ChkFXUResPar, "fxu.res.par", UnitFXU, ActionRecover)
	add(ChkFXUGPRPar, "fxu.gpr.par", UnitFXU, ActionRecover)
	add(ChkFXUWBPar, "fxu.wb.par", UnitFXU, ActionRecover)
	add(ChkFPUFPRPar, "fpu.fpr.par", UnitFPU, ActionRecover)
	add(ChkFPUPipePar, "fpu.pipe.par", UnitFPU, ActionRecover)
	add(ChkFPUFSM, "fpu.fsm", UnitFPU, ActionRecover)
	add(ChkLSUSTQPar, "lsu.stq.par", UnitLSU, ActionRecover)
	add(ChkLSUSTQVDup, "lsu.stq.vdup", UnitLSU, ActionRecover)
	add(ChkLSUERATPar, "lsu.erat.par", UnitLSU, ActionRecover)
	add(ChkLSUDCUE, "lsu.dc.ue", UnitLSU, ActionRecover)
	add(ChkLSUAgenPar, "lsu.agen.par", UnitLSU, ActionRecover)
	add(ChkLSULdPar, "lsu.ld.par", UnitLSU, ActionRecover)
	add(ChkRUTFSM, "rut.fsm", UnitRUT, ActionCheckstop)
	add(ChkRUTCapPar, "rut.cap.par", UnitRUT, ActionCheckstop)
	add(ChkRUTCkptUE, "rut.ckpt.ue", UnitRUT, ActionCheckstop)
	add(ChkPRVFIRPar, "prv.fir.par", UnitPRV, ActionCheckstop)
	add(ChkPRVScanPar, "prv.scan.par", UnitPRV, ActionCheckstop)
	add(ChkPRVWatchdog, "prv.watchdog", UnitPRV, ActionRecover)
	add(ChkRingIFU, "ring.ifu", UnitIFU, ActionCheckstop)
	add(ChkRingIDU, "ring.idu", UnitIDU, ActionCheckstop)
	add(ChkRingFXU, "ring.fxu", UnitFXU, ActionCheckstop)
	add(ChkRingFPU, "ring.fpu", UnitFPU, ActionCheckstop)
	add(ChkRingLSU, "ring.lsu", UnitLSU, ActionCheckstop)
	add(ChkRingRUT, "ring.rut", UnitRUT, ActionCheckstop)
	add(ChkRingPRV, "ring.prv", UnitPRV, ActionCheckstop)
	add(ChkNESTRQPar, "nest.rq.par", UnitNEST, ActionRecover)
	add(ChkNESTL2UE, "nest.l2.ue", UnitNEST, ActionRecover)
	add(ChkRingNEST, "ring.nest", UnitNEST, ActionCheckstop)

	if len(c.checkers) != numCheckers {
		panic(fmt.Sprintf("proc: checker table has %d entries, want %d",
			len(c.checkers), numCheckers))
	}
}

// Checkers returns the checker table (index = checker ID).
func (c *Core) Checkers() []*Checker { return c.checkers }

// checkerEnabled reports whether the pervasive mask enables checker id.
// The mask has 64 bits; checkers beyond 63 would alias, so numCheckers must
// stay ≤ 64.
func (c *Core) checkerEnabled(id int) bool {
	return c.prv.modeChecker.GetBit(id)
}

// fail is called at a checker's evaluation point when its condition is
// violated. Disabled checkers swallow the error (Table 3 "Raw" mode). It
// returns true when the error was posted, so call sites can squash the
// faulty side effect — detection gates data flow the way hardware checkers
// do; with the checker masked, the corrupt value flows on.
func (c *Core) fail(id int) bool {
	ch := c.checkers[id]
	ch.Fired++
	if !c.checkerEnabled(id) {
		return false
	}
	c.postError(ch)
	return true
}

// SetCheckersEnabled scan-loads the pervasive checker mask: true restores
// the power-on mask (all checkers on), false masks every checker, the
// paper's "Raw" configuration for Table 3.
func (c *Core) SetCheckersEnabled(on bool) {
	mask := uint64(0)
	if on {
		mask = ^uint64(0)
	}
	c.db.LoadScan(c.prv.modeChecker, mask)
}

// SetRecoveryEnabled scan-loads the RUT retry enable mode bit; with recovery
// off, recoverable errors escalate to checkstop (an ablation in DESIGN.md).
func (c *Core) SetRecoveryEnabled(on bool) {
	c.db.LoadScan(c.prv.modeRecovery, b2u(on))
}

// FIRBit reports whether the FIR bit for checker id is set.
func (c *Core) FIRBit(id int) bool {
	return c.prv.fir.Entry(id / 64).GetBit(id % 64)
}

// AnyFIR reports whether any FIR bit is set.
func (c *Core) AnyFIR() bool {
	for i := 0; i < c.prv.fir.Len(); i++ {
		if c.prv.fir.Entry(i).Get() != 0 {
			return true
		}
	}
	return false
}

// FirstError returns the checker ID and cycle of the first error of the
// current incident, as latched by the RUT error-capture logic, for
// cause-and-effect tracing. ok is false if no error has been captured.
func (c *Core) FirstError() (id int, cycle uint64, ok bool) {
	if !c.prv.firstErrSeen {
		return 0, 0, false
	}
	return int(c.rut.errSrc.Get()), c.rut.errCycle.Get(), true
}
