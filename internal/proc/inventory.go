package proc

import (
	"sfi/internal/array"
	"sfi/internal/latch"
)

// Scan-ring layout shared by every unit's MODE ring:
//
//	[0:16)  integrity segment — parity-guarded by the pervasive ring
//	        checker; corruption is a checkstop (scan corruption is not
//	        retryable).
//	[16:24) critical function segment — must hold modeCriticalInit or the
//	        unit's clocks are effectively broken (unit freezes → hang).
//	[24:32) parity-polarity segment — XORed into the unit's data-parity
//	        generation and checking; a flip makes existing protected state
//	        look bad (one retry), after which regenerated parity is
//	        consistent again (corrected, one-shot).
//	[32:N)  spare configuration bits (no functional effect).
//
// GPTR rings: [0:4) test-engage bits (freeze the unit: hang), [4:12)
// integrity segment (checkstop), rest unused ABIST seeds/test data.
//
// The model reads a ring through one latch.Scan on its first entry, whose
// read set is that whole word: every entry past the first is never read.
const (
	modeIntegrityLo, modeIntegrityHi = 0, 16
	modeCriticalLo, modeCriticalHi   = 16, 24
	modePolarityLo, modePolarityHi   = 24, 32
	modeCriticalInit                 = 0xA5
	modeIntegrityInit                = 0x3C5A

	gptrEngageLo, gptrEngageHi       = 0, 4
	gptrIntegrityLo, gptrIntegrityHi = 4, 12

	eratValid      = 1 // lsu.erat.ctl's one read bit; bits 1-3 are never read
	recoveryEnable = 1 // prv.mode.recovery's one read bit; bits 1-7 are spare
)

// Cache and queue geometry.
const (
	icLines    = 64  // 32B lines, direct mapped
	dcLines    = 128 // 32B lines, direct mapped, write-through
	lineWords  = 4   // 64-bit dwords per line
	stqEntries = 24
	eratSize   = 64
	lmqEntries = 4
	fbEntries  = 8
	bhtEntries = 2048
	traceDepth = 64
)

type ifuState struct {
	pc     latch.Reg // fetch address
	pcPar  latch.Reg
	fbIR   latch.Array // fetch buffer: instruction words
	fbPC   latch.Array // fetch buffer: addresses
	fbV    latch.Array // fetch buffer: valid bits
	fbPar  latch.Array // fetch buffer: entry parity
	fbHead latch.Reg
	fbTail latch.Reg
	fbCnt  latch.Reg
	bht    latch.Tracked // 2-bit branch history counters (unprotected)
	icFSM  latch.Reg     // icache miss state
	icCnt  latch.Counter // refill countdown
	icAddr latch.Reg     // refill address
	mode   latch.Scan    // MODE scan ring (segment 0; the spare segments are idle)
	gptr   latch.Scan    // GPTR ring entry 0 (the rest is unused test data)

	icTag  *array.Protected
	icData *array.Protected
}

type iduState struct {
	d1IR  latch.Reg
	d1PC  latch.Reg
	d1V   latch.Reg
	d1Par latch.Reg

	d2IR   latch.Reg
	d2PC   latch.Reg
	d2V    latch.Reg
	d2Par  latch.Reg
	d2Pred latch.Reg // bit0: predicted taken
	d2PNPC latch.Reg // predicted next fetch address after this inst

	cr     latch.Reg // condition register CR0 (4 bits)
	crPar  latch.Reg
	lr     latch.Reg
	lrPar  latch.Reg
	ctr    latch.Reg
	ctrPar latch.Reg

	dispFSM latch.Reg // one-hot dispatch state
	mode    latch.Scan
	gptr    latch.Scan
}

type fxuState struct {
	gpr    latch.Tracked // 32 x 64 general purpose registers
	gprPar latch.Array   // per-register parity

	// EX stage slot (shared by all execution classes; the FXU owns the
	// issue/execute sequencing latches in this model).
	exIR    latch.Reg
	exIRPar latch.Reg
	exPC    latch.Reg
	exV     latch.Reg
	exBusy  latch.Reg // remaining execute cycles

	opA    latch.Reg
	opAPar latch.Reg
	opB    latch.Reg
	opBPar latch.Reg

	res    latch.Reg // fixed-point result
	resPar latch.Reg
	resRsd latch.Reg // predicted mod-3 residue of the result

	divFSM latch.Reg
	divCnt latch.Reg
	exPNPC latch.Reg // predicted (then actual) next fetch address

	// WB stage slot.
	wbIR    latch.Reg
	wbIRPar latch.Reg
	wbV     latch.Reg
	wbRes   latch.Reg
	wbPar   latch.Reg
	wbFRes  latch.Reg // floating-point result riding to writeback
	wbFPar  latch.Reg
	wbNPC   latch.Reg // architected next PC for the checkpoint

	mode latch.Scan
	gptr latch.Scan
}

type fpuState struct {
	fpr    latch.Tracked
	fprPar latch.Array

	p1a  latch.Reg // pipeline stage operand/result latches
	p1b  latch.Reg
	p2   latch.Reg
	p3   latch.Reg
	p4   latch.Reg
	pPar latch.Reg // staged parity, one bit per stage
	fsm  latch.Reg // one-hot pipe state
	mode latch.Scan
	gptr latch.Scan
}

type lsuState struct {
	stqAddr latch.Tracked
	stqData latch.Tracked
	stqCtl  latch.Array // bit0 valid, bit1 valid-duplicate, bit2 word-size
	stqParA latch.Array
	stqParD latch.Array
	stqHead latch.Reg
	stqTail latch.Reg

	eratVPN latch.Tracked // 28-bit virtual page numbers
	eratPPN latch.Tracked // 28-bit physical page numbers
	eratCtl latch.Tracked // bit0 valid
	eratPar latch.Array   // entry parity over vpn^ppn
	eratPtr latch.Reg     // replacement pointer

	dcFSM  latch.Reg
	dcCnt  latch.Counter // miss or reload countdown
	dcAddr latch.Reg

	ea    latch.Reg // effective address latch
	eaPar latch.Reg
	ldRes latch.Reg
	ldPar latch.Reg

	mode latch.Scan
	gptr latch.Scan

	dcTag  *array.Protected
	dcData *array.Protected
}

type rutState struct {
	fsm      latch.Reg // one-hot recovery sequencer
	retryCnt latch.Reg
	waitCnt  latch.Counter
	errSrc   latch.Reg // checker id of the first error of this incident
	errCycle latch.Reg // cycle of the first error
	progress latch.Reg // completions since last recovery (saturating)
	capPar   latch.Reg // parity over the capture/sequencing registers
	mode     latch.Scan
	gptr     latch.Scan

	ckptGPR *array.Protected
	ckptFPR *array.Protected
	ckptSPR *array.Protected // 0 CR, 1 LR, 2 CTR, 3 next PC
}

type prvState struct {
	fir    latch.Array // fault isolation registers
	firPar latch.Array

	checkstop latch.Reg
	coreHung  latch.Reg
	hangCnt   latch.Counter // completion watchdog, counting up to the hang limit
	hangArm   latch.Reg     // set after a hang recovery; cleared by completion

	modeClock    latch.Scan // per-unit clock enables (bit per unit)
	modeChecker  latch.Scan // checker enable mask
	modeRecovery latch.Scan // bit0: RUT retry enable
	modeHangLim  latch.Scan // watchdog threshold (0 disables)

	// Scan-control and ring-integrity state: functional latches in the
	// paper's classes, but written only when the rings are loaded.
	ringPar latch.ScanArray // stored parity for each unit's ring segments
	scanCtl latch.Scan
	scanPar latch.Scan
	mode2   latch.Scan // spare pervasive mode bits, entry 0: the PRV ring segment
	gptr    latch.Scan

	scrubPtr latch.Counter // background array scrub cursor

	// firstErr caches the first posted checker of the current incident for
	// cause-effect tracing (also latched into rut.errSrc).
	firstErrSeen bool
}

func (p *prvState) resetCounters() { p.firstErrSeen = false }

// buildInventory registers the full latch population. The per-unit bit
// budget follows the paper's proportions scaled ~1:4 (see DESIGN.md): LSU
// largest, RUT smallest functional unit, substantial pervasive population.
func (c *Core) buildInventory() {
	db := c.db

	// ---- IFU ----
	u := UnitIFU
	c.ifu.pc = db.Register(u, latch.Func, "ifu.pc", 64)
	c.ifu.pcPar = db.Register(u, latch.Func, "ifu.pc.par", 1)
	c.ifu.fbIR = db.RegisterArray(u, latch.Func, "ifu.fb.ir", fbEntries, 32)
	c.ifu.fbPC = db.RegisterArray(u, latch.Func, "ifu.fb.pc", fbEntries, 48)
	c.ifu.fbV = db.RegisterArray(u, latch.Func, "ifu.fb.v", fbEntries, 1)
	c.ifu.fbPar = db.RegisterArray(u, latch.Func, "ifu.fb.par", fbEntries, 1)
	c.ifu.fbHead = db.Register(u, latch.Func, "ifu.fb.head", 3)
	c.ifu.fbTail = db.Register(u, latch.Func, "ifu.fb.tail", 3)
	c.ifu.fbCnt = db.Register(u, latch.Func, "ifu.fb.cnt", 4)
	c.ifu.bht = db.RegisterTracked(u, latch.Func, "ifu.bht", bhtEntries, 2, latch.AllBits)
	c.ifu.icFSM = db.Register(u, latch.Func, "ifu.ic.fsm", 4)
	c.ifu.icCnt = db.RegisterCounter(u, latch.Func, "ifu.ic.cnt", 8)
	c.ifu.icAddr = db.Register(u, latch.Func, "ifu.ic.addr", 64)
	db.RegisterIdle(u, latch.Func, "ifu.thr.cnt", 1, 8) // fetch throttle countdown
	db.RegisterIdle(u, latch.Func, "ifu.perf", 4, 64)
	c.ifu.mode = db.RegisterScan(u, latch.Mode, "ifu.mode", 1, 64, latch.AllBits)
	db.RegisterIdle(u, latch.Mode, "ifu.mode.spare", 3, 64)
	c.ifu.gptr = db.RegisterScan(u, latch.GPTR, "ifu.gptr", 2, 64, latch.AllBits)
	c.ifu.icTag = array.New("ifu.ic.tag", icLines)
	c.ifu.icData = array.New("ifu.ic.data", icLines*lineWords)

	// ---- IDU ----
	u = UnitIDU
	c.idu.d1IR = db.Register(u, latch.Func, "idu.d1.ir", 32)
	c.idu.d1PC = db.Register(u, latch.Func, "idu.d1.pc", 48)
	c.idu.d1V = db.Register(u, latch.Func, "idu.d1.v", 1)
	c.idu.d1Par = db.Register(u, latch.Func, "idu.d1.par", 1)
	c.idu.d2IR = db.Register(u, latch.Func, "idu.d2.ir", 32)
	c.idu.d2PC = db.Register(u, latch.Func, "idu.d2.pc", 48)
	c.idu.d2V = db.Register(u, latch.Func, "idu.d2.v", 1)
	c.idu.d2Par = db.Register(u, latch.Func, "idu.d2.par", 1)
	c.idu.d2Pred = db.Register(u, latch.Func, "idu.d2.pred", 1)
	c.idu.d2PNPC = db.Register(u, latch.Func, "idu.d2.pnpc", 48)
	c.idu.cr = db.Register(u, latch.RegFile, "idu.cr", 4)
	c.idu.crPar = db.Register(u, latch.RegFile, "idu.cr.par", 1)
	c.idu.lr = db.Register(u, latch.RegFile, "idu.lr", 64)
	c.idu.lrPar = db.Register(u, latch.RegFile, "idu.lr.par", 1)
	c.idu.ctr = db.Register(u, latch.RegFile, "idu.ctr", 64)
	c.idu.ctrPar = db.Register(u, latch.RegFile, "idu.ctr.par", 1)
	c.idu.dispFSM = db.Register(u, latch.Func, "idu.disp.fsm", 8)
	db.RegisterIdle(u, latch.Mode, "idu.dac.tbl", 64, 16) // decode-assist patch table (scan-loaded, spare)
	db.RegisterIdle(u, latch.Func, "idu.uc.seq", 1, 16)
	db.RegisterIdle(u, latch.Func, "idu.perf", 2, 64)
	c.idu.mode = db.RegisterScan(u, latch.Mode, "idu.mode", 1, 64, latch.AllBits)
	db.RegisterIdle(u, latch.Mode, "idu.mode.spare", 3, 64)
	c.idu.gptr = db.RegisterScan(u, latch.GPTR, "idu.gptr", 2, 64, latch.AllBits)

	// ---- FXU ----
	u = UnitFXU
	c.fxu.gpr = db.RegisterTracked(u, latch.RegFile, "fxu.gpr", 32, 64, latch.AllBits)
	c.fxu.gprPar = db.RegisterArray(u, latch.RegFile, "fxu.gpr.par", 32, 1)
	c.fxu.exIR = db.Register(u, latch.Func, "fxu.ex.ir", 32)
	c.fxu.exIRPar = db.Register(u, latch.Func, "fxu.ex.ir.par", 1)
	c.fxu.exPC = db.Register(u, latch.Func, "fxu.ex.pc", 48)
	c.fxu.exV = db.Register(u, latch.Func, "fxu.ex.v", 1)
	c.fxu.exBusy = db.Register(u, latch.Func, "fxu.ex.busy", 8)
	c.fxu.opA = db.Register(u, latch.Func, "fxu.op.a", 64)
	c.fxu.opAPar = db.Register(u, latch.Func, "fxu.op.a.par", 1)
	c.fxu.opB = db.Register(u, latch.Func, "fxu.op.b", 64)
	c.fxu.opBPar = db.Register(u, latch.Func, "fxu.op.b.par", 1)
	c.fxu.res = db.Register(u, latch.Func, "fxu.res", 64)
	c.fxu.resPar = db.Register(u, latch.Func, "fxu.res.par", 1)
	c.fxu.resRsd = db.Register(u, latch.Func, "fxu.res.rsd", 2)
	c.fxu.divFSM = db.Register(u, latch.Func, "fxu.div.fsm", 8)
	c.fxu.divCnt = db.Register(u, latch.Func, "fxu.div.cnt", 8)
	db.RegisterIdle(u, latch.Func, "fxu.ex.pred", 1, 1) // branch predicted-taken bit riding with the EX slot
	c.fxu.exPNPC = db.Register(u, latch.Func, "fxu.ex.pnpc", 48)
	c.fxu.wbIR = db.Register(u, latch.Func, "fxu.wb.ir", 32)
	c.fxu.wbIRPar = db.Register(u, latch.Func, "fxu.wb.ir.par", 1)
	c.fxu.wbV = db.Register(u, latch.Func, "fxu.wb.v", 1)
	c.fxu.wbRes = db.Register(u, latch.Func, "fxu.wb.res", 64)
	c.fxu.wbPar = db.Register(u, latch.Func, "fxu.wb.par", 1)
	c.fxu.wbFRes = db.Register(u, latch.Func, "fxu.wb.fres", 64)
	c.fxu.wbFPar = db.Register(u, latch.Func, "fxu.wb.fpar", 1)
	c.fxu.wbNPC = db.Register(u, latch.Func, "fxu.wb.npc", 48)
	db.RegisterIdle(u, latch.Func, "fxu.perf", 2, 64)
	c.fxu.mode = db.RegisterScan(u, latch.Mode, "fxu.mode", 1, 64, latch.AllBits)
	db.RegisterIdle(u, latch.Mode, "fxu.mode.spare", 2, 64)
	c.fxu.gptr = db.RegisterScan(u, latch.GPTR, "fxu.gptr", 2, 64, latch.AllBits)

	// ---- FPU ----
	u = UnitFPU
	c.fpu.fpr = db.RegisterTracked(u, latch.RegFile, "fpu.fpr", 32, 64, latch.AllBits)
	c.fpu.fprPar = db.RegisterArray(u, latch.RegFile, "fpu.fpr.par", 32, 1)
	c.fpu.p1a = db.Register(u, latch.Func, "fpu.p1a", 64)
	c.fpu.p1b = db.Register(u, latch.Func, "fpu.p1b", 64)
	c.fpu.p2 = db.Register(u, latch.Func, "fpu.p2", 64)
	c.fpu.p3 = db.Register(u, latch.Func, "fpu.p3", 64)
	c.fpu.p4 = db.Register(u, latch.Func, "fpu.p4", 64)
	c.fpu.pPar = db.Register(u, latch.Func, "fpu.p.par", 4)
	c.fpu.fsm = db.Register(u, latch.Func, "fpu.fsm", 8)
	db.RegisterIdle(u, latch.Func, "fpu.perf", 2, 64) // no FPU event is counted
	c.fpu.mode = db.RegisterScan(u, latch.Mode, "fpu.mode", 1, 64, latch.AllBits)
	db.RegisterIdle(u, latch.Mode, "fpu.mode.spare", 1, 64)
	c.fpu.gptr = db.RegisterScan(u, latch.GPTR, "fpu.gptr", 1, 64, latch.AllBits)

	// ---- LSU ----
	u = UnitLSU
	c.lsu.stqAddr = db.RegisterTracked(u, latch.Func, "lsu.stq.addr", stqEntries, 64, latch.AllBits)
	c.lsu.stqData = db.RegisterTracked(u, latch.Func, "lsu.stq.data", stqEntries, 64, latch.AllBits)
	c.lsu.stqCtl = db.RegisterArray(u, latch.Func, "lsu.stq.ctl", stqEntries, 8)
	c.lsu.stqParA = db.RegisterArray(u, latch.Func, "lsu.stq.par.a", stqEntries, 1)
	c.lsu.stqParD = db.RegisterArray(u, latch.Func, "lsu.stq.par.d", stqEntries, 1)
	c.lsu.stqHead = db.Register(u, latch.Func, "lsu.stq.head", 5)
	c.lsu.stqTail = db.Register(u, latch.Func, "lsu.stq.tail", 5)
	c.lsu.eratVPN = db.RegisterTracked(u, latch.Func, "lsu.erat.vpn", eratSize, 28, latch.AllBits)
	c.lsu.eratPPN = db.RegisterTracked(u, latch.Func, "lsu.erat.ppn", eratSize, 28, latch.AllBits)
	c.lsu.eratCtl = db.RegisterTracked(u, latch.Func, "lsu.erat.ctl", eratSize, 4, eratValid)
	c.lsu.eratPar = db.RegisterArray(u, latch.Func, "lsu.erat.par", eratSize, 1)
	c.lsu.eratPtr = db.Register(u, latch.Func, "lsu.erat.ptr", 6)
	db.RegisterIdle(u, latch.Func, "lsu.lmq.addr", lmqEntries, 64) // load miss queue
	db.RegisterIdle(u, latch.Func, "lsu.lmq.ctl", lmqEntries, 8)   // load miss queue control
	c.lsu.dcFSM = db.Register(u, latch.Func, "lsu.dc.fsm", 4)
	c.lsu.dcCnt = db.RegisterCounter(u, latch.Func, "lsu.dc.cnt", 8)
	c.lsu.dcAddr = db.Register(u, latch.Func, "lsu.dc.addr", 64)
	c.lsu.ea = db.Register(u, latch.Func, "lsu.ea", 64)
	c.lsu.eaPar = db.Register(u, latch.Func, "lsu.ea.par", 1)
	c.lsu.ldRes = db.Register(u, latch.Func, "lsu.ld.res", 64)
	c.lsu.ldPar = db.Register(u, latch.Func, "lsu.ld.par", 1)
	db.RegisterIdle(u, latch.Func, "lsu.pf", 4, 64) // prefetch stream registers
	db.RegisterIdle(u, latch.Func, "lsu.perf", 3, 64)
	c.lsu.mode = db.RegisterScan(u, latch.Mode, "lsu.mode", 1, 64, latch.AllBits)
	db.RegisterIdle(u, latch.Mode, "lsu.mode.spare", 3, 64)
	c.lsu.gptr = db.RegisterScan(u, latch.GPTR, "lsu.gptr", 2, 64, latch.AllBits)
	c.lsu.dcTag = array.New("lsu.dc.tag", dcLines)
	c.lsu.dcData = array.New("lsu.dc.data", dcLines*lineWords)

	// ---- RUT ----
	u = UnitRUT
	c.rut.fsm = db.Register(u, latch.Func, "rut.fsm", 8)
	c.rut.retryCnt = db.Register(u, latch.Func, "rut.retry.cnt", 4)
	c.rut.waitCnt = db.RegisterCounter(u, latch.Func, "rut.wait.cnt", 8)
	c.rut.errSrc = db.Register(u, latch.Func, "rut.err.src", 8)
	c.rut.errCycle = db.Register(u, latch.Func, "rut.err.cycle", 64)
	c.rut.progress = db.Register(u, latch.Func, "rut.progress", 8)
	c.rut.capPar = db.Register(u, latch.Func, "rut.cap.par", 1)
	db.RegisterIdle(u, latch.Func, "rut.hist", 16, 64) // error-capture history buffer
	c.rut.mode = db.RegisterScan(u, latch.Mode, "rut.mode", 1, 64, latch.AllBits)
	c.rut.gptr = db.RegisterScan(u, latch.GPTR, "rut.gptr", 1, 32, latch.AllBits)
	c.rut.ckptGPR = array.New("rut.ckpt.gpr", 32)
	c.rut.ckptFPR = array.New("rut.ckpt.fpr", 32)
	c.rut.ckptSPR = array.New("rut.ckpt.spr", 4)

	// ---- PRV (Core pervasive) ----
	u = UnitPRV
	c.prv.fir = db.RegisterArray(u, latch.Func, "prv.fir", 1, 64)
	c.prv.firPar = db.RegisterArray(u, latch.Func, "prv.fir.par", 1, 1)
	c.prv.checkstop = db.Register(u, latch.Func, "prv.checkstop", 1)
	c.prv.coreHung = db.Register(u, latch.Func, "prv.core.hung", 1)
	c.prv.hangCnt = db.RegisterCounter(u, latch.Func, "prv.hang.cnt", 16)
	c.prv.hangArm = db.Register(u, latch.Func, "prv.hang.arm", 1)
	c.prv.modeClock = db.RegisterScan(u, latch.Mode, "prv.mode.clock", 1, 8, latch.AllBits)
	c.prv.modeChecker = db.RegisterScan(u, latch.Mode, "prv.mode.checker", 1, 64, 1<<numCheckers-1)
	c.prv.modeRecovery = db.RegisterScan(u, latch.Mode, "prv.mode.recovery", 1, 8, recoveryEnable)
	c.prv.modeHangLim = db.RegisterScan(u, latch.Mode, "prv.mode.hanglim", 1, 16, latch.AllBits)
	c.prv.ringPar = db.RegisterScanArray(u, latch.Func, "prv.ring.par", 16, 1)
	c.prv.scanCtl = db.RegisterScan(u, latch.Func, "prv.scan.ctl", 1, 64, latch.AllBits)
	c.prv.scanPar = db.RegisterScan(u, latch.Func, "prv.scan.par", 1, 1, latch.AllBits)
	db.RegisterIdle(u, latch.Func, "prv.abist", 2, 64)
	db.RegisterIdle(u, latch.Func, "prv.trace", traceDepth, 64) // debug trace array of completion PCs
	db.RegisterIdle(u, latch.Func, "prv.trace.ptr", 1, 6)       // and its cursor over the 64 entries
	db.RegisterIdle(u, latch.Func, "prv.thermal", 4, 64)
	db.RegisterIdle(u, latch.Func, "prv.perf", 8, 64)
	c.prv.mode2 = db.RegisterScan(u, latch.Mode, "prv.mode.spare", 6, 64, latch.AllBits)
	c.prv.gptr = db.RegisterScan(u, latch.GPTR, "prv.gptr", 8, 64, latch.AllBits)
	c.prv.scrubPtr = db.RegisterCounter(u, latch.Func, "prv.scrub.ptr", 16)
}

// buildColdInventory registers the structures that are architecturally
// present but idle in this configuration: the second SMT thread's state
// (the AVP runs single-threaded, as the paper's beam-calibration runs
// effectively did), the second fixed-point pipe, deep front-end buffers and
// out-of-order-assist structures unused by the in-order flow. These latches
// hold no live data, so flips in them vanish — they are the bulk of the
// architecture-level derating the paper measures. They are registered with
// RegisterIdle, which hands back no handle: the model cannot read them.
func (c *Core) buildColdInventory() {
	db := c.db

	u := UnitIFU
	db.RegisterIdle(u, latch.Func, "ifu.ibuf.ir", 32, 34) // deep instr buffer
	db.RegisterIdle(u, latch.Func, "ifu.ibuf.pc", 32, 48)
	db.RegisterIdle(u, latch.Func, "ifu.t1.fb.ir", fbEntries, 34) // thread-1 fetch buffer
	db.RegisterIdle(u, latch.Func, "ifu.t1.fb.pc", fbEntries, 48)
	db.RegisterIdle(u, latch.Func, "ifu.t1.pc", 1, 64)
	db.RegisterIdle(u, latch.Func, "ifu.bht2", 2048, 2) // second BHT bank
	db.RegisterIdle(u, latch.Func, "ifu.btac", 32, 60)  // branch target cache

	u = UnitIDU
	db.RegisterIdle(u, latch.Func, "idu.iq.ir", 16, 34) // issue queue
	db.RegisterIdle(u, latch.Func, "idu.iq.pc", 16, 48)
	db.RegisterIdle(u, latch.Func, "idu.ucode.seq", 32, 64) // microcode sequencer state
	db.RegisterIdle(u, latch.Func, "idu.gct", 16, 64)       // group completion table
	db.RegisterIdle(u, latch.Func, "idu.crk", 16, 64)       // instruction-crack buffers
	db.RegisterIdle(u, latch.Func, "idu.t1.d1", 1, 64)
	db.RegisterIdle(u, latch.Func, "idu.t1.d1x", 1, 18)
	db.RegisterIdle(u, latch.Func, "idu.t1.d2", 1, 64)
	db.RegisterIdle(u, latch.Func, "idu.t1.d2x", 1, 18)
	db.RegisterIdle(u, latch.RegFile, "idu.t1.spr", 3, 64) // thread-1 CR/LR/CTR

	u = UnitFXU
	db.RegisterIdle(u, latch.RegFile, "fxu.t1.gpr", 32, 64) // thread-1 GPRs
	db.RegisterIdle(u, latch.RegFile, "fxu.t1.gpr.par", 32, 1)
	db.RegisterIdle(u, latch.Func, "fxu.fx1", 16, 64)  // second FX pipe latches
	db.RegisterIdle(u, latch.Func, "fxu.hist", 32, 64) // result history buffer
	db.RegisterIdle(u, latch.Func, "fxu.rsv", 48, 64)  // issue staging / reservation

	u = UnitFPU
	db.RegisterIdle(u, latch.RegFile, "fpu.t1.fpr", 32, 64) // thread-1 FPRs
	db.RegisterIdle(u, latch.RegFile, "fpu.t1.fpr.par", 32, 1)
	// VMX vector register file (two threads), idle: the AVP issues no
	// vector instructions.
	db.RegisterIdle(u, latch.RegFile, "fpu.vmx.vr.lo", 32, 64)
	db.RegisterIdle(u, latch.RegFile, "fpu.vmx.vr.hi", 32, 64)
	db.RegisterIdle(u, latch.Func, "fpu.pipe2", 10, 64) // second FP pipe latches

	u = UnitLSU
	db.RegisterIdle(u, latch.Func, "lsu.lrq.addr", 24, 64) // load reorder queue
	db.RegisterIdle(u, latch.Func, "lsu.lrq.data", 24, 64)
	db.RegisterIdle(u, latch.Func, "lsu.lrq.ctl", 24, 10)
	db.RegisterIdle(u, latch.Func, "lsu.t1.stq.addr", stqEntries, 64)
	db.RegisterIdle(u, latch.Func, "lsu.t1.stq.data", stqEntries, 64)
	db.RegisterIdle(u, latch.Func, "lsu.t1.stq.ctl", stqEntries, 10)
	db.RegisterIdle(u, latch.Func, "lsu.slb", 64, 40)   // segment lookasides
	db.RegisterIdle(u, latch.Func, "lsu.pftab", 32, 64) // prefetch pattern tables
	db.RegisterIdle(u, latch.Func, "lsu.dcdir", 128, 8) // directory state shadows

	u = UnitRUT
	db.RegisterIdle(u, latch.Func, "rut.esc", 8, 64) // error-escalation staging

	u = UnitPRV
	db.RegisterIdle(u, latch.Func, "prv.dbgbus", 16, 64) // debug bus staging
	db.RegisterIdle(u, latch.Func, "prv.pmctrl", 8, 64)  // power-management state
}

// unitRings returns each unit's (mode ring segment 0, gptr segment 0)
// handles in Units order, for the pervasive ring-integrity checker. The
// NEST's rings are appended when the periphery is enabled.
func (c *Core) unitRings() [][2]latch.Scan {
	rings := [][2]latch.Scan{
		{c.ifu.mode, c.ifu.gptr},
		{c.idu.mode, c.idu.gptr},
		{c.fxu.mode, c.fxu.gptr},
		{c.fpu.mode, c.fpu.gptr},
		{c.lsu.mode, c.lsu.gptr},
		{c.rut.mode, c.rut.gptr},
		{c.prv.mode2, c.prv.gptr},
	}
	if c.cfg.EnableNest {
		rings = append(rings, [2]latch.Scan{c.nest.mode, c.nest.gptr})
	}
	return rings
}

// initScanRings loads the scan-only latches with their functional-mode
// values, as the scan chains would at power-on. Every write goes through
// DB.LoadScan, the one way into a scan-only latch.
func (c *Core) initScanRings() {
	db := c.db
	for i, r := range c.rings {
		mode := uint64(modeIntegrityInit)<<modeIntegrityLo | uint64(modeCriticalInit)<<modeCriticalLo
		db.LoadScan(r[0], mode)
		db.LoadScan(r[1], 0) // GPTR rings idle
		// Stored ring parity for the integrity segments.
		db.LoadScan(c.prv.ringPar.Entry(2*i), parity64(r[0].Get()&0xffff))
		db.LoadScan(c.prv.ringPar.Entry(2*i+1), parity64(r[1].Get()>>gptrIntegrityLo&0xff))
	}
	db.LoadScan(c.prv.modeClock, 0xff)
	db.LoadScan(c.prv.modeChecker, ^uint64(0))
	db.LoadScan(c.prv.modeRecovery, 1)
	db.LoadScan(c.prv.modeHangLim, uint64(c.cfg.HangLimit))
	db.LoadScan(c.prv.scanCtl, 0x1122334455667788)
	db.LoadScan(c.prv.scanPar, parity64(c.prv.scanCtl.Get()))
	// FIR parity latches for all-zero FIRs.
	for i := 0; i < c.prv.fir.Len(); i++ {
		c.prv.firPar.Entry(i).Set(0)
	}
}

// resetArrays restores all protected arrays to a clean zero state.
func (c *Core) resetArrays() {
	for _, p := range c.Arrays() {
		for e := 0; e < p.Entries(); e++ {
			p.Write(e, 0)
		}
		p.ResetCounters()
	}
}

// Arrays returns every protected SRAM array in the core (the beam model's
// array strike population); the L2 arrays are included when the periphery
// is enabled.
func (c *Core) Arrays() []*array.Protected {
	out := []*array.Protected{
		c.ifu.icTag, c.ifu.icData,
		c.lsu.dcTag, c.lsu.dcData,
		c.rut.ckptGPR, c.rut.ckptFPR, c.rut.ckptSPR,
	}
	if c.cfg.EnableNest {
		out = append(out, c.nest.l2Tag, c.nest.l2Data)
	}
	return out
}
