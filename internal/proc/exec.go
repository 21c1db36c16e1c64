package proc

import (
	"math"

	"sfi/internal/bits"
	"sfi/internal/isa"
)

// fpPipeOps reports whether an opcode flows through the FPU pipeline.
func fpPipeOp(op isa.Opcode) bool {
	switch op {
	case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFMR, isa.OpFCMP:
		return true
	}
	return false
}

// exCycle advances the execute stage: miss FSMs, per-cycle execution
// actions keyed by the remaining-busy count, result finalization and the
// move to writeback.
//
// Busy schedule for an op of latency L (set at issue):
//
//	busy == L   first action (branch verify, load agen, store agen+STQ)
//	busy == 2   finalize (compute and latch the result + its check bits)
//	busy == 1   checked move into the WB slot
//
// For L == 2 the first action and finalize share a cycle. Stalls (cache and
// ERAT misses, frozen units, occupied WB) simply leave busy unchanged.
func (c *Core) exCycle() {
	fxu := &c.fxu

	// D-cache / ERAT miss FSM (LSU clock domain; refills also need the
	// memory subsystem to be alive).
	if c.unitOK(uLSU) && c.lsu.dcFSM.Get() != dcIdle &&
		(c.lsu.dcFSM.Get() != dcRefill || c.nestServicing()) {
		if !c.lsu.dcCnt.Down() {
			switch c.lsu.dcFSM.Get() {
			case dcRefill:
				c.dcRefill(c.lsu.dcAddr.Get())
				c.nestRetireRQ()
				c.lsu.dcFSM.Set(dcIdle)
			case dcERATReload:
				c.eratReloadDone(c.lsu.dcAddr.Get())
				c.lsu.dcFSM.Set(dcIdle)
			default:
				// A corrupted FSM state completes nothing: the pending
				// miss never resolves (a hang mechanism).
			}
		}
	}

	if fxu.exV.Get() == 0 {
		return
	}
	in := isa.Decode(uint32(fxu.exIR.Get()))
	if !c.unitOK(execUnit(in.Op)) {
		return // frozen unit: instruction stuck, watchdog will notice
	}

	busy := fxu.exBusy.Get()
	lat := execLatency(in.Op)

	switch {
	case busy <= 1:
		// Checked move to WB.
		if fxu.wbV.Get() != 0 {
			return // WB occupied (retire stalled)
		}
		if c.moveToWB(in) {
			fxu.exV.Set(0)
			fxu.exBusy.Set(0)
		}
	case busy == lat:
		ok := c.exFirst(in)
		if ok && busy == 2 {
			ok = c.exFinalize(in)
		}
		if ok {
			fxu.exBusy.Set(busy - 1)
		}
	case busy == 2:
		if c.exFinalize(in) {
			fxu.exBusy.Set(1)
		}
	default:
		c.exMiddle(in, busy)
		fxu.exBusy.Set(busy - 1)
	}
}

// exFirst performs the first-cycle action. It returns false to stall.
func (c *Core) exFirst(in isa.Inst) bool {
	fxu := &c.fxu
	switch {
	case isa.ClassOf(in.Op) == isa.ClassBranch:
		c.verifyBranch(in)
		return true
	case isa.ClassOf(in.Op) == isa.ClassLoad:
		return c.agenTranslate(in)
	case isa.ClassOf(in.Op) == isa.ClassStore:
		if !c.agenTranslate(in) {
			return false
		}
		c.stqInsert(in)
		return true
	case in.Op == isa.OpDIVD:
		fxu.divFSM.Set(1)
		fxu.divCnt.Set(execLatency(in.Op) - 2)
		return true
	}
	return true
}

// exMiddle runs the interior cycles of multi-cycle ops.
func (c *Core) exMiddle(in isa.Inst, busy uint64) {
	switch {
	case in.Op == isa.OpDIVD:
		if n := c.fxu.divCnt.Get(); n > 0 {
			c.fxu.divCnt.Set(n - 1)
		}
	case fpPipeOp(in.Op):
		c.fpuStage(busy)
	}
}

// fpuStage advances the FPU pipeline latches: operands march down the pipe
// with staged parity. FP latency is 5, so busy==4 and busy==3 are the two
// interior cycles.
func (c *Core) fpuStage(busy uint64) {
	fpu := &c.fpu
	pol := c.polarity(uFPU, 1)
	switch busy {
	case 4:
		if parity64(fpu.p1a.Get())^pol != b2u(fpu.pPar.GetBit(0)) {
			c.fail(ChkFPUPipePar)
		}
		fpu.p2.Set(fpu.p1a.Get())
		fpu.pPar.SetBit(2, parity64(fpu.p2.Get())^pol != 0)
		fpu.fsm.Set(4)
	case 3:
		if parity64(fpu.p1b.Get())^pol != b2u(fpu.pPar.GetBit(1)) {
			c.fail(ChkFPUPipePar)
		}
		fpu.p3.Set(fpu.p1b.Get())
		fpu.pPar.SetBit(3, parity64(fpu.p3.Get())^pol != 0)
		fpu.fsm.Set(8)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// agenTranslate computes the effective address and translates it through
// the ERAT, latching the physical address into the EA latch. It returns
// false to stall (reload in flight or a squashing checker fire).
func (c *Core) agenTranslate(in isa.Inst) bool {
	fxu, lsu := &c.fxu, &c.lsu
	if parity64(fxu.opA.Get())^c.polarity(uFXU, 1) != fxu.opAPar.Get() {
		if c.fail(ChkFXUOpPar) {
			return false
		}
	}
	ea := fxu.opA.Get() + uint64(int64(in.Imm))
	pa, ok := c.eratLookup(ea)
	if !ok {
		if lsu.dcFSM.Get() == dcIdle {
			lsu.dcFSM.Set(dcERATReload)
			lsu.dcCnt.Load(uint64(c.cfg.ERATPenalty))
			lsu.dcAddr.Set(ea)
		}
		return false
	}
	lsu.ea.Set(pa)
	lsu.eaPar.Set(parity64(pa) ^ c.polarity(uLSU, 2))
	return true
}

// stqInsert enqueues the store riding in the EX slot.
func (c *Core) stqInsert(in isa.Inst) {
	lsu := &c.lsu
	pol := c.polarity(uLSU, 1)
	t := int(lsu.stqTail.Get()) % stqEntries
	pa := lsu.ea.Get()
	data := c.fxu.opB.Get()
	ctl := uint64(1 | 2) // valid + duplicate-valid
	if in.Op == isa.OpSTW {
		ctl |= 4
	}
	lsu.stqAddr.Set(t, pa)
	lsu.stqData.Set(t, data)
	lsu.stqCtl.Entry(t).Set(ctl)
	lsu.stqParA.Entry(t).Set(parity64(pa) ^ pol)
	lsu.stqParD.Entry(t).Set(parity64(data) ^ pol)
	lsu.stqTail.Set(uint64(t+1) % stqEntries)
}

// exFinalize computes the result and its check bits. Returns false to
// stall (cache miss, squashing checker).
func (c *Core) exFinalize(in isa.Inst) bool {
	fxu := &c.fxu
	pol := c.polarity(uFXU, 1)

	// Loads: data-cache access cycle.
	if isa.ClassOf(in.Op) == isa.ClassLoad {
		lsu := &c.lsu
		if parity64(lsu.ea.Get())^c.polarity(uLSU, 2) != lsu.eaPar.Get() {
			if c.fail(ChkLSUAgenPar) {
				return false
			}
		}
		pa := lsu.ea.Get()
		dw, ok := c.dcLookup(pa)
		if !ok {
			if lsu.dcFSM.Get() == dcIdle {
				lsu.dcFSM.Set(dcRefill)
				lsu.dcCnt.Load(c.nestMissLatency(pa, false))
				lsu.dcAddr.Set(pa)
			}
			return false
		}
		v := dw
		if in.Op == isa.OpLW {
			if pa&4 != 0 {
				v = dw >> 32
			}
			v &= 0xffffffff
		}
		lsu.ldRes.Set(v)
		lsu.ldPar.Set(parity64(v) ^ c.polarity(uLSU, 2))
		return true
	}

	// Stores have no result to finalize.
	if isa.ClassOf(in.Op) == isa.ClassStore {
		return true
	}

	// FPU pipeline ops: consume p2/p3, produce p4.
	if fpPipeOp(in.Op) {
		fpu := &c.fpu
		polFP := c.polarity(uFPU, 1)
		if parity64(fpu.p2.Get())^polFP != b2u(fpu.pPar.GetBit(2)) ||
			parity64(fpu.p3.Get())^polFP != b2u(fpu.pPar.GetBit(3)) {
			if c.fail(ChkFPUPipePar) {
				return false
			}
		}
		a, b := b2f(fpu.p2.Get()), b2f(fpu.p3.Get())
		var r uint64
		switch in.Op {
		case isa.OpFADD:
			r = f2b(a + b)
		case isa.OpFSUB:
			r = f2b(a - b)
		case isa.OpFMUL:
			r = f2b(a * b)
		case isa.OpFDIV:
			r = f2b(a / b)
		case isa.OpFMR:
			r = fpu.p3.Get()
		case isa.OpFCMP:
			r = uint64(fcmpBits(a, b))
		}
		fpu.p4.Set(r)
		fpu.fsm.Set(16)
		if in.Op == isa.OpFCMP {
			fxu.res.Set(r)
			fxu.resPar.Set(parity64(r) ^ pol)
			fxu.resRsd.Set(uint64(bits.Residue3(r)))
		}
		return true
	}

	// Fixed-point / SPR / branch results from the operand latches.
	if parity64(fxu.opA.Get())^pol != fxu.opAPar.Get() ||
		parity64(fxu.opB.Get())^pol != fxu.opBPar.Get() {
		if c.fail(ChkFXUOpPar) {
			return false
		}
	}
	a, b := fxu.opA.Get(), fxu.opB.Get()
	var v uint64
	switch in.Op {
	case isa.OpADDI, isa.OpADDIS, isa.OpADD:
		v = a + b
	case isa.OpSUB:
		v = a - b
	case isa.OpANDI, isa.OpAND:
		v = a & b
	case isa.OpORI, isa.OpOR:
		v = a | b
	case isa.OpXORI, isa.OpXOR:
		v = a ^ b
	case isa.OpSLD:
		v = a << (b & 63)
	case isa.OpSRD:
		v = a >> (b & 63)
	case isa.OpMUL:
		v = a * b
	case isa.OpDIVD:
		v = divd(a, b)
		c.fxu.divFSM.Set(0)
	case isa.OpCMP, isa.OpCMPI:
		v = uint64(cmpBitsSigned(int64(a), int64(b)))
	case isa.OpCMPL:
		v = uint64(cmpBitsUnsigned(a, b))
	case isa.OpBL:
		v = (c.fxu.exPC.Get() + 4) & (1<<48 - 1)
	case isa.OpBDNZ:
		v = a - 1
	case isa.OpMTCTR, isa.OpMTLR, isa.OpMFLR, isa.OpMFCTR:
		v = a
	case isa.OpB, isa.OpBC, isa.OpBLR, isa.OpNOP, isa.OpTESTEND, isa.OpHALT:
		// no result
	default:
		// Undefined opcode reaching execute: precise illegal-op error.
		if !in.Op.Valid() {
			if c.fail(ChkIDUIllegal) {
				return false
			}
			// Checker masked: the corrupt word executes as a nop.
		}
	}
	fxu.res.Set(v)
	fxu.resPar.Set(parity64(v) ^ pol)
	fxu.resRsd.Set(uint64(bits.Residue3(v)))
	return true
}

// verifyBranch resolves a branch in its first EX cycle, repairing a
// misprediction by flushing the frontend; exPNPC is updated to the actual
// next fetch address for the completion checkpoint.
func (c *Core) verifyBranch(in isa.Inst) {
	fxu := &c.fxu
	pc := fxu.exPC.Get()
	seq := (pc + 4) & (1<<48 - 1)
	actual := seq
	taken := false
	switch in.Op {
	case isa.OpB, isa.OpBL:
		taken = true
		actual = (pc + uint64(int64(in.Imm)*4)) & (1<<48 - 1)
	case isa.OpBC:
		taken = crBitSet(uint8(fxu.opA.Get()), in.BI) == (in.BO&1 == 1)
		if taken {
			actual = (pc + uint64(int64(in.Imm)*4)) & (1<<48 - 1)
		}
		// Train the branch history table.
		i := bhtIndex(pc)
		n := c.ifu.bht.Get(i)
		if taken && n < 3 {
			c.ifu.bht.Set(i, n+1)
		} else if !taken && n > 0 {
			c.ifu.bht.Set(i, n-1)
		}
	case isa.OpBDNZ:
		taken = fxu.opA.Get()-1 != 0
		if taken {
			actual = (pc + uint64(int64(in.Imm)*4)) & (1<<48 - 1)
		}
	case isa.OpBLR:
		taken = true
		actual = fxu.opA.Get() & (1<<48 - 1)
	}
	_ = taken
	if actual != fxu.exPNPC.Get() {
		c.flushFrontend(actual)
		fxu.exPNPC.Set(actual)
	}
}

// moveToWB transfers the finished instruction from EX to the WB slot with
// its result, checking the EX-side integrity latches. Returns false when a
// posted checker squashes the move (recovery is imminent).
func (c *Core) moveToWB(in isa.Inst) bool {
	fxu := &c.fxu
	pol := c.polarity(uFXU, 1)

	if parity64(fxu.exIR.Get()) != fxu.exIRPar.Get() {
		if c.fail(ChkFXUOpPar) {
			return false
		}
	}

	var res uint64
	_, wrG, _, _, _, wrS := isa.RegSets(in)
	switch {
	case isa.ClassOf(in.Op) == isa.ClassLoad:
		lsu := &c.lsu
		if parity64(lsu.ldRes.Get())^c.polarity(uLSU, 2) != lsu.ldPar.Get() {
			if c.fail(ChkLSULdPar) {
				return false
			}
		}
		res = lsu.ldRes.Get()
	case wrG != 0 || wrS != 0:
		// Result rode in the FX result latch; the residue checker guards
		// its live window.
		if uint64(bits.Residue3(fxu.res.Get())) != fxu.resRsd.Get() {
			if c.fail(ChkFXUResidue) {
				return false
			}
		}
		if parity64(fxu.res.Get())^pol != fxu.resPar.Get() {
			if c.fail(ChkFXUResPar) {
				return false
			}
		}
		res = fxu.res.Get()
	}

	switch {
	case fpPipeOp(in.Op) && in.Op != isa.OpFCMP:
		// FP result from the end of the FPU pipe.
		fxu.wbFRes.Set(c.fpu.p4.Get())
		fxu.wbFPar.Set(parity64(c.fpu.p4.Get()) ^ pol)
		c.fpu.fsm.Set(1)
	case in.Op == isa.OpFCMP:
		c.fpu.fsm.Set(1) // fcmp leaves the pipe; its result rides in res
	case in.Op == isa.OpLFD:
		fxu.wbFRes.Set(res)
		fxu.wbFPar.Set(parity64(res) ^ pol)
	}

	fxu.wbIR.Set(fxu.exIR.Get())
	fxu.wbIRPar.Set(parity64(fxu.exIR.Get()))
	fxu.wbRes.Set(res)
	fxu.wbPar.Set(parity64(res) ^ pol)
	if isa.ClassOf(in.Op) == isa.ClassBranch {
		fxu.wbNPC.Set(fxu.exPNPC.Get())
	} else {
		fxu.wbNPC.Set((fxu.exPC.Get() + 4) & (1<<48 - 1))
	}
	fxu.wbV.Set(1)
	return true
}

// wbCycle retires the WB occupant: architected register writes, store
// drain, checkpoint update, completion bookkeeping.
func (c *Core) wbCycle() Event {
	var ev Event
	fxu := &c.fxu
	if fxu.wbV.Get() == 0 {
		return ev
	}
	if !c.unitOK(uFXU) || !c.unitOK(uIDU) {
		return ev // retire logic frozen
	}
	pol := c.polarity(uFXU, 1)

	if parity64(fxu.wbIR.Get()) != fxu.wbIRPar.Get() {
		if c.fail(ChkFXUWBPar) {
			return ev
		}
	}
	in := isa.Decode(uint32(fxu.wbIR.Get()))
	_, wrG, _, wrF, _, wrS := isa.RegSets(in)

	// Stores: drain the store queue head through its checkers.
	if isa.ClassOf(in.Op) == isa.ClassStore {
		if !c.stqDrain() {
			return ev
		}
	}

	res := fxu.wbRes.Get()
	if wrG != 0 || wrS != 0 {
		if parity64(res)^pol != fxu.wbPar.Get() {
			if c.fail(ChkFXUWBPar) {
				return ev
			}
		}
	}

	// Architected register writes + checkpoint.
	if wrG != 0 {
		polG := c.polarity(uFXU, 0)
		fxu.gpr.Set(int(in.RT), res)
		fxu.gprPar.Entry(int(in.RT)).Set(parity64(res) ^ polG)
		c.rut.ckptGPR.Write(int(in.RT), res)
	}
	if wrF != 0 {
		fres := fxu.wbFRes.Get()
		if parity64(fres)^pol != fxu.wbFPar.Get() {
			if c.fail(ChkFXUWBPar) {
				return ev
			}
		}
		polF := c.polarity(uFPU, 0)
		c.fpu.fpr.Set(int(in.RT), fres)
		c.fpu.fprPar.Entry(int(in.RT)).Set(parity64(fres) ^ polF)
		c.rut.ckptFPR.Write(int(in.RT), fres)
	}
	polS := c.polarity(uIDU, 1)
	if wrS&1 != 0 {
		c.idu.cr.Set(res & 15)
		c.idu.crPar.Set(parity64(res&15) ^ polS)
		c.rut.ckptSPR.Write(0, res&15)
	}
	if wrS&2 != 0 {
		c.idu.lr.Set(res)
		c.idu.lrPar.Set(parity64(res) ^ polS)
		c.rut.ckptSPR.Write(1, res)
	}
	if wrS&4 != 0 {
		c.idu.ctr.Set(res)
		c.idu.ctrPar.Set(parity64(res) ^ polS)
		c.rut.ckptSPR.Write(2, res)
	}

	// Completion.
	c.rut.ckptSPR.Write(3, fxu.wbNPC.Get())
	c.Completed++
	c.prv.hangCnt.Load(0)
	c.prv.hangArm.Set(0)
	if c.rut.retryCnt.Get() != 0 {
		c.rut.retryCnt.Set(0)
		c.capStale = true
	}
	if p := c.rut.progress.Get(); p < 255 {
		c.rut.progress.Set(p + 1)
		c.capStale = true
	}

	switch in.Op {
	case isa.OpTESTEND:
		ev.TestEnd = true
	case isa.OpHALT:
		ev.Halted = true
		c.halted = true
	}

	fxu.wbV.Set(0)
	return ev
}

// stqDrain retires the store-queue head to memory (and the data cache if
// present). Returns false when a checker squashed the drain.
func (c *Core) stqDrain() bool {
	lsu := &c.lsu
	pol := c.polarity(uLSU, 1)
	h := int(lsu.stqHead.Get()) % stqEntries
	ctl := lsu.stqCtl.Entry(h).Get()
	if ctl&1 != (ctl>>1)&1 {
		if c.fail(ChkLSUSTQVDup) {
			return false
		}
	}
	if ctl&1 == 0 && (ctl>>1)&1 == 0 {
		// Entry lost entirely (double corruption or pointer damage): with
		// the checker on this is caught as a duplicate-valid violation.
		if c.fail(ChkLSUSTQVDup) {
			return false
		}
		// Raw mode: the store silently disappears (an SDC mechanism).
		lsu.stqHead.Set(uint64(h+1) % stqEntries)
		return true
	}
	addr := lsu.stqAddr.Get(h)
	data := lsu.stqData.Get(h)
	if parity64(addr)^pol != lsu.stqParA.Entry(h).Get() ||
		parity64(data)^pol != lsu.stqParD.Entry(h).Get() {
		if c.fail(ChkLSUSTQPar) {
			return false
		}
	}
	if ctl&4 != 0 {
		c.mem.Write32(addr, uint32(data))
	} else {
		c.mem.Write64(addr, data)
	}
	c.dcUpdate(addr, c.mem.Read64(addr))
	c.l2Update(addr, c.mem.Read64(addr))
	lsu.stqCtl.Entry(h).Set(0)
	lsu.stqHead.Set(uint64(h+1) % stqEntries)
	return true
}

func divd(a, b uint64) uint64 {
	sb := int64(b)
	if sb == 0 {
		return 0
	}
	sa := int64(a)
	if sa == math.MinInt64 && sb == -1 {
		return 0
	}
	return uint64(sa / sb)
}

func cmpBitsSigned(a, b int64) uint8 {
	switch {
	case a < b:
		return 1 << isa.CRLT
	case a > b:
		return 1 << isa.CRGT
	default:
		return 1 << isa.CREQ
	}
}

func cmpBitsUnsigned(a, b uint64) uint8 {
	switch {
	case a < b:
		return 1 << isa.CRLT
	case a > b:
		return 1 << isa.CRGT
	default:
		return 1 << isa.CREQ
	}
}

func fcmpBits(a, b float64) uint8 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return 1 << isa.CRSO
	case a < b:
		return 1 << isa.CRLT
	case a > b:
		return 1 << isa.CRGT
	default:
		return 1 << isa.CREQ
	}
}

func crBitSet(cr uint8, bi uint8) bool { return cr&(1<<bi) != 0 }
