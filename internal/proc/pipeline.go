package proc

import (
	mathbits "math/bits"

	"sfi/internal/isa"
	"sfi/internal/latch"
)

// Unit indices into the pervasive clock-enable register, Units order.
const (
	uIFU = iota
	uIDU
	uFXU
	uFPU
	uLSU
	uRUT
	uPRV
	uNEST
)

// dcache/ERAT shared miss FSM states.
const (
	dcIdle       = 0
	dcRefill     = 1
	dcERATReload = 2
)

// unitOK reports whether a unit's clocks are running: the pervasive clock
// enable is set, the MODE critical segment is intact, and no GPTR test
// engage bit is set (see refreshView). A frozen unit stalls everything that
// needs it.
func (c *Core) unitOK(i int) bool { return c.view.unitOK>>uint(i)&1 != 0 }

// execLatency returns the EX occupancy in cycles for an opcode.
func execLatency(op isa.Opcode) uint64 {
	switch op {
	case isa.OpMUL:
		return 5
	case isa.OpDIVD:
		return 17
	case isa.OpLD, isa.OpLW, isa.OpLFD:
		return 3
	case isa.OpSTD, isa.OpSTW, isa.OpSTFD:
		return 2
	case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFMR, isa.OpFCMP:
		return 5
	case isa.OpNOP, isa.OpTESTEND, isa.OpHALT:
		return 1
	default:
		return 2
	}
}

// execUnit returns the clock domain an opcode executes in.
func execUnit(op isa.Opcode) int {
	if fpPipeOp(op) {
		return uFPU
	}
	switch isa.ClassOf(op) {
	case isa.ClassLoad, isa.ClassStore:
		return uLSU
	default:
		return uFXU
	}
}

// ---------------------------------------------------------------------------
// Fetch (IFU)
// ---------------------------------------------------------------------------

// redirectFetch points the fetch engine at target and flushes the fetch
// buffer.
func (c *Core) redirectFetch(target uint64) {
	c.ifu.pc.Set(target)
	c.ifu.pcPar.Set(parity64(target) ^ c.polarity(uIFU, 0))
	for i := 0; i < fbEntries; i++ {
		c.ifu.fbV.Entry(i).Set(0)
	}
	c.ifu.fbHead.Set(0)
	c.ifu.fbTail.Set(0)
	c.ifu.fbCnt.Set(0)
}

// flushFrontend squashes everything younger than EX (mispredict recovery).
func (c *Core) flushFrontend(target uint64) {
	c.redirectFetch(target)
	c.idu.d1V.Set(0)
	c.idu.d2V.Set(0)
}

// fetchCycle moves a fetch-buffer entry into D1 and fetches a new word into
// the buffer.
func (c *Core) fetchCycle() {
	if !c.unitOK(uIFU) {
		return
	}
	ifu := &c.ifu

	// Fetch buffer → D1.
	if c.idu.d1V.Get() == 0 && ifu.fbCnt.Get() > 0 {
		h := int(ifu.fbHead.Get()) % fbEntries
		if ifu.fbV.Entry(h).Get() != 0 {
			ir := ifu.fbIR.Entry(h).Get()
			pc := ifu.fbPC.Entry(h).Get()
			c.idu.d1IR.Set(ir)
			c.idu.d1PC.Set(pc)
			c.idu.d1Par.Set(parity64(ir^pc) ^ c.polarity(uIDU, 0))
			// Carry the fetch-buffer parity check to the consume point.
			want := parity64(ir^pc) ^ c.polarity(uIFU, 1)
			if ifu.fbPar.Entry(h).Get() != want {
				if c.fail(ChkIFUFBPar) {
					return
				}
			}
			c.idu.d1V.Set(1)
			ifu.fbV.Entry(h).Set(0)
		}
		// Advance past the slot whether or not it was valid; a corrupted
		// valid bit silently drops an instruction (a real SDC mechanism).
		ifu.fbHead.Set(uint64(h+1) % fbEntries)
		if n := ifu.fbCnt.Get(); n > 0 {
			ifu.fbCnt.Set(n - 1)
		}
	}

	// I-cache miss FSM (refills need the memory subsystem alive).
	if ifu.icFSM.Get() != 0 {
		if !c.nestServicing() {
			return
		}
		n := ifu.icCnt.Get()
		if n > 0 {
			ifu.icCnt.Set(n - 1)
			return
		}
		c.icRefill(ifu.icAddr.Get())
		c.nestRetireRQ()
		ifu.icFSM.Set(0)
		// Fall through: the fetch below will now hit.
	}

	// Fill the fetch buffer: the front end fetches up to two words per
	// cycle (wider than the one-per-cycle decode), so the buffer runs
	// full in straight-line code.
	for slot := 0; slot < 2; slot++ {
		if ifu.fbCnt.Get() >= fbEntries {
			return
		}
		pc := ifu.pc.Get()
		if parity64(pc)^c.polarity(uIFU, 0) != ifu.pcPar.Get() {
			if c.fail(ChkIFUPCPar) {
				return
			}
		}
		word, ok := c.icLookup(pc)
		if !ok {
			if ifu.icFSM.Get() == 0 {
				ifu.icFSM.Set(1)
				ifu.icCnt.Set(c.nestMissLatency(pc, true))
				ifu.icAddr.Set(pc)
			}
			return
		}
		tl := int(ifu.fbTail.Get()) % fbEntries
		pc48 := pc & (1<<48 - 1)
		ifu.fbIR.Entry(tl).Set(uint64(word))
		ifu.fbPC.Entry(tl).Set(pc48)
		ifu.fbPar.Entry(tl).Set(parity64(uint64(word)^pc48) ^ c.polarity(uIFU, 1))
		ifu.fbV.Entry(tl).Set(1)
		ifu.fbTail.Set(uint64(tl+1) % fbEntries)
		ifu.fbCnt.Set(ifu.fbCnt.Get() + 1)

		npc := pc + 4
		ifu.pc.Set(npc)
		ifu.pcPar.Set(parity64(npc) ^ c.polarity(uIFU, 0))
	}
}

// bhtIndex maps a PC to its branch-history counter.
func bhtIndex(pc uint64) int { return int(pc>>2) & (bhtEntries - 1) }

// ---------------------------------------------------------------------------
// Decode (IDU)
// ---------------------------------------------------------------------------

// d1Cycle decodes D1, performs decode-time branch prediction/redirect and
// moves the instruction to D2.
func (c *Core) d1Cycle() {
	if !c.unitOK(uIDU) {
		return
	}
	idu := &c.idu
	if idu.d1V.Get() == 0 || idu.d2V.Get() != 0 {
		return
	}
	ir := uint32(idu.d1IR.Get())
	pc := idu.d1PC.Get()
	if parity64(uint64(ir)^pc)^c.polarity(uIDU, 0) != idu.d1Par.Get() {
		if c.fail(ChkIDUD1Par) {
			return
		}
	}
	// Note: an undefined opcode is detected here but reported precisely at
	// execute time (run-ahead fetch past a halt must not fault).
	in := isa.Decode(ir)

	pred := uint64(0)
	pnpc := (pc + 4) & (1<<48 - 1)
	switch in.Op {
	case isa.OpB, isa.OpBL:
		pnpc = (pc + uint64(int64(in.Imm)*4)) & (1<<48 - 1)
		pred = 1
		c.redirectFetch(pnpc)
	case isa.OpBC:
		if c.ifu.bht.Get(bhtIndex(pc)) >= 2 {
			pnpc = (pc + uint64(int64(in.Imm)*4)) & (1<<48 - 1)
			pred = 1
			c.redirectFetch(pnpc)
		}
	case isa.OpBDNZ:
		// Loops are statically predicted taken.
		pnpc = (pc + uint64(int64(in.Imm)*4)) & (1<<48 - 1)
		pred = 1
		c.redirectFetch(pnpc)
	}

	idu.d2IR.Set(uint64(ir))
	idu.d2PC.Set(pc)
	idu.d2Par.Set(parity64(uint64(ir)^pc) ^ c.polarity(uIDU, 0))
	idu.d2Pred.Set(pred)
	idu.d2PNPC.Set(pnpc)
	idu.d2V.Set(1)
	idu.d1V.Set(0)
}

// readGPR reads a general purpose register through the parity checker.
func (c *Core) readGPR(r uint8) uint64 {
	v := c.fxu.gpr.Get(int(r))
	if parity64(v)^c.polarity(uFXU, 0) != c.fxu.gprPar.Entry(int(r)).Get() {
		c.fail(ChkFXUGPRPar)
	}
	return v
}

// readFPR reads a floating point register through the parity checker.
func (c *Core) readFPR(r uint8) uint64 {
	v := c.fpu.fpr.Get(int(r))
	if parity64(v)^c.polarity(uFPU, 0) != c.fpu.fprPar.Entry(int(r)).Get() {
		c.fail(ChkFPUFPRPar)
	}
	return v
}

// readSPR reads CR/LR/CTR through the SPR parity checker.
func (c *Core) readSPR(reg, par latch.Reg) uint64 {
	v := reg.Get()
	if parity64(v)^c.polarity(uIDU, 1) != par.Get() {
		c.fail(ChkIDUSPRPar)
	}
	return v
}

// d2Cycle issues the D2 instruction into the EX slot: hazard interlock,
// operand read (with parity checks), operand latching.
func (c *Core) d2Cycle() {
	if !c.unitOK(uIDU) {
		return
	}
	idu := &c.idu
	fxu := &c.fxu
	if idu.d2V.Get() == 0 || fxu.exV.Get() != 0 {
		return
	}

	// Dispatch FSM must be in its single legal state.
	if mathbits.OnesCount64(idu.dispFSM.Get()) != 1 {
		if c.fail(ChkIDUDispFSM) {
			return
		}
	}

	ir := uint32(idu.d2IR.Get())
	pc := idu.d2PC.Get()
	if parity64(uint64(ir)^pc)^c.polarity(uIDU, 0) != idu.d2Par.Get() {
		if c.fail(ChkIDUD2Par) {
			return
		}
	}
	in := isa.Decode(ir)

	// Hazard interlock against the WB occupant (EX is empty, checked
	// above; WB writes its registers at the start of the next cycle).
	if fxu.wbV.Get() != 0 {
		wIn := isa.Decode(uint32(fxu.wbIR.Get()))
		_, wG, _, wF, _, wS := isa.RegSets(wIn)
		rG, _, rF, _, rS, _ := isa.RegSets(in)
		if wG&rG != 0 || wF&rF != 0 || wS&rS != 0 {
			return // stall
		}
	}

	// Operand read and latch.
	var opA, opB uint64
	switch in.Op {
	case isa.OpADDI, isa.OpADDIS, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpCMPI:
		opA = c.readGPR(in.RA)
		opB = uint64(int64(in.Imm))
		if in.Op == isa.OpADDIS {
			opB = uint64(int64(in.Imm) << 16)
		}
		if in.Op == isa.OpANDI || in.Op == isa.OpORI || in.Op == isa.OpXORI {
			opB = in.UImm()
		}
	case isa.OpLD, isa.OpLW, isa.OpLFD:
		opA = c.readGPR(in.RA)
		opB = uint64(int64(in.Imm))
	case isa.OpSTD, isa.OpSTW:
		opA = c.readGPR(in.RA)
		opB = c.readGPR(in.RT)
	case isa.OpSTFD:
		opA = c.readGPR(in.RA)
		opB = c.readFPR(in.RT)
	case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSLD, isa.OpSRD, isa.OpMUL, isa.OpDIVD, isa.OpCMP, isa.OpCMPL:
		opA = c.readGPR(in.RA)
		opB = c.readGPR(in.RB)
	case isa.OpBC:
		opA = c.readSPR(idu.cr, idu.crPar)
	case isa.OpBDNZ:
		opA = c.readSPR(idu.ctr, idu.ctrPar)
	case isa.OpBLR:
		opA = c.readSPR(idu.lr, idu.lrPar)
	case isa.OpMTCTR, isa.OpMTLR:
		opA = c.readGPR(in.RA)
	case isa.OpMFLR:
		opA = c.readSPR(idu.lr, idu.lrPar)
	case isa.OpMFCTR:
		opA = c.readSPR(idu.ctr, idu.ctrPar)
	case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFCMP:
		opA = c.readFPR(in.RA)
		opB = c.readFPR(in.RB)
	case isa.OpFMR:
		opB = c.readFPR(in.RB)
	}

	polOp := c.polarity(uFXU, 1)
	fxu.opA.Set(opA)
	fxu.opAPar.Set(parity64(opA) ^ polOp)
	fxu.opB.Set(opB)
	fxu.opBPar.Set(parity64(opB) ^ polOp)

	// Floating-point pipeline intake.
	if isa.ClassOf(in.Op) == isa.ClassFloat || in.Op == isa.OpFCMP {
		fpu := &c.fpu
		polFP := c.polarity(uFPU, 1)
		fpu.p1a.Set(opA)
		fpu.p1b.Set(opB)
		fpu.pPar.SetBit(0, parity64(opA)^polFP != 0)
		fpu.pPar.SetBit(1, parity64(opB)^polFP != 0)
		fpu.fsm.Set(2)
	}

	fxu.exIR.Set(uint64(ir))
	fxu.exIRPar.Set(parity64(uint64(ir)))
	fxu.exPC.Set(pc)
	fxu.exV.Set(1)
	fxu.exBusy.Set(execLatency(in.Op))
	fxu.exPNPC.Set(idu.d2PNPC.Get())
	idu.d2V.Set(0)
}
