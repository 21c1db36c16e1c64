package proc

import "sfi/internal/bits"

// Recovery FSM states (one-hot; the pervasive one-hot checker escalates any
// corruption of this register to a checkstop — errors inside the recovery
// unit are not retryable).
const (
	rutIdle    = 1 << 0
	rutReset   = 1 << 1
	rutRestore = 1 << 2
	rutWait    = 1 << 3
)

// rutCaptureParity computes the parity over the RUT's error-capture and
// sequencing registers, which live in the un-retryable recovery domain.
func (c *Core) rutCaptureParity() uint64 {
	r := &c.rut
	return parity64(r.errSrc.Get()^r.errCycle.Get()^r.retryCnt.Get()^r.progress.Get()) ^
		r.waitCnt.Parity()
}

// rutBeginRecovery starts a retry: it escalates to checkstop when the RUT
// is disabled (a MODE bit) or the retry threshold is exceeded without
// forward progress, otherwise it flushes the pipeline and begins the
// recovery wait.
func (c *Core) rutBeginRecovery() {
	if c.prv.modeRecovery.Get()&1 == 0 {
		c.checkstop()
		return
	}
	n := c.rut.retryCnt.Get()
	if int(n) >= c.cfg.RetryLimit {
		c.checkstop()
		return
	}
	c.rut.retryCnt.Set(n + 1)
	c.rut.progress.Set(0)
	c.rut.fsm.Set(rutReset)
	c.rut.waitCnt.Load(uint64(c.cfg.RecoveryCycles))
	// The pipeline is quenched immediately so that in-flight corruption
	// cannot re-trigger checkers while the retry sequences.
	c.flushPipeline()
}

// rutCycle advances the recovery sequencer.
func (c *Core) rutCycle() {
	if !c.unitOK(uRUT) {
		return // frozen recovery unit: the retry never completes (hang)
	}
	rut := &c.rut
	c.capStale = true // the wait count
	switch rut.fsm.Get() {
	case rutReset:
		if rut.waitCnt.Down() {
			return
		}
		rut.fsm.Set(rutRestore)
	case rutRestore:
		c.restoreCheckpoint()
		if !c.Checkstopped() {
			rut.fsm.Set(rutWait)
			rut.waitCnt.Load(4)
		}
	case rutWait:
		if rut.waitCnt.Down() {
			return
		}
		rut.fsm.Set(rutIdle)
		c.Recoveries++
		c.prv.hangCnt.Load(0)
	default:
		// Corrupted FSM state: the one-hot checker (prvCycle) checkstops;
		// with it masked the machine sits here forever (hang).
	}
}

// restoreCheckpoint rewrites the architected state from the ECC-protected
// checkpoint arrays. An uncorrectable checkpoint error is fatal.
func (c *Core) restoreCheckpoint() {
	rut := &c.rut
	read := func(p interface {
		Read(int) (uint64, bits.ECCResult)
	}, i int) (uint64, bool) {
		v, res := p.Read(i)
		if res == bits.ECCUncorrectable {
			c.fail(ChkRUTCkptUE)
			return 0, false
		}
		return v, true
	}

	polG := c.polarity(uFXU, 0)
	for i := 0; i < 32; i++ {
		v, ok := read(rut.ckptGPR, i)
		if !ok {
			return
		}
		c.fxu.gpr.Set(i, v)
		c.fxu.gprPar.Entry(i).Set(parity64(v) ^ polG)
	}
	polF := c.polarity(uFPU, 0)
	for i := 0; i < 32; i++ {
		v, ok := read(rut.ckptFPR, i)
		if !ok {
			return
		}
		c.fpu.fpr.Set(i, v)
		c.fpu.fprPar.Entry(i).Set(parity64(v) ^ polF)
	}
	polS := c.polarity(uIDU, 1)
	vals := [4]uint64{}
	for i := 0; i < 4; i++ {
		v, ok := read(rut.ckptSPR, i)
		if !ok {
			return
		}
		vals[i] = v
	}
	c.idu.cr.Set(vals[0] & 15)
	c.idu.crPar.Set(parity64(vals[0]&15) ^ polS)
	c.idu.lr.Set(vals[1])
	c.idu.lrPar.Set(parity64(vals[1]) ^ polS)
	c.idu.ctr.Set(vals[2])
	c.idu.ctrPar.Set(parity64(vals[2]) ^ polS)
	c.redirectFetch(vals[3])
}

// flushPipeline resets every in-flight micro-architectural structure to its
// quiesced state: fetch buffer, decode latches, execute slot, store queue,
// miss FSMs and the ERAT. Scan rings, predictors, performance counters and
// the debug trace are deliberately untouched — recovery does not clean
// those, which is why persistent scan-ring faults escalate.
func (c *Core) flushPipeline() {
	ifu, idu, fxu, fpu, lsu := &c.ifu, &c.idu, &c.fxu, &c.fpu, &c.lsu

	for i := 0; i < fbEntries; i++ {
		ifu.fbV.Entry(i).Set(0)
	}
	ifu.fbHead.Set(0)
	ifu.fbTail.Set(0)
	ifu.fbCnt.Set(0)
	ifu.icFSM.Set(0)

	idu.d1V.Set(0)
	idu.d2V.Set(0)
	idu.dispFSM.Set(1)

	fxu.exV.Set(0)
	fxu.exBusy.Set(0)
	fxu.wbV.Set(0)
	fxu.divFSM.Set(0)
	fxu.divCnt.Set(0)

	fpu.fsm.Set(1)

	for i := 0; i < stqEntries; i++ {
		lsu.stqCtl.Entry(i).Set(0)
	}
	lsu.stqHead.Set(0)
	lsu.stqTail.Set(0)
	for i := 0; i < eratSize; i++ {
		lsu.eratCtl.Set(i, 0)
	}
	lsu.dcFSM.Set(dcIdle)
	lsu.dcCnt.Load(0)

	if c.cfg.EnableNest {
		for i := 0; i < rqEntries; i++ {
			c.nest.rqCtl.Entry(i).Set(0)
		}
	}
}
