package proc

import (
	mathbits "math/bits"

	"sfi/internal/bits"
)

// setFIR records checker id's error in the fault isolation registers,
// maintaining FIR parity (corruption of the FIRs themselves is a
// checkstop-class pervasive error).
func (p *prvState) setFIR(id int) {
	e := p.fir.Entry(id / 64)
	v := e.Get() | 1<<uint(id%64)
	e.Set(v)
	p.firPar.Entry(id / 64).Set(parity64(v))
}

// prvCycle runs the pervasive logic: continuous checkers, the completion
// watchdog, background array scrubbing and the always-on counters.
//
// Its state checks — FIR parity, the one-hot state machines, the capture
// parity and the round-robin structure scans — check what no cycle can
// make fail: every write keeps its parity or one-hot value (setFIR, the
// FSM transitions, endCycle's regeneration, and the writes scansPassing
// lists). Only a flip, a scan load or a restore can, and each moves the
// scan generation.
// So they run in two groups, the register checks and the scans, and once a
// group passes at a generation it is skipped until the generation moves
// (PervasivePasses counts the cycles either runs). While one of its checks
// fails a group runs every cycle, so each failing checker fires on the
// cycles it always did. While an access log is recorded both run every
// cycle: the scans' reads of tracked words decide when a deferred toggle
// goes live.
func (c *Core) prvCycle() {
	if !c.unitOK(uPRV) {
		return // pervasive clocks off: no supervision, core still runs
	}
	prv := &c.prv
	rec := c.db.Recording()
	regs := rec || c.regsPass != c.db.ScanGen()
	scans := rec || !c.scansPassing()
	if regs || scans {
		c.prvPasses++
	}
	ok := true

	if regs {
		// FIR integrity.
		for i := 0; i < prv.fir.Len(); i++ {
			if parity64(prv.fir.Entry(i).Get()) != prv.firPar.Entry(i).Get() {
				c.fail(ChkPRVFIRPar)
				ok = false
				break
			}
		}
	}
	// Scan/clock control and ring integrity, over scan-only state: run
	// every cycle while the view says a check fails, so each failing
	// checker fires on every cycle its state is corrupt.
	if !c.view.scanOK {
		c.checkScan(true)
	}
	if regs {
		// One-hot state machines.
		if mathbits.OnesCount64(c.rut.fsm.Get()) != 1 {
			c.fail(ChkRUTFSM)
			ok = false
		}
		// Recovery-domain capture-register integrity.
		if c.rutCaptureParity() != c.rut.capPar.Get() {
			c.fail(ChkRUTCapPar)
			ok = false
		}
		if mathbits.OnesCount64(c.fpu.fsm.Get()) != 1 {
			c.fail(ChkFPUFSM)
			ok = false
		}
		if ok {
			c.regsPass = c.db.ScanGen()
		}
	}

	// Continuous structure scans (conservative checking: any corrupt
	// covered state fires, whether or not it would ever be consumed). Like
	// a hardware scan engine each walks one entry per cycle round-robin, so
	// worst-case detection latency is one sweep.
	if scans {
		pass := true
		if id := c.stqCheck(int(c.Cycle) % stqEntries); id != noChecker {
			c.fail(id)
			pass = false
		}
		if c.eratFails(int(c.Cycle) % eratSize) {
			c.fail(ChkLSUERATPar)
			pass = false
		}
		if c.fbFails(int(c.Cycle) % fbEntries) {
			c.fail(ChkIFUFBPar)
			pass = false
		}
		if c.cfg.EnableNest && c.rqFails(int(c.Cycle)%rqEntries) {
			c.fail(ChkNESTRQPar)
			pass = false
		}
		if !rec {
			c.scansVisited(pass)
		}
	}

	// Completion watchdog: the count restarts from zero when it fires.
	if limit := prv.modeHangLim.Get(); limit != 0 && !c.halted && !prv.hangCnt.Up(limit) {
		if prv.hangArm.Get() != 0 {
			// A hang recovery already ran without any completion
			// since: the core is declared hung.
			prv.coreHung.Set(1)
		} else {
			prv.hangArm.Set(1)
			c.fail(ChkPRVWatchdog)
		}
	}

	// Background scrub: one array entry per cycle, round-robin.
	c.scrubCycle()
}

// ringChk is the ring-integrity checker of each unit, Units order.
var ringChk = [...]int{ChkRingIFU, ChkRingIDU, ChkRingFXU, ChkRingFPU,
	ChkRingLSU, ChkRingRUT, ChkRingPRV, ChkRingNEST}

// checkScan runs the scan-control parity check and each unit's
// ring-integrity check, posting every failure when post is set, and reports
// whether all of them passed.
func (c *Core) checkScan(post bool) (ok bool) {
	prv := &c.prv
	ok = true
	if parity64(prv.scanCtl.Get()) != prv.scanPar.Get() {
		ok = false
		if post {
			c.fail(ChkPRVScanPar)
		}
	}
	for i, r := range c.rings {
		modeSeg := r[0].Field(modeIntegrityLo, modeIntegrityHi-modeIntegrityLo)
		gptrSeg := r[1].Field(gptrIntegrityLo, gptrIntegrityHi-gptrIntegrityLo)
		if parity64(modeSeg) != prv.ringPar.Entry(2*i).Get() ||
			parity64(gptrSeg) != prv.ringPar.Entry(2*i+1).Get() {
			ok = false
			if post {
				c.fail(ringChk[i])
			}
		}
	}
	return ok
}

// noChecker is what an entry check returns for an entry that passes.
const noChecker = -1

// stqCheck returns the checker store-queue entry i fails, if any: the
// continuous store-queue scan's check of the entry it visits.
func (c *Core) stqCheck(i int) int {
	lsu := &c.lsu
	ctl := lsu.stqCtl.Entry(i).Get()
	v, vd := ctl&1, (ctl>>1)&1
	if v != vd {
		return ChkLSUSTQVDup
	}
	if v == 0 {
		return noChecker
	}
	pol := c.polarity(uLSU, 1)
	if parity64(lsu.stqAddr.Get(i))^pol != lsu.stqParA.Entry(i).Get() ||
		parity64(lsu.stqData.Get(i))^pol != lsu.stqParD.Entry(i).Get() {
		return ChkLSUSTQPar
	}
	return noChecker
}

// eratFails reports whether ERAT entry i fails the continuous integrity
// check.
func (c *Core) eratFails(i int) bool {
	lsu := &c.lsu
	return lsu.eratCtl.Get(i)&1 != 0 &&
		c.eratParity(lsu.eratVPN.Get(i), lsu.eratPPN.Get(i)) != lsu.eratPar.Entry(i).Get()
}

// fbFails reports whether fetch-buffer entry i fails the continuous parity
// check.
func (c *Core) fbFails(i int) bool {
	ifu := &c.ifu
	return ifu.fbV.Entry(i).Get() != 0 &&
		parity64(ifu.fbIR.Entry(i).Get()^ifu.fbPC.Entry(i).Get())^c.polarity(uIFU, 1) != ifu.fbPar.Entry(i).Get()
}

// scrubCycle checks one protected-array entry per cycle. Cache entries with
// uncorrectable errors are invalidated (line delete); checkpoint corruption
// is fatal. The cursor wraps by comparison (latch.Counter.Wrap); only a
// corrupted one, past the last entry, pays a modulo. A scrub step finds
// nothing in a clean array, so while every array is clean the cycle ends
// with the cursor's advance.
func (c *Core) scrubCycle() {
	arrays := c.arrays
	total := c.arrayEntries
	if total == 0 {
		return
	}
	ptr := int(c.prv.scrubPtr.Wrap(uint64(total)))
	if c.struck.Clean() {
		return
	}
	for ai, p := range arrays {
		if ptr < p.Entries() {
			res := p.ScrubStep(ptr)
			if res == bits.ECCUncorrectable {
				switch ai {
				case 0, 1: // icache tag/data
					line := ptr
					if ai == 1 {
						line = ptr / lineWords
					}
					c.ifu.icTag.Write(line, 0)
					c.fail(ChkIFUICUE)
				case 2, 3: // dcache tag/data
					line := ptr
					if ai == 3 {
						line = ptr / lineWords
					}
					c.lsu.dcTag.Write(line, 0)
					c.fail(ChkLSUDCUE)
				case 4, 5, 6: // checkpoint arrays
					c.fail(ChkRUTCkptUE)
				default: // L2 tag/data: line delete
					line := ptr
					if ai == 8 {
						line = ptr / lineWords
					}
					c.nest.l2Tag.Write(line, 0)
					c.fail(ChkNESTL2UE)
				}
			}
			return
		}
		ptr -= p.Entries()
	}
}

// ArrayCorrectedCount sums the ECC single-bit corrections logged by every
// protected array (machine-visible corrected-error events).
func (c *Core) ArrayCorrectedCount() uint64 {
	var n uint64
	for _, p := range c.Arrays() {
		n += p.Corrected
	}
	return n
}
