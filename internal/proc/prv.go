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
func (c *Core) prvCycle() {
	if !c.unitOK(uPRV) {
		return // pervasive clocks off: no supervision, core still runs
	}
	prv := &c.prv

	// FIR integrity.
	for i := 0; i < prv.fir.Len(); i++ {
		if parity64(prv.fir.Entry(i).Get()) != prv.firPar.Entry(i).Get() {
			c.fail(ChkPRVFIRPar)
			break
		}
	}
	// Scan/clock control and ring integrity, over scan-only state: run
	// every cycle while the view says a check fails, so each failing
	// checker fires on every cycle its state is corrupt.
	if !c.view.scanOK {
		c.checkScan(true)
	}
	// One-hot state machines.
	if mathbits.OnesCount64(c.rut.fsm.Get()) != 1 {
		c.fail(ChkRUTFSM)
	}
	// Recovery-domain capture-register integrity.
	if c.rutCaptureParity() != c.rut.capPar.Get() {
		c.fail(ChkRUTCapPar)
	}
	if mathbits.OnesCount64(c.fpu.fsm.Get()) != 1 {
		c.fail(ChkFPUFSM)
	}

	// Continuous structure scans (conservative checking: any corrupt
	// covered state fires, whether or not it would ever be consumed).
	c.scanSTQ()
	c.scanERAT()
	c.scanFB()
	c.scanRQ()

	// Completion watchdog.
	limit := prv.modeHangLim.Get()
	if limit != 0 && !c.halted {
		n := prv.hangCnt.Get()
		if n+1 >= limit {
			prv.hangCnt.Set(0)
			if prv.hangArm.Get() != 0 {
				// A hang recovery already ran without any completion
				// since: the core is declared hung.
				prv.coreHung.Set(1)
			} else {
				prv.hangArm.Set(1)
				c.fail(ChkPRVWatchdog)
			}
		} else {
			prv.hangCnt.Set(n + 1)
		}
	}

	// Background scrub: one array entry per cycle, round-robin.
	c.scrubCycle()

	// Free-running counters.
	prv.perf.Add(0, 1)
	if c.Cycle%16 == 0 {
		prv.thermal.Add(0, 1)
	}
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

// scanSTQ is the continuous store-queue checker. Like a hardware scan
// engine it walks one entry per cycle round-robin, so worst-case detection
// latency is one sweep.
func (c *Core) scanSTQ() {
	lsu := &c.lsu
	i := int(c.Cycle) % stqEntries
	ctl := lsu.stqCtl.Entry(i).Get()
	v, vd := ctl&1, (ctl>>1)&1
	if v != vd {
		c.fail(ChkLSUSTQVDup)
		return
	}
	if v == 0 {
		return
	}
	pol := c.polarity(uLSU, 1)
	if parity64(lsu.stqAddr.Get(i))^pol != lsu.stqParA.Entry(i).Get() ||
		parity64(lsu.stqData.Get(i))^pol != lsu.stqParD.Entry(i).Get() {
		c.fail(ChkLSUSTQPar)
	}
}

// scanERAT is the continuous ERAT integrity checker (one entry per cycle).
func (c *Core) scanERAT() {
	lsu := &c.lsu
	i := int(c.Cycle) % eratSize
	if lsu.eratCtl.Get(i)&1 == 0 {
		return
	}
	vpn := lsu.eratVPN.Get(i)
	ppn := lsu.eratPPN.Get(i)
	if c.eratParity(vpn, ppn) != lsu.eratPar.Entry(i).Get() {
		c.fail(ChkLSUERATPar)
	}
}

// scanFB is the continuous fetch-buffer checker (one entry per cycle).
func (c *Core) scanFB() {
	ifu := &c.ifu
	i := int(c.Cycle) % fbEntries
	if ifu.fbV.Entry(i).Get() == 0 {
		return
	}
	ir := ifu.fbIR.Entry(i).Get()
	pc := ifu.fbPC.Entry(i).Get()
	pol := c.polarity(uIFU, 1)
	if parity64(ir^pc)^pol != ifu.fbPar.Entry(i).Get() {
		c.fail(ChkIFUFBPar)
	}
}

// scrubCycle checks one protected-array entry per cycle. Cache entries with
// uncorrectable errors are invalidated (line delete); checkpoint corruption
// is fatal.
func (c *Core) scrubCycle() {
	arrays := c.arrays
	total := c.arrayEntries
	if total == 0 {
		return
	}
	ptr := int(c.prv.scrubPtr.Get()) % total
	c.prv.scrubPtr.Set(uint64((ptr + 1) % total))
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
