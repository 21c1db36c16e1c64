package proc

import (
	"sfi/internal/array"
	"sfi/internal/bits"
	"sfi/internal/latch"
)

// The NEST is the core's periphery: a unified L2 cache and its memory
// controller. The paper lists "fault injections in the periphery of the
// core, such as the I/O subsystem, memory subsystem and so on" as current
// and future work; this optional unit (Config.EnableNest) implements that
// extension. When enabled, every L1 miss is serviced through the L2 and a
// parity-protected request queue, all of it injectable: queue latches,
// credit counters and sequencing state join the latch population, and the
// L2 tag/data SRAMs join the protected-array (beam) population.

// UnitNEST is the periphery unit name.
const UnitNEST = "NEST"

// NEST geometry.
const (
	l2Lines   = 512 // 32-byte lines, direct mapped, 16 KiB
	rqEntries = 8   // memory-controller request queue
)

type nestState struct {
	rqAddr latch.Array // request queue: line addresses
	rqCtl  latch.Array // bit0 valid, bit1 is-ifetch
	rqPar  latch.Array // entry parity
	rqPtr  latch.Reg   // allocation pointer

	credits latch.Reg // memory-channel credit counter
	mode    latch.Scan
	gptr    latch.Scan

	l2Tag  *array.Protected
	l2Data *array.Protected
}

// buildNestInventory registers the periphery latches and arrays.
func (c *Core) buildNestInventory() {
	db := c.db
	u := UnitNEST
	c.nest.rqAddr = db.RegisterArray(u, latch.Func, "nest.rq.addr", rqEntries, 64)
	c.nest.rqCtl = db.RegisterArray(u, latch.Func, "nest.rq.ctl", rqEntries, 4)
	c.nest.rqPar = db.RegisterArray(u, latch.Func, "nest.rq.par", rqEntries, 1)
	c.nest.rqPtr = db.Register(u, latch.Func, "nest.rq.ptr", 3)
	c.nest.credits = db.Register(u, latch.Func, "nest.credits", 8)
	db.RegisterIdle(u, latch.Func, "nest.seq", 1, 8) // controller sequencing state
	db.RegisterIdle(u, latch.Func, "nest.perf", 4, 64)
	c.nest.mode = db.RegisterScan(u, latch.Mode, "nest.mode", 1, 64, latch.AllBits)
	db.RegisterIdle(u, latch.Mode, "nest.mode.spare", 2, 64)
	c.nest.gptr = db.RegisterScan(u, latch.GPTR, "nest.gptr", 2, 64, latch.AllBits)
	// Cold periphery structures: snoop/coherence machinery idle in this
	// single-core configuration, and DMA engines with no I/O traffic.
	db.RegisterIdle(u, latch.Func, "nest.snoop", 16, 64)
	db.RegisterIdle(u, latch.Func, "nest.dma", 16, 64)
	db.RegisterIdle(u, latch.Func, "nest.iobuf", 16, 64)
	c.nest.l2Tag = array.New("nest.l2.tag", l2Lines)
	c.nest.l2Data = array.New("nest.l2.data", l2Lines*lineWords)
}

// l2Lookup probes the L2 for the line containing addr.
func (c *Core) l2Lookup(addr uint64) bool {
	idx := lineIndex(addr, l2Lines)
	tw, res := c.nest.l2Tag.Read(idx)
	if res == bits.ECCUncorrectable {
		c.nest.l2Tag.Write(idx, 0)
		c.fail(ChkNESTL2UE)
		return false
	}
	return tw&1 == 1 && tw>>1 == lineTag(addr, l2Lines)
}

// l2Install fills the L2 line containing addr from memory.
func (c *Core) l2Install(addr uint64) {
	idx := lineIndex(addr, l2Lines)
	base := addr &^ 31
	for i := 0; i < lineWords; i++ {
		c.nest.l2Data.Write(idx*lineWords+i, c.mem.Read64(base+uint64(8*i)))
	}
	c.nest.l2Tag.Write(idx, lineTag(addr, l2Lines)<<1|1)
}

// l2Update write-through-updates the L2 copy of the dword at addr.
func (c *Core) l2Update(addr, dw uint64) {
	if !c.cfg.EnableNest {
		return
	}
	idx := lineIndex(addr, l2Lines)
	tw, res := c.nest.l2Tag.Read(idx)
	if res == bits.ECCUncorrectable || tw&1 == 0 || tw>>1 != lineTag(addr, l2Lines) {
		return
	}
	c.nest.l2Data.Write(idx*lineWords+dwordInLine(addr), dw)
}

// nestMissLatency returns the refill latency for the line containing addr,
// allocating a request-queue entry and consulting the L2. An L2 hit costs
// MissPenalty; an L2 miss goes to memory and costs MissPenalty +
// NestPenalty (with the line installed in the L2 on the way). A frozen
// periphery stalls the miss FSMs themselves (see nestServicing).
func (c *Core) nestMissLatency(addr uint64, ifetch bool) uint64 {
	if !c.cfg.EnableNest {
		return uint64(c.cfg.MissPenalty)
	}
	c.nestAllocRQ(addr, ifetch)
	if c.l2Lookup(addr) {
		return uint64(c.cfg.MissPenalty)
	}
	c.l2Install(addr)
	return uint64(c.cfg.MissPenalty + c.cfg.NestPenalty)
}

// nestServicing reports whether the memory subsystem is able to make
// progress on outstanding misses; when the periphery is frozen the L1 miss
// FSMs stop counting down and the requester starves (a hang mechanism).
func (c *Core) nestServicing() bool {
	return !c.cfg.EnableNest || c.unitOK(uNEST)
}

// nestAllocRQ latches the request into the controller queue with parity.
func (c *Core) nestAllocRQ(addr uint64, ifetch bool) {
	i := int(c.nest.rqPtr.Get()) % rqEntries
	ctl := uint64(1)
	if ifetch {
		ctl |= 2
	}
	line := addr &^ 31
	c.nest.rqAddr.Entry(i).Set(line)
	c.nest.rqCtl.Entry(i).Set(ctl)
	c.nest.rqPar.Entry(i).Set(parity64(line) ^ c.polarity(uNEST, 0))
	c.nest.rqPtr.Set(uint64(i+1) % rqEntries)
	if n := c.nest.credits.Get(); n > 0 {
		c.nest.credits.Set(n - 1)
	}
}

// nestRetireRQ frees the oldest valid request (called when a refill
// completes) and returns a credit.
func (c *Core) nestRetireRQ() {
	if !c.cfg.EnableNest {
		return
	}
	for i := 0; i < rqEntries; i++ {
		e := c.nest.rqCtl.Entry(i)
		if e.Get()&1 != 0 {
			e.Set(0)
			break
		}
	}
	if n := c.nest.credits.Get(); n < 255 {
		c.nest.credits.Set(n + 1)
	}
}

// rqFails reports whether request-queue entry i fails the continuous parity
// check (one entry per cycle).
func (c *Core) rqFails(i int) bool {
	return c.nest.rqCtl.Entry(i).Get()&1 != 0 &&
		parity64(c.nest.rqAddr.Entry(i).Get())^c.polarity(uNEST, 0) != c.nest.rqPar.Entry(i).Get()
}
