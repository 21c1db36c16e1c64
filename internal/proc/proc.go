// Package proc implements P6LITE: a latch-accurate, cycle-based, in-order
// POWER-flavoured core model in the spirit of the POWER6 core that the
// paper's SFI experiments target. Every micro-architectural state bit lives
// in the latch database (internal/latch) so that the SFI framework can flip
// any of them; protected SRAM arrays (caches, recovery-unit checkpoint) live
// in internal/array and are reachable by the beam model.
//
// The core has the paper's unit decomposition — IFU, IDU, FXU, FPU, LSU,
// RUT and PRV (core pervasive logic) — and the POWER6 RAS stack: hardware
// checkers that post recoverable errors, a recovery unit that retries from
// an ECC-protected architected-state checkpoint, checkstop escalation, fault
// isolation registers and a completion watchdog for hang detection.
package proc

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"sfi/internal/archsim"
	"sfi/internal/array"
	"sfi/internal/latch"
	"sfi/internal/mem"
)

// Unit names, matching the paper's Figures 3 and 4.
const (
	UnitIFU = "IFU"
	UnitIDU = "IDU"
	UnitFXU = "FXU"
	UnitFPU = "FPU"
	UnitLSU = "LSU"
	UnitRUT = "RUT"
	UnitPRV = "Core" // pervasive logic, labelled "Core" in the paper
)

// Units lists the units in paper order.
var Units = []string{UnitIFU, UnitIDU, UnitFXU, UnitFPU, UnitLSU, UnitRUT, UnitPRV}

// Config holds the core's timing and sizing parameters.
type Config struct {
	MemBytes       int // flat memory size (power of two)
	MissPenalty    int // cache miss refill latency, cycles
	ERATPenalty    int // ERAT reload latency, cycles
	HangLimit      int // completion watchdog threshold, cycles
	RecoveryCycles int // pipeline-reset dead time during a retry
	RetryLimit     int // recoveries without forward progress before checkstop

	// EnableNest adds the core periphery — a unified L2 and its memory
	// controller (the paper's "fault injections in the periphery of the
	// core" future work). L1 misses are then serviced through the L2;
	// NestPenalty is the additional L2-miss latency to memory.
	EnableNest  bool
	NestPenalty int
}

// DefaultConfig returns the standard model parameters.
func DefaultConfig() Config {
	return Config{
		MemBytes:       256 * 1024,
		MissPenalty:    12,
		ERATPenalty:    6,
		HangLimit:      2048,
		RecoveryCycles: 32,
		RetryLimit:     3,
		NestPenalty:    24,
	}
}

// Validate rejects parameters no core can be built or clocked with, naming
// the field: a config may come off the wire, where a missing object decodes
// to zeros.
func (c Config) Validate() error {
	if c.MemBytes < 8 || c.MemBytes&(c.MemBytes-1) != 0 {
		return fmt.Errorf("MemBytes %d is not a power of two >= 8", c.MemBytes)
	}
	if c.HangLimit < 1 {
		return fmt.Errorf("HangLimit %d < 1", c.HangLimit)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MissPenalty", c.MissPenalty}, {"ERATPenalty", c.ERATPenalty}, {"RecoveryCycles", c.RecoveryCycles},
		{"RetryLimit", c.RetryLimit}, {"NestPenalty", c.NestPenalty},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s %d < 0", f.name, f.v)
		}
	}
	return nil
}

// Event is a machine-visible occurrence during a cycle, reported by Step.
type Event struct {
	TestEnd bool // a testend barrier completed this cycle
	Halted  bool // halt completed
}

// Core is the P6LITE processor model.
type Core struct {
	cfg Config
	db  *latch.DB
	mem *mem.Memory

	ifu  ifuState
	idu  iduState
	fxu  fxuState
	fpu  fpuState
	lsu  lsuState
	rut  rutState
	prv  prvState
	nest nestState

	checkers []*Checker

	// rings caches each unit's (mode, gptr) segment-0 handles, Units order.
	rings [][2]latch.Scan
	// view is what the scan-only latches decide, as of the scan generation
	// it was derived at; viewRefreshes counts its derivations.
	view          scanView
	viewRefreshes uint64
	// arrays caches the protected-array list; arrayEntries is the total
	// entry count across them (the scrub walk space); struck counts those
	// not clean (array.Protected.Clean).
	arrays       []*array.Protected
	arrayEntries int
	struck       array.Struck

	halted bool

	// pending errors posted by checkers during the current cycle
	pendErr []pendingError
	// fails counts checker evaluations that failed, enabled or not.
	fails uint64

	// ticking holds the countdown latches, in the order Advance bounds them
	// (counterBounds); bulk counts the cycles Advance applied by arithmetic.
	ticking [numTicking]latch.Counter
	bulk    uint64
	// scansPass is the scan generation at which every entry of the
	// round-robin-scanned structures was last seen to pass its check,
	// scansSwept the last one at which they were swept and scansFrom the
	// first cycle of the run of passing visits since (scansPassing);
	// regsPass is the generation at which prvCycle's register checks last
	// passed. prvPasses counts the cycles prvCycle ran either.
	scansPass, scansSwept, scansFrom uint64
	regsPass                         uint64
	prvPasses                        uint64
	// capStale is set by a cycle that writes a register rut.cap.par covers
	// (rutCaptureParity); capGen is the scan generation at which endCycle
	// last regenerated the parity.
	capStale bool
	capGen   uint64

	// Cycle counts clocked cycles since reset.
	Cycle uint64
	// Completed counts retired instructions.
	Completed uint64
	// Recoveries counts successful RUT retries (the paper's "corrected").
	Recoveries uint64
}

type pendingError struct {
	checker *Checker
}

// New builds a core over a fresh memory, registering the full latch
// inventory, and resets it.
func New(cfg Config) *Core {
	c := &Core{
		cfg: cfg,
		db:  latch.NewDB(),
		mem: mem.New(cfg.MemBytes),
	}
	c.buildInventory()
	c.buildColdInventory()
	if cfg.EnableNest {
		c.buildNestInventory()
	}
	c.db.Freeze()
	c.buildCheckers()
	c.rings = c.unitRings()
	c.ticking = [...]latch.Counter{c.lsu.dcCnt, c.ifu.icCnt, c.rut.waitCnt, c.prv.hangCnt, c.prv.scrubPtr}
	c.arrays = c.Arrays()
	for _, p := range c.arrays {
		c.arrayEntries += p.Entries()
		p.Attach(&c.struck)
	}
	c.Reset()
	return c
}

// DB exposes the latch database for injection and sampling.
func (c *Core) DB() *latch.DB { return c.db }

// Mem exposes the flat memory for program loading and SDC comparison.
func (c *Core) Mem() *mem.Memory { return c.mem }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Reset puts the machine into its power-on state: pipeline empty, caches
// invalid, scan rings at their init values, PC = 0. Memory is untouched.
func (c *Core) Reset() {
	// Zero every latch, then apply scan-ring init values.
	c.db.Fill(0)
	c.initScanRings()
	c.resetArrays()
	// Idle states for the one-hot machines.
	c.idu.dispFSM.Set(1)
	c.fpu.fsm.Set(1)
	c.rut.fsm.Set(rutIdle)
	c.Cycle = 0
	c.Completed = 0
	c.Recoveries = 0
	c.halted = false
	c.pendErr = c.pendErr[:0]
	c.prv.resetCounters()
}

// Halted reports whether a halt instruction has retired.
func (c *Core) Halted() bool { return c.halted }

// Checkstopped reports whether the machine has checkstopped.
func (c *Core) Checkstopped() bool { return c.prv.checkstop.Get() != 0 }

// HangDetected reports whether the pervasive hang detector has declared the
// core hung (watchdog fired and hang recovery did not restore progress).
func (c *Core) HangDetected() bool { return c.prv.coreHung.Get() != 0 }

// InRecovery reports whether the RUT retry sequence is active.
func (c *Core) InRecovery() bool { return c.rut.fsm.Get() != rutIdle }

// Step clocks the machine one cycle and reports any machine-visible event.
func (c *Core) Step() Event {
	ev := c.step()
	c.endCycle()
	return ev
}

// endCycle is the write-port parity maintenance for the RUT error-capture
// registers at the end of a cycle: legitimate updates (which all happen
// inside the cycle) regenerate the stored parity; corruption injected
// between cycles is caught by the pervasive checker first. The parity is
// regenerated only when the registers may have moved since it last was: a
// cycle that wrote one (capStale) or a move of the scan generation (a flip,
// a restore). While an access log is recorded it is regenerated every
// cycle, the oracle FuzzPervasiveGate holds the skip to.
func (c *Core) endCycle() {
	if !c.capStale && c.capGen == c.db.ScanGen() && !c.db.Recording() {
		return
	}
	if !c.Checkstopped() {
		c.rut.capPar.Set(c.rutCaptureParity())
		c.capStale, c.capGen = false, c.db.ScanGen()
	}
}

// Advance clocks the machine through at least one and at most n cycles
// (n ≥ 1) and returns how many, with the event of the first: exactly what
// that many Steps would do, the others being event-free. The first cycle is
// clocked as Step clocks it. If it was counter-only — it fired no checker,
// posted no event, completed nothing, left the scan generation where it was
// and wrote no latch but by unit ticks of the countdown latches — the
// cycles after it repeat it, each ticking counter one further on, for as
// long as no counter reaches its threshold and no round-robin scan reaches
// an entry that fails its check: nothing else they read has moved. Advance
// applies that many of them by arithmetic (DESIGN.md "Cost of a cycle").
// It clocks one cycle at a time while an access log is recorded or an array
// is struck: logged reads and the scrub walk are per cycle.
func (c *Core) Advance(n uint64) (uint64, Event) {
	if n <= 1 {
		return 1, c.Step()
	}
	c.db.ClearTicks()
	writes, fails, gen, cycle, done := c.db.Writes(), c.fails, c.db.ScanGen(), c.Cycle, c.Completed
	ev := c.step()
	k := uint64(1)
	if ev == (Event{}) && c.db.Writes() == writes && c.fails == fails &&
		c.db.ScanGen() == gen && c.Cycle == cycle+1 && c.Completed == done &&
		!c.db.Recording() && c.struck.Clean() {
		more := n - 1
		for i, b := range c.counterBounds() {
			more = min(more, c.ticking[i].Room(b))
		}
		more = c.scanRoom(more)
		for i := range c.ticking {
			c.ticking[i].Repeat(more)
		}
		c.Cycle += more
		c.bulk += more
		k += more
	}
	c.endCycle()
	return k, ev
}

// testEndGuard bounds the cycles RunToTestEnd clocks looking for a testend.
const testEndGuard = 50_000_000

// RunToTestEnd clocks the core to its next testend barrier, its
// counter-only stall runs in bulk (Advance). It fails on a checkstop, on a
// halt, and when no testend comes within testEndGuard cycles.
func (c *Core) RunToTestEnd() error {
	for guard := uint64(testEndGuard); guard > 0; {
		k, ev := c.Advance(guard)
		switch {
		case c.Checkstopped():
			return fmt.Errorf("proc: core checkstopped at cycle %d", c.Cycle)
		case ev.TestEnd:
			return nil
		case ev.Halted:
			return fmt.Errorf("proc: core halted at cycle %d before a testend", c.Cycle)
		}
		guard -= k
	}
	return fmt.Errorf("proc: no testend within %d cycles", testEndGuard)
}

// numTicking is the number of countdown latches: lsu.dc.cnt, ifu.ic.cnt,
// rut.wait.cnt, prv.hang.cnt and prv.scrub.ptr.
const numTicking = 5

// counterBounds returns the bound each ticking counter's Room takes:
// none for the countdowns, the watchdog's limit and the scrub walk's length.
func (c *Core) counterBounds() [numTicking]uint64 {
	return [...]uint64{0, 0, 0, c.prv.modeHangLim.Get(), uint64(c.arrayEntries)}
}

// scanRoom clips more, a number of cycles to follow the current one, to
// those before the first whose round-robin scans (prvCycle) would visit a
// failing entry. The structures do not change over those cycles, so it
// checks each entry they would visit, at most a sweep of each structure.
//
// It checks none while every entry passes (scansPassing).
func (c *Core) scanRoom(more uint64) uint64 {
	if !c.unitOK(uPRV) || c.scansPassing() {
		return more
	}
	for j := uint64(1); j <= min(more, stqEntries); j++ {
		if c.stqCheck(int((c.Cycle+j)%stqEntries)) != noChecker {
			more = j - 1
		}
	}
	for j := uint64(1); j <= min(more, eratSize); j++ {
		if c.eratFails(int((c.Cycle + j) % eratSize)) {
			more = j - 1
		}
	}
	for j := uint64(1); j <= min(more, fbEntries); j++ {
		if c.fbFails(int((c.Cycle + j) % fbEntries)) {
			more = j - 1
		}
	}
	for j := uint64(1); c.cfg.EnableNest && j <= min(more, rqEntries); j++ {
		if c.rqFails(int((c.Cycle + j) % rqEntries)) {
			more = j - 1
		}
	}
	return more
}

// scansPassing reports whether every entry of the round-robin-scanned
// structures passes its check, sweeping them at most once a scan
// generation. A cycle cannot make an entry fail: every write to the scanned
// structures stores an entry with the parity of what it stores, under the
// current polarity, or clears its valid bit (stqInsert, eratReloadDone,
// fetchCycle, nestAllocRQ, and the drains and flushes). Only a flip, a scan
// load or a restore can, and each moves the generation, so entries that
// pass at a generation pass until it moves. FuzzAdvance holds every clocked
// cycle to that, entry by entry. A sweep that finds a failing entry is not
// repeated at its generation; the cycles' own visits establish the mark
// instead (scansVisited).
func (c *Core) scansPassing() bool {
	gen := c.db.ScanGen()
	if c.scansPass == gen {
		return true
	}
	if c.scansSwept == gen {
		return false
	}
	c.scansSwept, c.scansFrom = gen, c.Cycle
	if c.scansFail() != noChecker {
		return false
	}
	c.scansPass = gen
	return true
}

// scanSweep is the most cycles a round-robin scan takes to visit every
// entry of its structure.
const scanSweep = max(stqEntries, eratSize, fbEntries, rqEntries)

// scansVisited takes whether the entries this cycle's scans visited passed,
// at a generation whose sweep found a failing one. A failing entry stops
// failing when a cycle rewrites it or clears its valid bit, and an entry
// that passes stays passing until the generation moves (scansPassing).
// So once scanSweep consecutive cycles have visited only passing entries,
// each entry passed at its last visit and passes now: the mark is set.
// Cycles Advance applies in bulk count among them, since scanRoom lets it
// apply none that would visit a failing entry.
func (c *Core) scansVisited(pass bool) {
	switch {
	case !pass:
		c.scansFrom = c.Cycle + 1
	case c.Cycle+1-c.scansFrom >= scanSweep:
		c.scansPass = c.db.ScanGen()
	}
}

// scansFail returns the checker a failing entry of the round-robin-scanned
// structures fails, or noChecker when every entry passes.
func (c *Core) scansFail() int {
	for i := 0; i < stqEntries; i++ {
		if id := c.stqCheck(i); id != noChecker {
			return id
		}
	}
	for i := 0; i < eratSize; i++ {
		if c.eratFails(i) {
			return ChkLSUERATPar
		}
	}
	for i := 0; i < fbEntries; i++ {
		if c.fbFails(i) {
			return ChkIFUFBPar
		}
	}
	for i := 0; c.cfg.EnableNest && i < rqEntries; i++ {
		if c.rqFails(i) {
			return ChkNESTRQPar
		}
	}
	return noChecker
}

// BulkCycles returns how many cycles Advance has applied by arithmetic
// rather than clocked.
func (c *Core) BulkCycles() uint64 { return c.bulk }

// PervasivePasses returns how many clocked cycles ran prvCycle's register
// checks or its structure scans: with nothing failing, one a scan
// generation.
func (c *Core) PervasivePasses() uint64 { return c.prvPasses }

// Ticks reports whether latch bit lies in a word Advance writes by
// arithmetic: a countdown latch, or rut.cap.par, which Step regenerates over
// one. A caller that holds such a bit after every cycle advances one cycle
// at a time.
func (c *Core) Ticks(bit int) bool {
	g, _, _ := c.db.Locate(bit)
	return g.Counter || g.Name == "rut.cap.par"
}

func (c *Core) step() Event {
	var ev Event
	if c.view.gen != c.db.ScanGen() {
		c.refreshView()
	}
	if c.Checkstopped() || c.halted {
		return ev
	}
	c.Cycle++
	c.pendErr = c.pendErr[:0]

	// Pervasive logic first: continuous checkers, scrub, watchdog.
	c.prvCycle()
	if c.Checkstopped() {
		return ev
	}

	// Recovery sequencing freezes the pipeline.
	if c.InRecovery() {
		c.rutCycle()
		c.handleErrors()
		return ev
	}

	// Pipeline, written back-to-front so data advances one stage per cycle.
	ev = c.wbCycle()
	if ev.Halted {
		// Retiring a halt stops the clocks immediately; run-ahead fetch
		// must not execute past it.
		c.handleErrors()
		return ev
	}
	c.exCycle()
	c.d2Cycle()
	c.d1Cycle()
	c.fetchCycle()

	c.handleErrors()
	return ev
}

// postError is called by checkers when enabled and failing.
func (c *Core) postError(ch *Checker) {
	c.pendErr = append(c.pendErr, pendingError{checker: ch})
}

// handleErrors routes posted checker errors to the RUT / checkstop logic.
func (c *Core) handleErrors() {
	if len(c.pendErr) == 0 {
		return
	}
	c.capStale = true // the error capture and rutBeginRecovery
	// Log the first error's FIR bit; severity: any checkstop-class error
	// wins over recoverable ones.
	worst := c.pendErr[0].checker
	for _, pe := range c.pendErr[1:] {
		if pe.checker.Action == ActionCheckstop && worst.Action != ActionCheckstop {
			worst = pe.checker
		}
	}
	for _, pe := range c.pendErr {
		c.prv.setFIR(pe.checker.FIR)
	}
	// Error capture for cause-and-effect tracing: the RUT latches the
	// first error of an incident.
	if !c.prv.firstErrSeen {
		c.prv.firstErrSeen = true
		c.rut.errSrc.Set(uint64(worst.ID))
		c.rut.errCycle.Set(c.Cycle)
	}
	if worst.Action == ActionCheckstop {
		c.checkstop()
		return
	}
	// An error signalled while a retry is in flight is unrecoverable.
	if c.InRecovery() {
		c.checkstop()
		return
	}
	c.rutBeginRecovery()
}

// checkstop stops the machine; only the FIRs stay observable.
func (c *Core) checkstop() {
	c.prv.checkstop.Set(1)
}

// ArchState assembles the architected state visible in the latches, in the
// golden model's representation, for SDC comparison.
func (c *Core) ArchState() archsim.State {
	var s archsim.State
	for i := 0; i < 32; i++ {
		s.GPR[i] = c.fxu.gpr.Get(i)
		s.FPR[i] = c.fpu.fpr.Get(i)
	}
	s.CR0 = uint8(c.idu.cr.Get())
	s.LR = c.idu.lr.Get()
	s.CTR = c.idu.ctr.Get()
	s.PC = c.ifu.pc.Get()
	return s
}

// MaskedSignature is ArchState().MaskedSignature(...) reading no GPR or FPR
// outside the masks: the verification a harness does at a testend, through
// the register files' tracked handles. Taken at every testend of a recorded
// pass, it puts the harness's own reads into the access log beside the
// model's, so a register the retired testcase's signature leaves out is one
// no reader saw there.
func (c *Core) MaskedSignature(gprMask, fprMask uint32, sprMask uint8) uint64 {
	var s archsim.State
	for i := 0; i < 32; i++ {
		if gprMask&(1<<uint(i)) != 0 {
			s.GPR[i] = c.fxu.gpr.Get(i)
		}
		if fprMask&(1<<uint(i)) != 0 {
			s.FPR[i] = c.fpu.fpr.Get(i)
		}
	}
	s.CR0 = uint8(c.idu.cr.Get())
	s.LR = c.idu.lr.Get()
	s.CTR = c.idu.ctr.Get()
	return s.MaskedSignature(gprMask, fprMask, sprMask)
}

func f2b(f float64) uint64 { return math.Float64bits(f) }
func b2f(b uint64) float64 { return math.Float64frombits(b) }

// scanView is what the scan-only latches decide, derived from their contents
// at scan generation gen: which units' clocks run, each unit's
// parity-polarity segment, and whether the scan-control and ring-integrity
// checks pass. No cycle can write scan state — the model reaches it through
// latch.Scan handles alone — so the view stands until the generation moves:
// a scan load, a flip or a restore (DESIGN.md "Cost of a cycle").
type scanView struct {
	gen    uint64
	unitOK uint8            // bit i: unit i's clocks run
	pol    [uNEST + 1]uint8 // unit i's MODE polarity segment
	scanOK bool             // checkScan passes
}

// refreshView derives the view from the scan-only latches' contents. Step
// calls it first thing in a cycle whose generation has moved.
func (c *Core) refreshView() {
	v := scanView{gen: c.db.ScanGen(), scanOK: c.checkScan(false)}
	clock := c.prv.modeClock.Get()
	for i, r := range c.rings {
		// A unit's clocks run when the pervasive clock enable is set, the
		// MODE critical segment is intact and no GPTR test-engage bit is set.
		if clock>>uint(i)&1 != 0 &&
			r[0].Field(modeCriticalLo, modeCriticalHi-modeCriticalLo) == modeCriticalInit &&
			r[1].Field(gptrEngageLo, gptrEngageHi-gptrEngageLo) == 0 {
			v.unitOK |= 1 << uint(i)
		}
		v.pol[i] = uint8(r[0].Field(modePolarityLo, modePolarityHi-modePolarityLo))
	}
	c.view = v
	c.viewRefreshes++
}

// ViewRefreshes returns how many times the core has derived its scan view
// from the latches: once per clocked cycle whose scan generation had moved.
func (c *Core) ViewRefreshes() uint64 { return c.viewRefreshes }

// polarity returns the k-th parity-polarity configuration bit of unit u's
// MODE ring (see the ring layout in inventory.go).
func (c *Core) polarity(u, k int) uint64 {
	return uint64(c.view.pol[u]>>uint(k)) & 1
}

func parity64(v uint64) uint64 { return uint64(mathbits.OnesCount64(v) & 1) }
