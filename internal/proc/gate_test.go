package proc

import (
	mathbits "math/bits"
	"testing"
)

// scanned names the round-robin-scanned structures, entryFailures order.
var scanned = [...]string{"the store queue", "the ERAT", "the fetch buffer", "the request queue"}

// entryFailures returns the entries of each round-robin-scanned structure
// that fail their scan's check, one bit an entry.
func entryFailures(c *Core) (f [len(scanned)]uint64) {
	for i := 0; i < stqEntries; i++ {
		if c.stqCheck(i) != noChecker {
			f[0] |= 1 << i
		}
	}
	for i := 0; i < eratSize; i++ {
		if c.eratFails(i) {
			f[1] |= 1 << i
		}
	}
	for i := 0; i < fbEntries; i++ {
		if c.fbFails(i) {
			f[2] |= 1 << i
		}
	}
	for i := 0; c.cfg.EnableNest && i < rqEntries; i++ {
		if c.rqFails(i) {
			f[3] |= 1 << i
		}
	}
	return f
}

// regsFail reports whether one of prvCycle's register checks fails: FIR
// parity, the two one-hot state machines, the capture parity.
func regsFail(c *Core) bool {
	for i := 0; i < c.prv.fir.Len(); i++ {
		if parity64(c.prv.fir.Entry(i).Get()) != c.prv.firPar.Entry(i).Get() {
			return true
		}
	}
	return mathbits.OnesCount64(c.rut.fsm.Get()) != 1 || mathbits.OnesCount64(c.fpu.fsm.Get()) != 1 ||
		c.rutCaptureParity() != c.rut.capPar.Get()
}

// FuzzPervasiveGate runs FuzzAdvance's scripts of steps, flips, held bits,
// array strikes, checker masking and checkpoint restores on two clones of a
// warmed core, the default configuration's or the periphery's: one gated,
// clocked by Advance or, with stepped, by Step, and one under an access log,
// on which every cycle runs every pervasive check and regenerates the
// capture parity. After every operation the two must hold equal latch
// words, array cells and memory, equal cycle, failure and checker counts,
// and have seen the same events. The seeds flip a bit of each structure the
// gate skips the checks of — the FIRs and their parity, rut.fsm, fpu.fsm,
// the registers rut.cap.par covers and the parity itself, a valid
// store-queue, ERAT, fetch-buffer and request-queue entry, a GPR the next
// instruction reads — with the checkers on and masked, and hold a bit of a
// store-queue word through its recover loop as p6lite_sticky does.
func FuzzPervasiveGate(f *testing.F) {
	pairs := [2]advancePair{newAdvancePair(f, DefaultConfig()), newAdvancePair(f, nestConfig())}
	for i, p := range pairs {
		pairs[i].record = true
		// Each flip lands lead cycles from the checkpoint: at 40 the next
		// completion is in the flip's first cycle, at 36 it is after.
		for _, lead := range []int{36, 40} {
			for _, ops := range gateSeeds(f, p, lead) {
				var script []byte
				for _, op := range ops {
					script = append(script, scanOp(op[0], op[1])...)
				}
				f.Add(i == 1, false, script)
				f.Add(i == 1, true, script)
			}
		}
	}

	f.Fuzz(func(t *testing.T, nest, stepped bool, script []byte) {
		p := pairs[b2i(nest)]
		if stepped {
			p.most = 1
		}
		p.run(t, script)
	})
}

// gateSeeds returns FuzzPervasiveGate's seed scripts on p whose flips land
// lead cycles from its checkpoint.
func gateSeeds(f *testing.F, p advancePair, lead int) [][][2]int {
	db := p.adv.DB()
	bit := func(group string, entry, b int) int {
		g, ok := db.GroupByName(group)
		if !ok {
			f.Fatalf("no group %s", group)
		}
		return g.Offset() + entry*g.Width + b
	}
	run := [2]int{advStep, 399}
	stq, erat, fb, rq := validEntries(p, lead)
	flips := []int{
		bit("prv.fir", 0, 3), bit("prv.fir.par", 0, 0),
		bit("rut.fsm", 0, 5), bit("fpu.fsm", 0, 6),
		bit("rut.err.src", 0, 2), bit("rut.err.cycle", 0, 9), bit("rut.retry.cnt", 0, 1),
		bit("rut.progress", 0, 7), bit("rut.cap.par", 0, 0),
		bit("fxu.gpr", 13, 5), // a recovery: the error capture, the wait count
		bit("lsu.stq.addr", stq, 18), bit("lsu.stq.par.d", stq, 0),
		bit("lsu.erat.vpn", erat, 4), bit("lsu.erat.par", erat, 0),
		bit("ifu.fb.ir", fb, 9), bit("ifu.fb.par", fb, 0),
	}
	if p.adv.cfg.EnableNest {
		flips = append(flips, bit("nest.rq.addr", rq, 7))
	}
	var seeds [][][2]int
	// Each flip with the checkers on and masked, then a dozen cycles one at
	// a time (every cycle's end state compared), then two runs.
	for _, b := range flips {
		for _, mask := range []int{0, 1} {
			ops := [][2]int{{advMask, mask}, {advStep, lead - 1}, {advFlip, b}}
			for i := 0; i < 12; i++ {
				ops = append(ops, [2]int{advStep, 0})
			}
			seeds = append(seeds, append(ops, run, run))
		}
	}
	// Each store-queue word held from the lead on: the recover loop
	// rewrites the entry and the force flips the bit back.
	for _, g := range []string{"lsu.stq.addr", "lsu.stq.data"} {
		seeds = append(seeds, [][2]int{{advStep, lead - 1}, {advStick, bit(g, stq, 18)}, run, run, run, run, {advRestore, 0}, run})
	}
	return seeds
}

// validEntries returns a valid entry of the store queue, the ERAT, the
// fetch buffer and (with the periphery) the request queue n cycles after
// p's checkpoint, or entry 0 of a structure with none.
func validEntries(p advancePair, n int) (stq, erat, fb, rq int) {
	c := p.step
	c.RestoreCheckpoint(p.ck)
	defer c.RestoreCheckpoint(p.ck)
	for i := 0; i < n; i++ {
		c.Step()
	}
	first := func(entries int, valid func(int) bool) int {
		for i := 0; i < entries; i++ {
			if valid(i) {
				return i
			}
		}
		return 0
	}
	stq = first(stqEntries, func(i int) bool { return c.lsu.stqCtl.Entry(i).Get()&1 != 0 })
	erat = first(eratSize, func(i int) bool { return c.lsu.eratCtl.Get(i)&1 != 0 })
	fb = first(fbEntries, func(i int) bool { return c.ifu.fbV.Entry(i).Get() != 0 })
	if c.cfg.EnableNest {
		rq = first(rqEntries, func(i int) bool { return c.nest.rqCtl.Entry(i).Get()&1 != 0 })
	}
	return stq, erat, fb, rq
}

// TestPervasivePasses pins how many cycles run prvCycle's gated checks
// (PervasivePasses): one over a fault-free AVP pass from a restore — one
// scan generation — whether clocked by Step or by Advance, and every
// clocked cycle of a pass recorded under an access log.
func TestPervasivePasses(t *testing.T) {
	p := newAdvancePair(t, DefaultConfig())
	c := p.adv
	for _, limit := range []uint64{1, 1 << 20} {
		c.RestoreCheckpoint(p.ck)
		before, gen := c.PervasivePasses(), c.db.ScanGen()
		advancePass(t, c, p.testcases, limit)
		if c.db.ScanGen() != gen {
			t.Fatalf("Advance(%d): a fault-free pass moved the scan generation", limit)
		}
		if got := c.PervasivePasses() - before; got != 1 {
			t.Errorf("Advance(%d): %d pervasive passes over a fault-free pass, want 1", limit, got)
		}
	}
	c.RestoreCheckpoint(p.ck)
	before, start := c.PervasivePasses(), c.Cycle
	c.DB().Record(&c.Cycle)
	runPass(t, c, p.testcases)
	c.DB().StopRecording()
	if got, want := c.PervasivePasses()-before, c.Cycle-start; got != want {
		t.Errorf("%d pervasive passes over a recorded pass of %d cycles, want one a cycle", got, want)
	}
}
