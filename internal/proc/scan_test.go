package proc

import (
	"testing"

	"sfi/internal/bits"
	"sfi/internal/latch"
)

// viewFromContents is the oracle for the cached scan view: the view derived
// anew from the scan-only latches, bit by bit, the way unitOK, polarity and
// prvCycle's scan checks read them every cycle before the view existed.
func viewFromContents(c *Core) scanView {
	prv := &c.prv
	v := scanView{gen: c.db.ScanGen(), scanOK: parity64(prv.scanCtl.Get()) == prv.scanPar.Get()}
	for i, r := range c.rings {
		if prv.modeClock.GetBit(i) &&
			r[0].Field(modeCriticalLo, modeCriticalHi-modeCriticalLo) == modeCriticalInit &&
			r[1].Field(gptrEngageLo, gptrEngageHi-gptrEngageLo) == 0 {
			v.unitOK |= 1 << uint(i)
		}
		for k := 0; k < modePolarityHi-modePolarityLo; k++ {
			if r[0].GetBit(modePolarityLo + k) {
				v.pol[i] |= 1 << uint(k)
			}
		}
		if parity64(r[0].Field(modeIntegrityLo, modeIntegrityHi-modeIntegrityLo)) != prv.ringPar.Entry(2*i).Get() ||
			parity64(r[1].Field(gptrIntegrityLo, gptrIntegrityHi-gptrIntegrityLo)) != prv.ringPar.Entry(2*i+1).Get() {
			v.scanOK = false
		}
	}
	return v
}

// Script operations of FuzzScanView: four bytes each, an opcode and a 24-bit
// argument.
const (
	opFlip        = iota // flip latch bit arg
	opStrike             // flip bit arg&127 of entry arg>>7 of array opcode/scanOps
	opStick              // flip latch bit arg and hold its new value from here on
	opStep               // clock arg%200+1 cycles, re-forcing a held bit after each
	opRestore            // restore the checkpoint by the dirty path, releasing a held bit
	opRestoreFull        // the same by full copy
	scanOps
)

// scanOp encodes one script operation.
func scanOp(op, arg int) []byte { return []byte{byte(op), byte(arg), byte(arg >> 8), byte(arg >> 16)} }

// FuzzScanView runs arbitrary scripts of latch flips, array strikes, held
// faults, steps and checkpoint restores on a warmed core and holds the
// cached scan view to the oracle after every step: the view a cycle used is
// the one its latches' contents say. Every array the core calls clean must
// decode clean at every entry. The seeds flip one view-relevant bit of each
// scan-only group, then step, restore and step again, so a generation bump
// missing from a flip or from the dirty restore is a seed that fails.
func FuzzScanView(f *testing.F) {
	c, _ := newAVPCore(f)
	c.InstallRestoreBaseline()
	ck := c.SaveCheckpoint()
	db := c.DB()
	arrays := c.Arrays()

	for _, g := range db.Groups() {
		if !g.Scan {
			continue
		}
		bit := g.Offset() // bit 0: a clock enable, a ring parity, scan control
		switch {
		case g.Kind == latch.Mode && g.Width == 64:
			bit += modePolarityLo // entry 0's first polarity bit
		case g.Kind == latch.GPTR:
			bit += gptrEngageLo + 1 // a test-engage bit: the unit freezes
		}
		var script []byte
		for _, op := range [][2]int{{opFlip, bit}, {opStep, 4}, {opRestore, 0}, {opStep, 4}, {opStick, bit}, {opStep, 9}, {opRestoreFull, 0}, {opStep, 2}} {
			script = append(script, scanOp(op[0], op[1])...)
		}
		f.Add(script)
	}
	// A strike on the icache data array (index 1), then long enough for the
	// fetch path and the scrubber to read struck and unstruck entries.
	var strike []byte
	for _, op := range [][2]int{{opStrike + scanOps, 9<<7 | 3}, {opStep, 199}, {opRestore, 0}, {opStep, 50}} {
		strike = append(strike, scanOp(op[0], op[1])...)
	}
	f.Add(strike)

	f.Fuzz(func(t *testing.T, script []byte) {
		c.RestoreCheckpoint(ck)
		var (
			stuck   latch.BitRef
			stuckV  bool
			stuckOn bool
		)
		for ; len(script) >= 4; script = script[4:] {
			op := int(script[0])
			arg := int(script[1]) | int(script[2])<<8 | int(script[3])<<16
			switch op % scanOps {
			case opFlip:
				db.Flip(arg % db.TotalBits())
			case opStrike:
				p := arrays[op/scanOps%len(arrays)]
				p.FlipBit(arg>>7%p.Entries(), arg&127%72)
			case opStick:
				stuck, stuckOn = db.BitRef(arg%db.TotalBits()), true
				stuckV = stuck.Flip()
			case opStep:
				for n := arg%200 + 1; n > 0; n-- {
					c.Step()
					checkScanView(t, c)
					if stuckOn {
						stuck.Set(stuckV)
					}
				}
			case opRestore:
				c.RestoreCheckpoint(ck)
				stuckOn = false
			case opRestoreFull:
				c.RestoreCheckpointFull(ck)
				stuckOn = false
			}
		}
	})
}

// checkScanView fails t unless the core's view is current and equals the
// oracle's, and every array the core calls clean decodes clean throughout.
func checkScanView(t *testing.T, c *Core) {
	t.Helper()
	if want := viewFromContents(c); c.view != want {
		t.Fatalf("cycle %d: cached scan view %+v, the latches say %+v", c.Cycle, c.view, want)
	}
	for _, p := range c.arrays {
		if !p.Clean() {
			continue
		}
		for e, w := range p.Cells() {
			if _, res := bits.DecodeSECDED(w); res != bits.ECCClean {
				t.Fatalf("cycle %d: %s is called clean, but entry %d decodes %v", c.Cycle, p.Name(), e, res)
			}
		}
	}
}
