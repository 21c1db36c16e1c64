package proc

import (
	"reflect"
	"testing"

	"sfi/internal/bits"
	"sfi/internal/latch"
)

// viewFromContents is the oracle for the cached scan view: the view derived
// anew from the scan-only latches, bit by bit, the way unitOK, polarity and
// prvCycle's scan checks read them every cycle before the view existed. It
// reads each latch's whole word from the database, not through the model's
// handle, so a read set that leaves out a bit the view depends on is a
// difference here.
func viewFromContents(c *Core) scanView {
	word := func(s latch.Scan) uint64 {
		return c.db.Cells[reflect.ValueOf(s).FieldByName("r").FieldByName("w").Int()]
	}
	field := func(s latch.Scan, lo, hi int) uint64 { return word(s) >> uint(lo) & (1<<uint(hi-lo) - 1) }
	prv := &c.prv
	v := scanView{gen: c.db.ScanGen(), scanOK: parity64(word(prv.scanCtl)) == word(prv.scanPar)}
	for i, r := range c.rings {
		if word(prv.modeClock)>>uint(i)&1 != 0 &&
			field(r[0], modeCriticalLo, modeCriticalHi) == modeCriticalInit &&
			field(r[1], gptrEngageLo, gptrEngageHi) == 0 {
			v.unitOK |= 1 << uint(i)
		}
		for k := 0; k < modePolarityHi-modePolarityLo; k++ {
			if word(r[0])>>uint(modePolarityLo+k)&1 != 0 {
				v.pol[i] |= 1 << uint(k)
			}
		}
		if parity64(field(r[0], modeIntegrityLo, modeIntegrityHi)) != word(prv.ringPar.Entry(2*i)) ||
			parity64(field(r[1], gptrIntegrityLo, gptrIntegrityHi)) != word(prv.ringPar.Entry(2*i+1)) {
			v.scanOK = false
		}
	}
	return v
}

// counterValue reads a countdown latch's word from the database, as a test
// may and the model cannot: a latch.Counter has no Get.
func counterValue(c *Core, t latch.Counter) uint64 {
	return c.db.Cells[reflect.ValueOf(t).FieldByName("r").FieldByName("w").Int()]
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
	// 100 clean cycles, then a strike on the GPR checkpoint array (index 4),
	// which only the scrubber and a recovery read: the first struck cycle
	// ends a stretch in which the scrubber walked clean arrays only, and
	// the scrubber reaches the entry about a thousand cycles on.
	strike = nil
	for _, op := range [][2]int{{opStep, 99}, {opStrike + 4*scanOps, 7<<7 | 3}, {opStep, 199}, {opStep, 199}, {opStep, 199}, {opStep, 199}, {opStep, 199}, {opStep, 199}} {
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
