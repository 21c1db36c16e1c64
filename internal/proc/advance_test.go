package proc

import (
	mathbits "math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sfi/internal/latch"
)

// advancePair is two cores on one checkpoint: adv is clocked through
// Advance, step through Step, and after every operation of a script the two
// must be indistinguishable.
type advancePair struct {
	adv, step *Core
	ck        *ModelCheckpoint
	testcases int // the AVP's: a pass is as many testends

	// record keeps step under an access log (restarted at every restore),
	// so that it clocks every cycle on the ungated path: each pervasive
	// check every cycle, the capture parity regenerated every cycle.
	record bool
	// most caps the cycles adv takes in one Advance (0: no cap; 1: Step).
	most uint64
}

// newAdvancePair warms a core of configuration cfg under the AVP, takes its
// checkpoint and clones a second core onto it.
func newAdvancePair(tb testing.TB, cfg Config) advancePair {
	tb.Helper()
	a, n := newAVPCoreWith(tb, cfg)
	a.InstallRestoreBaseline()
	ck := a.SaveCheckpoint()
	s := New(cfg)
	s.AdoptBaselineFrom(a)
	s.RestoreCheckpoint(ck)
	return advancePair{adv: a, step: s, ck: ck, testcases: n}
}

// held is a latch bit forced back to v after every call that clocks: ref
// on the advanced core, sref on the stepped one.
type held struct {
	on        bool
	bit       int
	ref, sref latch.BitRef
	v         bool
}

// stamped is an event and the index, within a clocking operation, of the
// cycle that fired it.
type stamped struct {
	at int
	ev Event
}

// clock runs n cycles on both cores, re-forcing h after each Step on one and
// after each Advance on the other, as p6lite does: one cycle at a time
// while h holds a bit Advance writes by arithmetic, and one cycle when a
// flip has moved the held bit off its value. It returns the events each
// side saw.
//
// On the stepped core it also holds each cycle to what the pervasive gate
// (prvCycle) relies on: a cycle that moves no scan generation makes no
// scanned entry fail that passed, and, unless it checkstops, leaves the
// register checks passing if they passed.
func (p advancePair) clock(t *testing.T, n int, h *held) (adv, step []stamped) {
	t.Helper()
	for i := 0; i < n; i++ {
		gen, entries, regs := p.step.db.ScanGen(), entryFailures(p.step), regsFail(p.step)
		if ev := p.step.Step(); ev != (Event{}) {
			step = append(step, stamped{i, ev})
		}
		if p.step.db.ScanGen() == gen {
			for k, f := range entryFailures(p.step) {
				if e := f &^ entries[k]; e != 0 {
					t.Fatalf("cycle %d made entry %d of %s fail without moving the scan generation", p.step.Cycle, mathbits.TrailingZeros64(e), scanned[k])
				}
			}
			if !regs && regsFail(p.step) && !p.step.Checkstopped() {
				t.Fatalf("cycle %d made a pervasive register check fail without moving the scan generation", p.step.Cycle)
			}
		}
		if h.on {
			h.sref.Set(h.v)
		}
	}
	for i := 0; i < n; {
		limit := uint64(n - i)
		if p.most != 0 {
			limit = min(limit, p.most)
		}
		if h.on && (p.adv.Ticks(h.bit) || h.ref.Get() != h.v) {
			limit = 1
		}
		k, ev := p.adv.Advance(limit)
		if k < 1 || k > limit {
			panic("Advance clocked outside [1, n]")
		}
		if ev != (Event{}) {
			adv = append(adv, stamped{i, ev})
		}
		i += int(k)
		if h.on {
			h.ref.Set(h.v)
		}
	}
	return adv, step
}

// same fails t unless the two cores hold equal latch words, array cells and
// memory, equal run, checker and array error counts, and saw the same
// events.
func (p advancePair) same(t *testing.T, what string, adv, step []stamped) {
	t.Helper()
	a, s := p.adv, p.step
	if !slices.Equal(adv, step) {
		t.Fatalf("%s: events %v by Advance, %v by Step", what, adv, step)
	}
	if a.Cycle != s.Cycle || a.Completed != s.Completed || a.Recoveries != s.Recoveries || a.halted != s.halted || a.fails != s.fails {
		t.Fatalf("%s: cycle/completed/recoveries/halted/fails %d/%d/%d/%v/%d by Advance, %d/%d/%d/%v/%d by Step", what,
			a.Cycle, a.Completed, a.Recoveries, a.halted, a.fails, s.Cycle, s.Completed, s.Recoveries, s.halted, s.fails)
	}
	if i := firstDiff(a.db.Cells, s.db.Cells); i >= 0 {
		g, e, b := a.db.Locate(latchBitOfWord(a.db, i))
		t.Fatalf("%s, cycle %d: latch word %d (%s[%d] from bit %d) is %#x by Advance, %#x by Step", what, a.Cycle, i, g.Name, e, b, a.db.Cells[i], s.db.Cells[i])
	}
	for ai, arr := range a.arrays {
		if e := firstDiff(arr.Cells(), s.arrays[ai].Cells()); e >= 0 {
			t.Fatalf("%s: %s entry %d differs", what, arr.Name(), e)
		}
	}
	if i := firstDiff(a.mem.Cells, s.mem.Cells); i >= 0 {
		t.Fatalf("%s: memory byte %#x differs", what, i)
	}
	for ai, arr := range a.arrays {
		if o := s.arrays[ai]; arr.Corrected != o.Corrected || arr.Uncorrectable != o.Uncorrectable {
			t.Fatalf("%s: %s corrected/uncorrectable %d/%d by Advance, %d/%d by Step", what, arr.Name(),
				arr.Corrected, arr.Uncorrectable, o.Corrected, o.Uncorrectable)
		}
	}
	for id, ch := range a.checkers {
		if ch.Fired != s.checkers[id].Fired {
			t.Fatalf("%s: checker %s fired %d times by Advance, %d by Step", what, ch.Name, ch.Fired, s.checkers[id].Fired)
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// latchBitOfWord returns the logical index of bit 0 of storage word w: the
// groups' words are laid out in registration order, one per entry.
func latchBitOfWord(db *latch.DB, w int) int {
	for _, g := range db.Groups() {
		if w < g.Entries {
			return g.Offset() + w*g.Width
		}
		w -= g.Entries
	}
	return 0
}

// Script operations of FuzzAdvance: four bytes each, an opcode and a 24-bit
// argument.
const (
	advStep    = iota // clock arg%400+1 cycles
	advFlip           // flip latch bit arg
	advStick          // flip latch bit arg and hold its new value from here on
	advStrike         // flip bit arg&127%72 of entry arg>>7 of array opcode/advOps
	advRestore        // restore the checkpoint, releasing a held bit
	advMask           // scan-load the checker mask: all off for an odd arg, else on
	advOps
)

// FuzzAdvance runs arbitrary scripts of steps, flips, held bits, array
// strikes, checker masking and checkpoint restores on two clones of a warmed
// core, the default configuration's or the periphery's, and requires
// Advance(n) on one and n Steps on the other to leave them indistinguishable
// after every operation. The seeds reach each edge a bulk advance stops
// short of: the countdowns' thresholds in every stall, entries of the store
// queue, ERAT, fetch buffer and request queue that fail their scans in the
// middle of one, the watchdog limit of a frozen unit, the scrub wrap, and a
// held bit of each countdown word and of rut.cap.par.
func FuzzAdvance(f *testing.F) {
	pairs := [2]advancePair{newAdvancePair(f, DefaultConfig()), newAdvancePair(f, nestConfig())}
	db := pairs[1].adv.DB() // the periphery's groups follow the core's
	bit := func(group string, entry, b int) int {
		g, ok := db.GroupByName(group)
		if !ok {
			f.Fatalf("no group %s", group)
		}
		return g.Offset() + entry*g.Width + b
	}
	add := func(nest bool, ops ...[2]int) {
		var script []byte
		for _, op := range ops {
			script = append(script, scanOp(op[0], op[1])...)
		}
		f.Add(nest, script)
	}
	run := [2]int{advStep, 399}
	for _, nest := range []bool{false, true} {
		// A step to the middle of a d-cache miss, the full fetch buffer
		// waiting on it.
		stall := [2]int{advStep, stallAt(pairs[b2i(nest)]) - 1}
		add(nest, run, run, run)
		// A GPR the testcase reads next: a recovery, with its 32-cycle wait.
		add(nest, [2]int{advStep, 39}, [2]int{advFlip, bit("fxu.gpr", 13, 5)}, run)
		// A frozen LSU stalls for good: the watchdog fires, then hang
		// recovery, and the scrub walk wraps on the way.
		add(nest, [2]int{advFlip, bit("lsu.gptr", 0, gptrEngageLo+1)}, run, run, run, run, run, run)
		// The watchdog and scrub cursors moved close to their edges, and a
		// scrub cursor past the walk.
		add(nest, [2]int{advFlip, bit("prv.hang.cnt", 0, 10)}, run, run, run)
		add(nest, [2]int{advFlip, bit("prv.scrub.ptr", 0, 10)}, run, run)
		add(nest, [2]int{advFlip, bit("prv.scrub.ptr", 0, 15)}, run)
		// A held bit flipped back off its forced value mid-stall: the next
		// cycle reads the good recovery state and only ticks counters, and
		// the force puts the one-hot violation back after it.
		add(nest, stall, [2]int{advStick, bit("rut.fsm", 0, 5)}, [2]int{advFlip, bit("rut.fsm", 0, 5)}, run)
		// Each countdown word and rut.cap.par held, and flipped mid-stall.
		for _, g := range []string{"lsu.dc.cnt", "ifu.ic.cnt", "rut.wait.cnt", "prv.hang.cnt", "prv.scrub.ptr", "rut.cap.par"} {
			add(nest, stall, [2]int{advStick, bit(g, 0, 0)}, run, run)
			add(nest, stall, [2]int{advFlip, bit(g, 0, 2%bitsOf(db, g))}, run)
		}
		// With the checkers masked a failing entry fails on every visit of
		// its scan; with them on, its first visit starts a recovery.
		for _, mask := range []int{1, 0} {
			for e := 0; e < 3; e++ {
				add(nest, [2]int{advMask, mask}, stall, [2]int{advFlip, bit("lsu.erat.par", 5*e, 0)}, run, run)
				add(nest, [2]int{advMask, mask}, stall, [2]int{advFlip, bit("lsu.stq.ctl", 7*e, 1)}, run, run)
				add(nest, [2]int{advMask, mask}, [2]int{advStep, 9 + e}, [2]int{advFlip, bit("ifu.fb.par", 3*e, 0)}, run, run)
			}
		}
		// Every fetch-buffer entry's parity flipped mid-stall, while the
		// full buffer waits: the first bulk run passes over a failing entry.
		for _, mask := range []int{1, 0} {
			ops := [][2]int{{advMask, mask}, stall}
			for e := 0; e < fbEntries; e++ {
				ops = append(ops, [2]int{advFlip, bit("ifu.fb.par", e, 0)})
			}
			add(nest, append(ops, run, run)...)
		}
		// A struck array: Advance clocks cycle by cycle until the restore.
		// The icache data array is read by fetch and the scrubber, the GPR
		// checkpoint array (index 4) by the scrubber alone, which reaches
		// the entry a thousand cycles on.
		add(nest, [2]int{advStrike + advOps, 9<<7 | 3}, run, [2]int{advRestore, 0}, run)
		add(nest, run, [2]int{advStrike + 4*advOps, 7<<7 | 3}, run, run, run)
		// A strike on the entry the scrubber reaches 200 cycles after it,
		// whichever array holds it.
		ai, e := scrubbedAt(pairs[b2i(nest)], 600)
		add(nest, run, [2]int{advStrike + ai*advOps, e<<7 | 3}, run)
		// rut.cap.par held with only its own checker masked, through a
		// recovery: every cycle of the recovery wait whose count changes
		// the capture parity fails the masked check.
		add(nest, [2]int{advFlip, bit("prv.mode.checker", 0, ChkRUTCapPar)}, [2]int{advStick, bit("rut.cap.par", 0, 0)},
			[2]int{advStep, 39}, [2]int{advFlip, bit("fxu.gpr", 13, 5)}, run)
	}
	for e := 0; e < 3; e++ {
		add(true, [2]int{advMask, 1}, [2]int{advStep, stallAt(pairs[1]) - 1}, [2]int{advFlip, bit("nest.rq.ctl", 3*e, 0)}, [2]int{advFlip, bit("nest.rq.par", 3*e, 0)}, run, run)
	}

	f.Fuzz(func(t *testing.T, nest bool, script []byte) {
		pairs[b2i(nest)].run(t, script)
	})
}

// run restores both cores to the checkpoint and runs script on them, a
// FuzzAdvance script of four-byte operations, holding them to same after
// every one.
func (p advancePair) run(t *testing.T, script []byte) {
	db := p.adv.DB()
	var h held
	restore := func() {
		for _, c := range []*Core{p.adv, p.step} {
			c.RestoreCheckpoint(p.ck)
		}
		if p.record {
			p.step.DB().Record(&p.step.Cycle)
		}
		h.on = false
	}
	restore()
	for ; len(script) >= 4; script = script[4:] {
		op := int(script[0])
		arg := int(script[1]) | int(script[2])<<8 | int(script[3])<<16
		switch op % advOps {
		case advStep:
			adv, step := p.clock(t, arg%400+1, &h)
			p.same(t, "after a step", adv, step)
			continue
		case advFlip:
			for _, c := range []*Core{p.adv, p.step} {
				c.DB().Flip(arg % db.TotalBits())
			}
		case advStick:
			h = held{on: true, bit: arg % db.TotalBits()}
			h.ref, h.sref = db.BitRef(h.bit), p.step.DB().BitRef(h.bit)
			h.v = h.ref.Flip()
			h.sref.Flip()
		case advStrike:
			for _, c := range []*Core{p.adv, p.step} {
				a := c.arrays[op/advOps%len(c.arrays)]
				a.FlipBit(arg>>7%a.Entries(), arg&127%72)
			}
		case advRestore:
			restore()
		case advMask:
			for _, c := range []*Core{p.adv, p.step} {
				c.SetCheckersEnabled(arg%2 == 0)
			}
		}
		p.same(t, "after a script operation", nil, nil)
	}
}

// stallAt returns how many cycles from p's checkpoint the core first sits
// in a d-cache miss with a full fetch buffer and a countdown of more than
// half the miss penalty left.
func stallAt(p advancePair) int {
	c := p.step
	c.RestoreCheckpoint(p.ck)
	defer c.RestoreCheckpoint(p.ck)
	for n := 1; ; n++ {
		c.Step()
		if c.lsu.dcFSM.Get() == dcRefill && c.ifu.fbCnt.Get() == fbEntries &&
			counterValue(c, c.lsu.dcCnt) > uint64(c.cfg.MissPenalty/2) {
			return n
		}
	}
}

// scrubbedAt returns the array and entry the scrubber checks n cycles
// after p's checkpoint.
func scrubbedAt(p advancePair, n int) (array, entry int) {
	c := p.step
	c.RestoreCheckpoint(p.ck)
	w := (int(counterValue(c, c.prv.scrubPtr)) + n - 1) % c.arrayEntries
	for ai, a := range c.arrays {
		if w < a.Entries() {
			return ai, w
		}
		w -= a.Entries()
	}
	panic("unreachable")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bitsOf returns the width of group name.
func bitsOf(db *latch.DB, name string) int {
	g, _ := db.GroupByName(name)
	return g.Width
}

// TestAdvanceCount pins exactly how many cycles Advance applies by
// arithmetic over one fault-free AVP pass and over a 20,000-cycle stretch
// of BenchmarkStep's recover loop (a held lsu.stq.addr fault, forced after
// every call), and holds both to the same cycles clocked by Step: a change
// that takes the bulk path less, or never, fails here, as does one that
// takes it past an edge.
func TestAdvanceCount(t *testing.T) {
	p := newAdvancePair(t, DefaultConfig())
	n := 0 // the cycles of one pass
	for ends := 0; ends < p.testcases; n++ {
		if p.step.Step().TestEnd {
			ends++
		}
	}
	for _, tc := range []struct {
		name   string
		cycles int
		stuck  bool
		bulk   uint64
	}{
		{"fault-free pass", n, false, 1952},
		{"recover loop", 20_000, true, 9235},
	} {
		for _, c := range []*Core{p.adv, p.step} {
			c.RestoreCheckpoint(p.ck)
		}
		var h held
		if tc.stuck {
			h = held{on: true, bit: stuckBit}
			h.ref, h.sref = p.adv.DB().BitRef(stuckBit), p.step.DB().BitRef(stuckBit)
			h.v = h.ref.Flip()
			h.sref.Flip()
		}
		before, recov := p.adv.BulkCycles(), p.adv.Recoveries
		adv, step := p.clock(t, tc.cycles, &h)
		p.same(t, tc.name, adv, step)
		if tc.stuck && p.adv.Recoveries == recov {
			t.Errorf("%s: no recovery in %d cycles", tc.name, tc.cycles)
		}
		if got := p.adv.BulkCycles() - before; got != tc.bulk {
			t.Errorf("%s: %d of %d cycles advanced in bulk, want %d", tc.name, got, tc.cycles, tc.bulk)
		}
	}
}

// TestAdvanceWhileRecording clocks one pass through Advance and one through
// Step with an access log recording on each: the logs must be equal, so a
// recorded pass may be clocked either way (Advance clocks it one cycle at a
// time: every cycle's tracked reads are logged at their own cycle).
func TestAdvanceWhileRecording(t *testing.T) {
	p := newAdvancePair(t, DefaultConfig())
	var logs [2]*latch.AccessLog
	for i, limit := range []uint64{1 << 20, 1} {
		c := []*Core{p.adv, p.step}[i]
		c.RestoreCheckpoint(p.ck)
		c.DB().Record(&c.Cycle)
		advancePass(t, c, p.testcases, limit)
		logs[i] = c.DB().StopRecording()
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatal("the access log recorded through Advance differs from Step's")
	}
	p.same(t, "a recorded pass", nil, nil)
}

// TestRunToTestEnd: RunToTestEnd stops on the cycle a Step loop sees each
// testend of a pass, in the same architected state, and fails on a
// checkstopped core.
func TestRunToTestEnd(t *testing.T) {
	p := newAdvancePair(t, DefaultConfig())
	for end := 1; end <= p.testcases; end++ {
		if err := p.adv.RunToTestEnd(); err != nil {
			t.Fatalf("testend %d: %v", end, err)
		}
		for !p.step.Step().TestEnd {
		}
		if p.adv.Cycle != p.step.Cycle || p.adv.Completed != p.step.Completed || p.adv.ArchState() != p.step.ArchState() {
			t.Fatalf("testend %d: run to cycle %d (%d completed), stepped to cycle %d (%d completed)",
				end, p.adv.Cycle, p.adv.Completed, p.step.Cycle, p.step.Completed)
		}
	}
	p.adv.checkstop()
	if err := p.adv.RunToTestEnd(); err == nil || !strings.Contains(err.Error(), "checkstopped") {
		t.Errorf("RunToTestEnd on a checkstopped core: err = %v", err)
	}
}
