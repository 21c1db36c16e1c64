package p6lite

import (
	"testing"

	"sfi/internal/bits"
	"sfi/internal/engine"
	"sfi/internal/isa"
	"sfi/internal/mem"
	"sfi/internal/proc"
)

// newBackend builds a small warmed backend: four testcases, so four phased
// checkpoints.
func newBackend(t *testing.T) *Backend {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.AVP.Testcases = 4
	cfg.AVP.BodyOps = 10
	be, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return be.(*Backend)
}

// findBit returns the logical index of bit bitInEntry of the first entry of
// the named latch group.
func findBit(t *testing.T, b *Backend, group string, bitInEntry int) int {
	t.Helper()
	db := b.DB()
	for i := 0; i < db.TotalBits(); i++ {
		if g, _, bie := db.Locate(i); g.Name == group && bie == bitInEntry {
			return i
		}
	}
	t.Fatalf("no bit %d in group %q", bitInEntry, group)
	return -1
}

func TestReloadPhaseDeterminism(t *testing.T) {
	b := newBackend(t)
	sigOf := func() []uint64 {
		b.ReloadPhase(1)
		var sigs []uint64
		for len(sigs) < 6 {
			if b.Step().Barrier {
				st := b.Core().ArchState()
				sigs = append(sigs, st.Signature())
			}
		}
		return sigs
	}
	first, second := sigOf(), sigOf()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("signature %d differs after reload: %#x vs %#x", i, first[i], second[i])
		}
	}
}

func TestInjectRangeError(t *testing.T) {
	b := newBackend(t)
	if err := b.Inject(engine.Injection{Bit: -1, Mode: engine.Toggle}); err == nil {
		t.Error("no error for negative bit")
	}
	if err := b.Inject(engine.Injection{Bit: 1 << 30, Mode: engine.Toggle}); err == nil {
		t.Error("no error for out-of-range bit")
	}
}

func TestToggleInjectionFlipsOnce(t *testing.T) {
	b := newBackend(t)
	db := b.DB()
	// A quiet bit: spare mode latches are never rewritten by logic.
	bit := findBit(t, b, "prv.mode.spare", 0)
	if err := b.Inject(engine.Injection{Bit: bit, Mode: engine.Toggle}); err != nil {
		t.Fatal(err)
	}
	if !db.Peek(bit) {
		t.Fatal("toggle did not flip the bit")
	}
	// Nothing forces it back: flipping again restores it.
	db.Flip(bit)
	b.Step()
	if db.Peek(bit) {
		t.Error("toggle mode kept forcing the bit")
	}
}

func TestStickyInjectionHolds(t *testing.T) {
	b := newBackend(t)
	db := b.DB()
	// A live, constantly rewritten latch: the hang counter.
	bit := findBit(t, b, "prv.hang.cnt", 9)
	if err := b.Inject(engine.Injection{Bit: bit, Mode: engine.Sticky, Duration: 20}); err != nil {
		t.Fatal(err)
	}
	want := db.Peek(bit)
	for i := 0; i < 15; i++ {
		b.Step()
		if db.Peek(bit) != want {
			t.Fatalf("sticky bit released at step %d", i)
		}
	}
	// After the duration the force is gone; the logic rewrites the
	// counter every cycle, so the bit returns to normal counting.
	for i := 0; i < 30; i++ {
		b.Step()
	}
	if b.stickyOn {
		t.Error("sticky force still active past its duration")
	}
}

func TestReloadPhaseClearsStickyForce(t *testing.T) {
	b := newBackend(t)
	bit := findBit(t, b, "prv.hang.cnt", 9)
	if err := b.Inject(engine.Injection{Bit: bit, Mode: engine.Sticky}); err != nil {
		t.Fatal(err)
	}
	b.ReloadPhase(0)
	if b.stickyOn {
		t.Error("permanent sticky force survived a phase reload")
	}
}

func TestRunStopsOnHalt(t *testing.T) {
	core := proc.New(proc.DefaultConfig())
	core.Mem().LoadProgram(0, isa.MustAssemble("addi r1, r0, 5\nhalt"))
	b := &Backend{core: core}
	st := b.Run(100000, nil)
	if !st.Halted {
		t.Fatalf("run did not report halt: %+v", st)
	}
}

func TestRunCountsBarriers(t *testing.T) {
	b := newBackend(t)
	n := 0
	st := b.Run(1_000_000, func() bool {
		n++
		return n < 5
	})
	if st.Barriers != 5 || n != 5 {
		t.Errorf("barriers = %d (callback %d), want 5", st.Barriers, n)
	}
}

func TestRunDetectsCheckstop(t *testing.T) {
	b := newBackend(t)
	if err := b.Inject(engine.Injection{Bit: findBit(t, b, "prv.fir", 0), Mode: engine.Toggle}); err != nil {
		t.Fatal(err)
	}
	st := b.Run(10000, nil)
	if !st.Checkstop {
		t.Errorf("run did not report checkstop: %+v", st)
	}
	if len(b.FIRNames()) == 0 {
		t.Error("FIR poll names no checker after a FIR bit was set")
	}
}

func TestRunDetectsNoProgress(t *testing.T) {
	b := newBackend(t)
	// Freeze the IFU via its clock enable and mask every checker so the
	// watchdog cannot intervene: the harness itself must notice.
	b.Core().SetCheckersEnabled(false)
	b.DB().Poke(findBit(t, b, "prv.mode.hanglim", 11), false) // hang limit 2048 -> 0: watchdog disabled
	b.DB().Poke(findBit(t, b, "prv.mode.clock", 0), false)    // IFU clock off
	st := b.Run(100000, nil)
	if !st.NoProgress {
		t.Errorf("harness did not detect loss of progress: %+v", st)
	}
}

// fullState is everything a checkpoint restore is responsible for.
type fullState struct {
	latches    []uint64
	mem        *mem.Memory
	arrays     [][]bits.ECCWord
	cycle      uint64
	completed  uint64
	recoveries uint64
	checkstop  bool
	halted     bool
}

func captureState(c *proc.Core) fullState {
	st := fullState{
		latches:    c.DB().Snapshot(),
		mem:        c.Mem().Clone(),
		cycle:      c.Cycle,
		completed:  c.Completed,
		recoveries: c.Recoveries,
		checkstop:  c.Checkstopped(),
		halted:     c.Halted(),
	}
	for _, p := range c.Arrays() {
		st.arrays = append(st.arrays, p.Snapshot())
	}
	return st
}

func diffStates(t *testing.T, a, b fullState) {
	t.Helper()
	for i := range a.latches {
		if a.latches[i] != b.latches[i] {
			t.Fatalf("latch word %d differs: %#x vs %#x", i, a.latches[i], b.latches[i])
		}
	}
	if !a.mem.Equal(b.mem) {
		t.Fatal("memory differs")
	}
	for i := range a.arrays {
		for e := range a.arrays[i] {
			if a.arrays[i][e] != b.arrays[i][e] {
				t.Fatalf("array %d entry %d differs", i, e)
			}
		}
	}
	if a.cycle != b.cycle || a.completed != b.completed || a.recoveries != b.recoveries {
		t.Fatalf("counters differ: %v/%v/%v vs %v/%v/%v",
			a.cycle, a.completed, a.recoveries, b.cycle, b.completed, b.recoveries)
	}
	if a.checkstop != b.checkstop || a.halted != b.halted {
		t.Fatal("machine halt/checkstop flags differ")
	}
}

// TestDirtyRestoreMatchesFullRestore is the differential proof that the
// dirty-tracking restore path is bit-identical to the full Snapshot/CopyFrom
// path, across toggle, sticky and multi-bit-span injections, including
// cross-checkpoint reloads (restore to a checkpoint other than the one the
// machine last reloaded).
func TestDirtyRestoreMatchesFullRestore(t *testing.T) {
	cases := []struct {
		name string
		inj  engine.Injection
	}{
		{"toggle", engine.Injection{Mode: engine.Toggle}},
		{"sticky", engine.Injection{Mode: engine.Sticky, Duration: 200}},
		{"span3", engine.Injection{Mode: engine.Toggle, Span: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBackend(t)
			c := b.Core()
			for runIdx, phase := range []int{2, 0, 2} {
				// Perturb: inject into a latch that is live during the
				// AVP (a GPR word) and run a window.
				inj := tc.inj
				inj.Bit = gprBit(c, "fxu.gpr", 2+runIdx)
				if err := b.Inject(inj); err != nil {
					t.Fatal(err)
				}
				b.Run(2_000, nil)

				// Dirty path (RestoreCheckpoint picks it: baselines match).
				b.ReloadPhase(phase)
				dirty := captureState(c)
				// Full path from an arbitrary dirtied state.
				if err := b.Inject(engine.Injection{Bit: inj.Bit, Mode: engine.Toggle}); err != nil {
					t.Fatal(err)
				}
				b.Run(500, nil)
				c.RestoreCheckpointFull(b.ckpts[phase].ck)
				full := captureState(c)
				diffStates(t, dirty, full)
			}
		})
	}
}

// gprBit returns the logical bit index of bit 0 of the named group's entry
// (logical offsets are dense in registration order).
func gprBit(c *proc.Core, group string, entry int) int {
	off := 0
	for _, g := range c.DB().Groups() {
		if g.Name == group {
			return off + entry*g.Width
		}
		off += g.Bits()
	}
	panic("group not found")
}
