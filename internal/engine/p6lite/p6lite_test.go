package p6lite

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sfi/internal/bits"
	"sfi/internal/engine"
	"sfi/internal/isa"
	"sfi/internal/latch"
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
		latches:    slices.Clone(c.DB().Cells),
		mem:        c.Mem().Clone(),
		cycle:      c.Cycle,
		completed:  c.Completed,
		recoveries: c.Recoveries,
		checkstop:  c.Checkstopped(),
		halted:     c.Halted(),
	}
	for _, p := range c.Arrays() {
		st.arrays = append(st.arrays, slices.Clone(p.Cells))
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
				c.RestoreCheckpointFull(b.ckpts[phase])
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

// steppedRun is Run as it was before the early exit against golden: it
// clocks every cycle it observes through b.Step and never replays. It is
// the oracle Run is compared with.
func (b *Backend) steppedRun(maxCycles int, onBarrier func() bool) engine.RunStats {
	var st engine.RunStats
	c := b.core
	lastCompleted := c.Completed
	lastProgressCycle := c.Cycle
	harnessLimit := uint64(2 * c.Config().HangLimit)

	for i := 0; i < maxCycles; i++ {
		ev := b.Step()
		st.Cycles++
		if c.Completed != lastCompleted {
			lastCompleted = c.Completed
			lastProgressCycle = c.Cycle
		}
		if ev.Barrier {
			st.Barriers++
			if onBarrier != nil && !onBarrier() {
				break
			}
		}
		switch {
		case ev.Halted:
			st.Halted = true
		case c.Checkstopped():
			st.Checkstop = true
		case c.HangDetected():
			st.Hang = true
		case c.Cycle-lastProgressCycle > harnessLimit:
			st.NoProgress = true
		default:
			continue
		}
		break // a stop condition fired
	}
	return st
}

// sansStepped drops the one stat Run and the oracle are meant to differ in:
// how few of the observed cycles Run clocks is what the early exit is for
// (core's TestEarlyExitCount pins the number).
func sansStepped(st engine.RunStats) engine.RunStats {
	st.Stepped = 0
	return st
}

// observation is everything the campaign layer takes from one injection.
type observation struct {
	stats    engine.RunStats
	verdict  engine.Verdict
	sdc      bool
	calls    int    // barrier callbacks made
	endCycle uint64 // Cycle() after the run
	fir      string
}

// observe drives the scalar injection protocol of core.Runner on b: reload,
// delay, inject, then a monitored run through run (b.Run or b.steppedRun)
// under the quiesce callback. quiesce < 0 installs a callback that never
// stops the run.
func observe(t *testing.T, b *Backend, run func(int, func() bool) engine.RunStats,
	phase, delay int, inj engine.Injection, window, quiesce int) observation {
	t.Helper()
	b.ReloadPhase(phase)
	for i := 0; i < delay; i++ {
		b.Step()
	}
	if err := b.Inject(inj); err != nil {
		t.Fatal(err)
	}
	var o observation
	clean := 0
	o.stats = sansStepped(run(window, func() bool {
		o.calls++
		chk := b.CheckBarrier()
		switch {
		case !chk.StateOK:
			o.sdc = true
			return false
		case quiesce < 0:
			return true
		case chk.Busy:
			clean = 0
			return true
		}
		clean++
		return quiesce == 0 || clean < quiesce
	}))
	o.verdict = b.Verdict()
	o.endCycle = b.Cycle()
	o.fir = fmt.Sprint(b.FIRNames())
	return o
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// pair is a backend and an independent clone of it: one runs the early-exit
// Run, the other the stepped oracle, so neither sees the other's state.
type pair struct{ fast, slow *Backend }

func newPair(t testing.TB, cfg engine.Config) pair {
	t.Helper()
	be, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pair{be.(*Backend), be.Clone().(*Backend)}
}

// same runs one injection both ways and fails on any difference.
func (p pair) same(t *testing.T, phase, delay int, inj engine.Injection, window, quiesce int) {
	t.Helper()
	got := observe(t, p.fast, p.fast.Run, phase, delay, inj, window, quiesce)
	want := observe(t, p.slow, p.slow.steppedRun, phase, delay, inj, window, quiesce)
	if got != want {
		t.Fatalf("phase %d delay %d %+v window %d quiesce %d:\n run     %+v\n stepped %+v",
			phase, delay, inj, window, quiesce, got, want)
	}
}

// schedule spreads a bit's injection instant the way core.Runner does.
func schedule(bit, phases int) (phase, delay int) {
	h := engine.Splitmix64(uint64(bit))
	return int(h % uint64(phases)), int((h >> 16) % 197)
}

// injectionShapes are the four fault shapes the campaigns use.
var injectionShapes = []engine.Injection{
	{Mode: engine.Toggle},
	{Mode: engine.Sticky},
	{Mode: engine.Sticky, Duration: 200},
	{Mode: engine.Toggle, Span: 3},
}

// TestEarlyExitMatchesStepped is the differential proof that replaying the
// fault-free record is indistinguishable from stepping it: over a uniform
// sample of the population, every fault shape and the three checker and
// recovery configurations, Run and the stepped oracle return the same
// RunStats, Verdict, SDC flag, callback count, end cycle and FIR poll.
func TestEarlyExitMatchesStepped(t *testing.T) {
	bits := 2000
	if testing.Short() || raceDetector {
		bits = 200 // one goroutine: the race detector has nothing to find here
	}
	configs := []struct {
		name string
		mut  func(*engine.Config)
	}{
		{"checkers", func(*engine.Config) {}},
		{"raw", func(c *engine.Config) { c.CheckersOn = false }},
		{"no-recovery", func(c *engine.Config) { c.RecoveryOn = false }},
	}
	for ci, cf := range configs {
		t.Run(cf.name, func(t *testing.T) {
			cfg := engine.DefaultConfig()
			cf.mut(&cfg)
			p := newPair(t, cfg)
			rng := rand.New(rand.NewPCG(18, uint64(ci)))
			for _, bit := range p.fast.DB().SampleBits(rng, bits, nil) {
				phase, delay := schedule(bit, p.fast.Phases())
				for _, inj := range injectionShapes {
					inj.Bit = bit
					p.same(t, phase, delay, inj, cfg.Window, cfg.QuiesceExit)
				}
			}
		})
	}
}

// TestEarlyExitOutlastsRecord covers the callbacks the recorded barriers
// cannot satisfy: one that never stops (the window ends the run, mid
// testcase) and QuiesceExit = 0, whose record is one testend long. Both must
// still see what stepping shows them, barrier for barrier.
func TestEarlyExitOutlastsRecord(t *testing.T) {
	bits := 300
	if testing.Short() || raceDetector {
		bits = 60
	}
	cfg := engine.DefaultConfig()
	never := newPair(t, cfg)
	cfg.QuiesceExit = 0
	fixed := newPair(t, cfg)
	rng := rand.New(rand.NewPCG(18, 99))
	for i, bit := range never.fast.DB().SampleBits(rng, bits, nil) {
		phase, delay := schedule(bit, never.fast.Phases())
		inj := injectionShapes[i%len(injectionShapes)]
		inj.Bit = bit
		never.same(t, phase, delay, inj, 3000+i, -1)
		fixed.same(t, phase, delay, inj, 3000+i, 0)
	}
}

// TestRunAfterEarlyExit checks that a run which exited early leaves a
// backend that can be driven on: a second Run, and Steps after it, see the
// barriers a stepped model sees.
func TestRunAfterEarlyExit(t *testing.T) {
	p := newPair(t, engine.DefaultConfig())
	bit := findBit(t, p.fast, "fxu.t1.gpr", 5) // idle: the first Run replays from the flip
	for _, b := range []*Backend{p.fast, p.slow} {
		b.ReloadPhase(1)
		if err := b.Inject(engine.Injection{Bit: bit, Mode: engine.Toggle}); err != nil {
			t.Fatal(err)
		}
	}
	stop := func() bool { return false }
	for i, window := range []int{100000, 150, 100000} {
		got, want := sansStepped(p.fast.Run(window, stop)), p.slow.steppedRun(window, stop)
		if got != want || p.fast.Cycle() != p.slow.Cycle() {
			t.Fatalf("run %d: %+v at cycle %d, stepped %+v at cycle %d",
				i, got, p.fast.Cycle(), want, p.slow.Cycle())
		}
	}
	for i := 0; i < 2000; i++ {
		if got, want := p.fast.Step(), p.slow.Step(); got != want {
			t.Fatalf("step %d after the runs: %+v, stepped %+v", i, got, want)
		}
	}
	diffStates(t, liveState(p.fast.Core()), liveState(p.slow.Core()))
}

// FuzzEarlyExit feeds arbitrary injections to the same oracle.
func FuzzEarlyExit(f *testing.F) {
	f.Add(uint32(0), false, uint8(1), uint16(0), uint8(0))
	f.Add(uint32(21909), true, uint8(1), uint16(0), uint8(17))   // rut.err.cycle, held
	f.Add(uint32(40000), true, uint8(3), uint16(200), uint8(90)) // span from a sticky bit
	f.Add(uint32(73700), false, uint8(9), uint16(0), uint8(196)) // span clipped at the population edge
	var p pair
	f.Fuzz(func(t *testing.T, bit uint32, sticky bool, span uint8, duration uint16, delay uint8) {
		if p.fast == nil {
			p = newPair(t, engine.DefaultConfig())
		}
		inj := engine.Injection{
			Bit:      int(bit) % p.fast.DB().TotalBits(),
			Mode:     engine.Toggle,
			Span:     int(span % 16),
			Duration: int(duration),
		}
		if sticky {
			inj.Mode = engine.Sticky
		}
		phase, _ := schedule(inj.Bit, p.fast.Phases())
		p.same(t, phase, int(delay), inj, 50_000, 2)
	})
}

// idleWords marks the storage words (one per group entry, in registration
// order) that belong to idle groups.
func idleWords(db *latch.DB) []bool {
	var idle []bool
	for _, g := range db.Groups() {
		for e := 0; e < g.Entries; e++ {
			idle = append(idle, g.Idle)
		}
	}
	return idle
}

// liveState is captureState with the idle latch words blanked: the state the
// model can read.
func liveState(c *proc.Core) fullState {
	st := captureState(c)
	for w, idle := range idleWords(c.DB()) {
		if idle {
			st.latches[w] = 0
		}
	}
	return st
}

// TestIdleMeansIdle is the behavioural half of the RegisterIdle contract:
// a flip in an idle group, at any cycle of any phase, leaves every latch
// outside idle groups, every array cell and every memory byte exactly where
// a fault-free model has them a full testcase later.
func TestIdleMeansIdle(t *testing.T) {
	p := newPair(t, engine.DefaultConfig())
	db := p.fast.DB()
	idle := func(g *latch.Group) bool { return g.Idle }
	rng := rand.New(rand.NewPCG(18, 7))
	for phase := 0; phase < p.fast.Phases(); phase++ {
		for _, bit := range db.SampleBits(rng, 40, idle) {
			at := rng.IntN(400)
			p.fast.ReloadPhase(phase)
			p.slow.ReloadPhase(phase)
			ends := 0
			for cyc := 0; ends < 2; cyc++ { // into the next testcase and through all of it
				if cyc == at {
					db.Flip(bit)
				}
				ev := p.fast.Step()
				if ev != p.slow.Step() {
					t.Fatalf("phase %d bit %d at %d: events differ at cycle %d", phase, bit, at, cyc)
				}
				if ev.Barrier && cyc >= at {
					ends++
				}
			}
			if db.Peek(bit) == p.slow.DB().Peek(bit) {
				t.Fatalf("phase %d bit %d: the flip did not survive", phase, bit)
			}
			diffStates(t, liveState(p.fast.Core()), liveState(p.slow.Core()))
		}
	}
}
