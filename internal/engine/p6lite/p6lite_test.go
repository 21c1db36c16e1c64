package p6lite

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
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

// findBit returns the logical index of the named latch group's bit off,
// counted from bit 0 of its first entry.
func findBit(t testing.TB, b *Backend, group string, off int) int {
	t.Helper()
	g, ok := b.DB().GroupByName(group)
	if !ok || off >= g.Bits() {
		t.Fatalf("no bit %d in group %q", off, group)
	}
	return g.Offset() + off
}

func TestReloadPhaseDeterminism(t *testing.T) {
	b := newBackend(t)
	sigOf := func() []uint64 {
		b.ReloadPhase(1)
		var sigs []uint64
		for len(sigs) < 6 {
			if b.eagerStep().Barrier { // the signature is read off the model itself
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
		st.arrays = append(st.arrays, slices.Clone(p.Cells()))
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
				inj.Bit = findBit(t, b, "fxu.gpr", (2+runIdx)*64)
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

// eagerStep is Step as it was before any cycle was replayed: it clocks the
// model through the cycle whatever could be proved about it, and gives up
// golden, so that nothing after it replays either. It is the oracle's only
// clock: an oracle that stepped through Step would defer the very cycles
// the differential is there to check.
func (b *Backend) eagerStep() engine.Event {
	b.catchUp()
	b.golden = false
	return b.step()
}

// steppedRun is Run as it was before the early exit against golden: it
// clocks every cycle it observes through eagerStep and never replays. It is
// the oracle Run is compared with.
func (b *Backend) steppedRun(maxCycles int, onBarrier func() bool) engine.RunStats {
	var st engine.RunStats
	c := b.core
	lastCompleted := c.Completed
	lastProgressCycle := c.Cycle
	harnessLimit := uint64(2 * c.Config().HangLimit)

	for i := 0; i < maxCycles; i++ {
		ev := b.eagerStep()
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
	stats       engine.RunStats
	verdict     engine.Verdict
	sdc         bool
	calls       int    // barrier callbacks made
	injectCycle uint64 // Cycle() at the (last) injection
	stepEnds    int    // barriers reported by Step before it
	endCycle    uint64 // Cycle() after the run
	fir         string
}

// shot is one trip through the injection protocol: the phased checkpoint,
// the delay, the fault, and optionally a second toggle flip of bit then
// after gap more Steps (gap == 0: none) — the second Inject finds the model
// wherever the first and the lazy Steps left it.
type shot struct {
	phase, delay int
	inj          engine.Injection
	gap, then    int
}

// observe drives the scalar injection protocol of core.Runner on b: reload,
// delay, inject, then a monitored run under the quiesce callback. The eager
// side is the oracle: every cycle clocked, by eagerStep and steppedRun.
// quiesce < 0 installs a callback that never stops the run.
func observe(t *testing.T, b *Backend, eager bool, s shot, window, quiesce int) observation {
	t.Helper()
	step, run := b.Step, b.Run
	if eager {
		step, run = b.eagerStep, b.steppedRun
	}
	var o observation
	steps := func(n int) {
		for i := 0; i < n; i++ {
			if step().Barrier {
				o.stepEnds++
			}
		}
	}
	b.ReloadPhase(s.phase)
	steps(s.delay)
	if err := b.Inject(s.inj); err != nil {
		t.Fatal(err)
	}
	if s.gap > 0 {
		steps(s.gap)
		if err := b.Inject(engine.Injection{Bit: s.then, Mode: engine.Toggle}); err != nil {
			t.Fatal(err)
		}
	}
	o.injectCycle = b.Cycle()
	clean := 0
	o.stats = run(window, func() bool {
		o.calls++
		chk := b.CheckBarrier()
		if b.ahead == 0 && chk.StateOK != b.digestOK() {
			t.Fatalf("%+v: CheckBarrier says %v at stepped testend %d, the digest check %v", s, chk.StateOK, b.barrier, !chk.StateOK)
		}
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
	})
	o.verdict = b.Verdict()
	o.endCycle = b.Cycle()
	o.fir = fmt.Sprint(b.FIRNames())
	return o
}

// digestOK is the barrier check as it was before CheckBarrier compared the
// data area with its phase's image: the retired testcase's masked signature
// and the area's digest against the program's. It is the oracle
// CheckBarrier is held to at every stepped testend observe sees.
func (b *Backend) digestOK() bool {
	c, n := b.core, len(b.prog.Testcases)
	tc := b.prog.Testcases[(b.barrier+n-1)%n]
	return c.MaskedSignature(tc.GPRMask, tc.FPRMask, tc.SPRMask) == tc.SigMasked &&
		c.Mem().DigestRange(b.prog.DataLo, b.prog.DataHi) == tc.MemDigest
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

// same runs one shot both ways and fails on any difference.
func (p pair) same(t *testing.T, s shot, window, quiesce int) {
	t.Helper()
	got := observe(t, p.fast, false, s, window, quiesce)
	want := observe(t, p.slow, true, s, window, quiesce)
	got.stats = sansStepped(got.stats)
	if got != want {
		t.Fatalf("%+v window %d quiesce %d:\n run     %+v\n stepped %+v", s, window, quiesce, got, want)
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
					p.same(t, shot{phase: phase, delay: delay, inj: inj}, cfg.Window, cfg.QuiesceExit)
				}
			}
		})
	}
}

// TestEarlyExitOutlastsRecord covers the callbacks the recorded barriers
// cannot satisfy: one that never stops (the window ends the run, mid
// testcase) and QuiesceExit = 0, whose record ends with the third pass. Both must
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
		s := shot{phase: phase, delay: delay, inj: inj}
		never.same(t, s, 3000+i, -1)
		fixed.same(t, s, 3000+i, 0)
	}
	// A flip the record never reads is still out of the model when the record
	// ends under it: the run must put it in where it was made and go on live.
	for _, p := range []pair{never, fixed} {
		last := p.fast.Phases() - 1
		for i, group := range trackedGroups {
			dead, ok := p.fast.deadBit(group)
			if !ok {
				continue
			}
			s := shot{phase: last, delay: 40 + i, inj: engine.Injection{Bit: int(dead), Mode: engine.Toggle}}
			p.same(t, s, 3000, -1)
			if b := p.fast; b.deferred || b.golden || b.ahead != 0 || !b.DB().Peek(s.inj.Bit) {
				t.Fatalf("%s: after a run off the end of the record deferred=%v golden=%v ahead=%d bit=%v, want the flip in a caught-up model",
					group, b.deferred, b.golden, b.ahead, b.DB().Peek(s.inj.Bit))
			}
		}
	}
}

// TestDeferredFlip follows the def-use rule step by step on the flips the
// fuzz seeds place around the record's own accesses: what Inject decides,
// when the model is first clocked, and that a flip nothing reads before it is
// overwritten, or before the run ends, clocks no cycle at all.
func TestDeferredFlip(t *testing.T) {
	b := newPair(t, engine.DefaultConfig()).fast
	moved := func(phase int) uint64 { return b.core.Cycle - b.barriers[phase] }
	inject := func(bit uint32, delay uint16, inj engine.Injection) (phase int) {
		t.Helper()
		inj.Bit = int(bit)
		phase, _ = schedule(inj.Bit, b.Phases())
		b.ReloadPhase(phase)
		for i := 0; i < int(delay); i++ {
			b.Step()
		}
		if err := b.Inject(inj); err != nil {
			t.Fatal(err)
		}
		return phase
	}
	quiesce := func() func() bool {
		clean := 0
		return func() bool {
			chk := b.CheckBarrier()
			if !chk.StateOK {
				return false
			}
			if chk.Busy {
				clean = 0
				return true
			}
			clean++
			return clean < b.cfg.QuiesceExit
		}
	}
	toggle := engine.Injection{Mode: engine.Toggle}

	for _, group := range []string{"ifu.bht", "fxu.gpr", "lsu.erat.ctl", "lsu.stq.data"} {
		bit, d, ok := b.nearAccess(group, false)
		if !ok {
			t.Fatalf("the record never reads %s", group)
		}
		// Two cycles before the read: deferred, one cycle replayed, then the
		// model is clocked to the flip, flipped and clocked on.
		phase := inject(bit, d-2, toggle)
		readAt := b.barriers[phase] + uint64(d)
		if !b.deferred || !b.golden || b.liveAt != readAt || moved(phase) != 0 {
			t.Fatalf("%s: deferred=%v golden=%v liveAt=%d, model %d cycles on, want a deferred flip live at %d and the model at its checkpoint",
				group, b.deferred, b.golden, b.liveAt, moved(phase), readAt)
		}
		before := b.DB().Peek(int(bit))
		b.Step()
		if !b.deferred || moved(phase) != 0 || b.DB().Peek(int(bit)) != before {
			t.Fatalf("%s: the cycle before the read clocked the model %d cycles", group, moved(phase))
		}
		b.Step()
		if b.deferred || b.golden || moved(phase) != uint64(d) {
			t.Fatalf("%s: the cycle of the read left deferred=%v golden=%v, model %d cycles on, want %d",
				group, b.deferred, b.golden, moved(phase), d)
		}
		// A held fault is never deferred.
		inject(bit, d-2, engine.Injection{Mode: engine.Sticky})
		if b.deferred || b.golden {
			t.Fatalf("%s: a sticky fault was deferred", group)
		}
	}

	for _, group := range []string{"fxu.gpr", "lsu.stq.addr", "lsu.stq.data"} { // the predictor reads what it overwrites
		bit, d, ok := b.nearAccess(group, true)
		if !ok {
			t.Fatalf("the record never overwrites %s", group)
		}
		// The cycle before the word is overwritten: never live.
		phase := inject(bit, d-1, toggle)
		if !b.deferred || b.liveAt != latch.Never {
			t.Fatalf("%s: deferred=%v liveAt=%d, want a flip that is never read", group, b.deferred, b.liveAt)
		}
		if st := b.Run(b.cfg.Window, quiesce()); st.Stepped != 0 || moved(phase) != 0 || st.Barriers != b.cfg.QuiesceExit {
			t.Fatalf("%s: %+v with the model clocked %d cycles, want a run replayed whole", group, st, moved(phase))
		}
		// A second fault puts the first into the model where it was made.
		phase = inject(bit, d-1, toggle)
		for i := 0; i < 7; i++ {
			b.Step()
		}
		if err := b.Inject(engine.Injection{Bit: findBit(t, b, "prv.thermal", 1), Mode: engine.Toggle}); err != nil {
			t.Fatal(err)
		}
		if b.deferred || b.golden || moved(phase) != uint64(d-1)+7 {
			t.Fatalf("%s: a second Inject left deferred=%v golden=%v, model %d cycles on", group, b.deferred, b.golden, moved(phase))
		}
	}

	// The harness reads the retired testcase's signature registers at its
	// testend, and no others.
	for _, in := range []bool{true, false} {
		bit, d, ok := b.signatureBit("fxu.gpr", in)
		if !ok {
			t.Fatalf("no GPR with signature membership %v", in)
		}
		phase := inject(bit, d-1, toggle)
		testend := b.barriers[phase+1]
		if !b.deferred || in && b.liveAt > testend || !in && b.liveAt == testend {
			t.Fatalf("in signature %v: deferred=%v liveAt=%d, testend at %d", in, b.deferred, b.liveAt, testend)
		}
		inject(bit, d, toggle) // after the testend's check: it is not that one that reads it
		if !b.deferred || b.liveAt <= testend {
			t.Fatalf("in signature %v, flipped at the testend: deferred=%v liveAt=%d, testend at %d", in, b.deferred, b.liveAt, testend)
		}
	}

	// A span is as live as its first-read bit.
	phase := inject(uint32(findBit(t, b, "fxu.gpr", 32*64-2)), 30, engine.Injection{Mode: engine.Toggle, Span: 4})
	if b.deferred || b.golden || moved(phase) != 30 {
		t.Fatalf("a span into fxu.gpr.par: deferred=%v golden=%v, model %d cycles on", b.deferred, b.golden, moved(phase))
	}
}

// TestClonesShareTheRecord runs the same injections on four clones at once,
// each on its own goroutine: they share one access log, one set of sparse
// checkpoint images and one baseline, read-only. Every clone must defer the
// flips the record lets it defer, and all must see what a lone backend sees.
func TestClonesShareTheRecord(t *testing.T) {
	cfg := engine.DefaultConfig()
	proto := newPair(t, cfg).fast
	var shots []shot
	for _, group := range trackedGroups {
		bits := []uint32{uint32(findBit(t, proto, group, 1))}
		if dead, ok := proto.deadBit(group); ok {
			bits = append(bits, dead)
		}
		for _, bit := range bits {
			phase, delay := schedule(int(bit), proto.Phases())
			shots = append(shots, shot{phase: phase, delay: delay, inj: engine.Injection{Bit: int(bit), Mode: engine.Toggle}})
		}
	}
	type outcome struct {
		obs  []observation
		free int // injections that clocked nothing
	}
	run := func(b *Backend) outcome {
		var out outcome
		for _, s := range shots {
			o := observe(t, b, false, s, cfg.Window, cfg.QuiesceExit)
			out.obs = append(out.obs, o)
			if o.stats.Stepped == 0 && b.core.Cycle == b.barriers[s.phase] {
				out.free++
			}
		}
		return out
	}
	clones := make([]*Backend, 4)
	for i := range clones {
		clones[i] = proto.Clone().(*Backend)
	}
	want := run(proto)
	if want.free < 5 {
		t.Fatalf("%d of %d injections clocked nothing, want at least the five groups' never-accessed words", want.free, len(shots))
	}
	got := make([]outcome, len(clones))
	var wg sync.WaitGroup
	for i, b := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(b)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i].free != want.free || !slices.Equal(got[i].obs, want.obs) {
			t.Errorf("clone %d: %d injections clocked nothing, the prototype %d; observations equal: %v",
				i, got[i].free, want.free, slices.Equal(got[i].obs, want.obs))
		}
	}
}

// TestRunAfterEarlyExit checks that a run which exited early leaves a
// backend that can be driven on: a second Run, and Steps after it, see the
// barriers a stepped model sees, and once the model is caught up with what
// was observed it is where the stepped one is.
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
		if got, want := p.fast.Step(), p.slow.eagerStep(); got != want {
			t.Fatalf("step %d after the runs: %+v, stepped %+v", i, got, want)
		}
	}
	if p.fast.ahead == 0 {
		t.Fatal("the fast side clocked every cycle: nothing was replayed")
	}
	p.fast.catchUp()
	diffStates(t, liveState(p.fast.Core()), liveState(p.slow.Core()))
}

// confined reports whether sel selects every bit inj flips: bit b of entry e
// of group g.
func confined(db *latch.DB, inj engine.Injection, sel func(g *latch.Group, e, b int) bool) bool {
	for i := 0; i < max(inj.Span, 1) && inj.Bit+i < db.TotalBits(); i++ {
		if !sel(db.Locate(inj.Bit + i)) {
			return false
		}
	}
	return true
}

// TestClockedCycleCount pins what an injection is charged, in the model's
// own clocked cycles. None at all when every flipped bit is never read —
// outside its group's read set, in an idle group or beside the
// read bits of a scan or tracked one: the model stays at the phased
// checkpoint from ReloadPhase to after Run. None either when a toggle
// confined to never-read bits and tracked groups is not read by the recorded
// run before the injection's run ends: the flip never goes into the model.
// Otherwise the delay plus RunStats.Stepped — so Stepped holds no delay
// cycle, and no cycle is clocked that is neither.
func TestClockedCycleCount(t *testing.T) {
	bits := 2000
	if testing.Short() || raceDetector {
		bits = 200
	}
	cfg := engine.DefaultConfig()
	be, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := be.(*Backend)
	free, toggles, freeToggles, all := 0, 0, 0, 0
	rng := rand.New(rand.NewPCG(18, 0))
	for _, bit := range b.DB().SampleBits(rng, bits, nil) {
		phase, delay := schedule(bit, b.Phases())
		for _, inj := range injectionShapes {
			inj.Bit = bit
			o := observe(t, b, false, shot{phase: phase, delay: delay, inj: inj}, cfg.Window, cfg.QuiesceExit)
			moved := b.core.Cycle - b.barriers[phase] // barriers[p] is the cycle of ckpts[p]
			want := uint64(delay) + o.stats.Stepped
			deferrable := inj.Mode == engine.Toggle &&
				confined(b.DB(), inj, func(g *latch.Group, e, b int) bool { return g.NeverRead(e, b) || g.Tracked })
			if confined(b.DB(), inj, (*latch.Group).NeverRead) || deferrable && moved == 0 {
				want = 0
				free++
			}
			if moved != want || want == 0 && o.stats.Stepped != 0 {
				t.Fatalf("bit %d delay %d %+v: the model was clocked %d cycles, Stepped = %d, want %d clocked",
					bit, delay, inj, moved, o.stats.Stepped, want)
			}
			all++
			if inj.Mode == engine.Toggle && inj.Span <= 1 {
				toggles++
				if want == 0 {
					freeToggles++
				}
			}
		}
	}
	t.Logf("%d of %d injections clocked nothing, %d of %d single-bit toggles", free, all, freeToggles, toggles)
	if freeToggles*100 < toggles*85 {
		t.Errorf("%d of %d toggle injections clocked nothing, want at least 85%%", freeToggles, toggles)
	}
	if free*100 < all*75 {
		t.Errorf("%d of %d injections of any shape clocked nothing, want at least 65%%", free, all)
	}
}

// TestGoldenSetOnlyByReload holds the replay rule to one direction: the model
// leaves the record once and does not re-join it. In the source, golden is
// given the value true in one place, ReloadPhase; and over the injections of
// TestClockedCycleCount a backend that is on the record after Run was on it
// after Inject.
func TestGoldenSetOnlyByReload(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "p6lite.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sets []string // the functions that give golden anything but the constant false
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, _ := lhs.(*ast.SelectorExpr)
					v, _ := n.Rhs[min(i, len(n.Rhs)-1)].(*ast.Ident)
					if sel != nil && sel.Sel.Name == "golden" && (v == nil || v.Name != "false") {
						sets = append(sets, fn.Name.Name)
					}
				}
			case *ast.KeyValueExpr:
				if k, _ := n.Key.(*ast.Ident); k != nil && k.Name == "golden" {
					sets = append(sets, fn.Name.Name)
				}
			}
			return true
		})
	}
	if !slices.Equal(sets, []string{"ReloadPhase"}) {
		t.Errorf("golden is set in %v, want once, in ReloadPhase", sets)
	}

	bits := 2000
	if testing.Short() || raceDetector {
		bits = 200
	}
	cfg := engine.DefaultConfig()
	b := newPair(t, cfg).fast
	left := 0
	rng := rand.New(rand.NewPCG(18, 0))
	for _, bit := range b.DB().SampleBits(rng, bits, nil) {
		phase, delay := schedule(bit, b.Phases())
		for _, inj := range injectionShapes {
			inj.Bit = bit
			b.ReloadPhase(phase)
			for i := 0; i < delay; i++ {
				b.Step()
			}
			if !b.golden {
				t.Fatalf("bit %d: the delay took the model off the record", bit)
			}
			if err := b.Inject(inj); err != nil {
				t.Fatal(err)
			}
			injected, clean := b.golden, 0
			b.Run(cfg.Window, func() bool {
				chk := b.CheckBarrier()
				if chk.Busy {
					clean = -1
				}
				clean++
				return chk.StateOK && clean < cfg.QuiesceExit
			})
			if b.golden && !injected {
				t.Fatalf("bit %d %+v: off the record after Inject, on it after Run", bit, inj)
			}
			if !b.golden {
				left++
			}
		}
	}
	if left == 0 {
		t.Error("no injection left the record: nothing was tested")
	}
}

// FuzzEarlyExit feeds arbitrary shots to the same oracle.
func FuzzEarlyExit(f *testing.F) {
	p := newPair(f, engine.DefaultConfig())
	bit := func(group string, off int) uint32 { return uint32(findBit(f, p.fast, group, off)) }
	onTestend := func(bit uint32) uint16 { // the delay that ends on the first recorded testend
		phase, _ := schedule(int(bit), p.fast.Phases())
		return uint16(p.fast.barriers[phase+1] - p.fast.barriers[phase])
	}
	toEnd := uint16(p.fast.barriers[len(p.fast.barriers)-1] - p.fast.barriers[0]) // off the record from any phase
	f.Add(uint32(0), false, uint8(1), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint32(21909), true, uint8(1), uint16(0), uint16(17), uint16(0), uint32(0))   // rut.err.cycle, held
	f.Add(uint32(40000), true, uint8(3), uint16(200), uint16(90), uint16(0), uint32(0)) // span from a sticky bit
	f.Add(uint32(73700), false, uint8(9), uint16(0), uint16(196), uint16(0), uint32(0)) // span clipped at the population edge
	// The lazy delay and the never-read groups.
	f.Add(bit("prv.perf", 5), true, uint8(1), uint16(200), uint16(120), uint16(0), uint32(0))                  // idle, held for 200
	f.Add(bit("prv.perf", 8*64-3), false, uint8(6), uint16(0), uint16(60), uint16(0), uint32(0))               // never-read into live prv.mode.spare
	f.Add(bit("rut.cap.par", 0), false, uint8(3), uint16(0), uint16(60), uint16(0), uint32(0))                 // live into idle rut.hist
	f.Add(bit("prv.trace", 70), false, uint8(1), uint16(0), uint16(0), uint16(0), uint32(0))                   // never-read, delay 0
	f.Add(bit("prv.trace", 70), true, uint8(2), uint16(0), uint16(196), uint16(0), uint32(0))                  // never-read, delay 196
	f.Add(bit("fxu.gpr", 70), false, uint8(1), uint16(0), onTestend(bit("fxu.gpr", 70)), uint16(0), uint32(0)) // live, at a recorded testend
	f.Add(bit("rut.hist", 9), false, uint8(1), uint16(0), onTestend(bit("rut.hist", 9)), uint16(0), uint32(0)) // never-read, same
	f.Add(bit("prv.trace.ptr", 2), false, uint8(1), uint16(0), uint16(50), uint16(300), bit("fxu.gpr", 130))   // a live Inject after lazy Steps
	f.Add(bit("fxu.gpr", 130), false, uint8(1), uint16(0), uint16(50), uint16(300), bit("prv.thermal", 1))     // a never-read Inject after clocked ones
	f.Add(bit("idu.dac.tbl", 33), true, uint8(1), uint16(0), uint16(10), toEnd, bit("lsu.pf", 4))              // Steps off the end of the record
	// The watchdog past its limit and armed, and the IFU, IDU and FXU
	// clocks stopped: the core is declared hung in the gap before Run, and
	// every cycle after only ticks counters. Run stops after its first.
	f.Add(bit("prv.hang.cnt", 15), false, uint8(5), uint16(0), uint16(40), uint16(14), uint32(0))
	// A held bit toggled off its value while the force lasts: the next
	// cycle reads the toggled value and the force puts it back after it.
	f.Add(uint32(0), true, uint8(1), uint16(3), uint16(87), uint16(1), uint32(0))
	// The tracked groups: flips placed around the record's own accesses.
	for _, group := range trackedGroups {
		// The default AVP issues no floating-point operation and reloads no
		// ERAT entry in steady state: those groups have only some of these.
		if b, d, ok := p.fast.nearAccess(group, false); ok {
			f.Add(b, false, uint8(1), uint16(0), d-2, uint16(0), uint32(0)) // deferred one cycle, then read
			f.Add(b, false, uint8(1), uint16(0), d-1, uint16(0), uint32(0)) // read in the next cycle
			f.Add(b, false, uint8(1), uint16(0), d, uint16(0), uint32(0))   // just after the read
			f.Add(b, true, uint8(1), uint16(0), d-2, uint16(0), uint32(0))  // held: stays on the clocked path
		}
		if b, d, ok := p.fast.nearAccess(group, true); ok {
			f.Add(b, false, uint8(1), uint16(0), d-1, uint16(0), uint32(0)) // overwritten in the next cycle
			f.Add(b, false, uint8(2), uint16(0), d-1, uint16(0), uint32(0)) // and the bit beside it
		}
		if dead, ok := p.fast.deadBit(group); ok {
			f.Add(dead, false, uint8(1), uint16(0), uint16(40), uint16(0), uint32(0))                // never read
			f.Add(dead, false, uint8(1), uint16(0), uint16(40), uint16(300), bit("prv.hang.cnt", 3)) // then a live Inject
			f.Add(dead, false, uint8(1), uint16(0), uint16(40), uint16(300), dead+1)                 // then another dead one
			f.Add(dead, false, uint8(1), uint16(0), uint16(40), toEnd, bit("lsu.pf", 4))             // Steps off the end of the record
		}
	}
	for _, group := range []string{"fxu.gpr", "fpu.fpr"} {
		for _, in := range []bool{true, false} { // in and out of the retired testcase's signature
			if b, d, ok := p.fast.signatureBit(group, in); ok {
				f.Add(b, false, uint8(1), uint16(0), d-1, uint16(0), uint32(0)) // the cycle before the testend
				f.Add(b, false, uint8(1), uint16(0), d, uint16(0), uint32(0))   // at it, after its check
			}
		}
	}
	f.Add(bit("fxu.gpr", 32*64-2), false, uint8(4), uint16(0), uint16(30), uint16(0), uint32(0))      // tracked into live fxu.gpr.par
	f.Add(bit("lsu.erat.ctl", 64*4-1), false, uint8(3), uint16(0), uint16(30), uint16(0), uint32(0))  // tracked into live lsu.erat.par
	f.Add(bit("lsu.stq.addr", 24*64-1), false, uint8(2), uint16(0), uint16(30), uint16(0), uint32(0)) // tracked into tracked lsu.stq.data
	f.Add(bit("ifu.fb.cnt", 3), false, uint8(3), uint16(0), uint16(30), uint16(0), uint32(0))         // live into tracked ifu.bht
	// Bits outside the read sets of groups the model reads, toggled and held:
	// they take the never-read path although their groups are read.
	for _, unread := range []uint32{
		bit("ifu.gptr", 64+5),         // a unit GPTR ring's entry past the first
		bit("prv.gptr", 64*3+9),       // prv.gptr past its first entry
		bit("prv.mode.spare", 64*3+7), // prv.mode.spare past its first entry
		bit("lsu.erat.ctl", 4*5+2),    // an ERAT ctl bit beside the valid bit
		bit("prv.mode.checker", 50),   // a checker enable no checker owns
		bit("prv.mode.recovery", 3),   // a spare recovery mode bit
		bit("lsu.gptr", 20),           // past a GPTR ring's fields, in the read entry: read
		bit("fxu.mode", 40),           // a MODE ring's spare bit, in the read entry: read
	} {
		f.Add(unread, false, uint8(1), uint16(0), uint16(40), uint16(0), uint32(0))
		f.Add(unread, true, uint8(1), uint16(200), uint16(40), uint16(0), uint32(0))
	}
	f.Add(bit("prv.gptr", 62), false, uint8(4), uint16(0), uint16(40), uint16(0), uint32(0))   // read bits into unread ones
	f.Add(bit("ifu.gptr", 128-4), true, uint8(8), uint16(0), uint16(40), uint16(0), uint32(0)) // unread bits into the read idu.d1.ir
	f.Fuzz(func(t *testing.T, bit uint32, sticky bool, span uint8, duration, delay, gap uint16, then uint32) {
		total := p.fast.DB().TotalBits()
		s := shot{
			delay: int(delay % 1024),
			inj: engine.Injection{
				Bit:      int(bit) % total,
				Mode:     engine.Toggle,
				Span:     int(span % 16),
				Duration: int(duration),
			},
			gap:  int(gap % 8192),
			then: int(then) % total,
		}
		if sticky {
			s.inj.Mode = engine.Sticky
		}
		s.phase, _ = schedule(s.inj.Bit, p.fast.Phases())
		p.same(t, s, 50_000, 2)
	})
}

// trackedGroups are the latch groups behind latch.Tracked handles.
var trackedGroups = []string{"ifu.bht", "fxu.gpr", "fpu.fpr", "lsu.erat.vpn", "lsu.erat.ppn", "lsu.erat.ctl", "lsu.stq.addr", "lsu.stq.data"}

// nearAccess finds a word of a tracked group that the record reads (def
// false) or overwrites (def true) between 3 and 900 cycles after the phased
// checkpoint its first bit is scheduled at, and returns that bit and the
// distance.
func (b *Backend) nearAccess(group string, def bool) (bit uint32, delay uint16, ok bool) {
	g, _ := b.DB().GroupByName(group)
	for e := 0; e < g.Entries; e++ {
		bit := g.Offset() + e*g.Width
		phase, _ := schedule(bit, b.Phases())
		for c, d := range b.log.Accesses(g, e) {
			if at := int64(c) - int64(b.barriers[phase]); d == def && at >= 3 && at < 900 {
				return uint32(bit), uint16(at), true
			}
		}
	}
	return 0, 0, false
}

// deadBit returns the first bit of a tracked group's last word that the
// record never accesses; the store queue and the ERAT's valid bits have none.
func (b *Backend) deadBit(group string) (bit uint32, ok bool) {
	g, _ := b.DB().GroupByName(group)
next:
	for e := g.Entries - 1; e >= 0; e-- {
		for range b.log.Accesses(g, e) {
			continue next
		}
		return uint32(g.Offset() + e*g.Width), true
	}
	return 0, false
}

// signatureBit finds a bit of a register file that is (in) or is not in the
// signature mask of the testcase that retires first after the phased
// checkpoint the bit is scheduled at, and the distance to that testend.
func (b *Backend) signatureBit(group string, in bool) (bit uint32, delay uint16, ok bool) {
	g, _ := b.DB().GroupByName(group)
	for i := 0; i < g.Bits(); i++ {
		phase, _ := schedule(g.Offset()+i, b.Phases())
		tc := b.prog.Testcases[phase]
		mask := tc.GPRMask
		if group == "fpu.fpr" {
			mask = tc.FPRMask
		}
		if mask>>(i/g.Width)&1 != 0 == in {
			return uint32(g.Offset() + i), uint16(b.barriers[phase+1] - b.barriers[phase]), true
		}
	}
	return 0, 0, false
}

// liveState is captureState with the never-read latch bits blanked: the
// state the model can read.
func liveState(c *proc.Core) fullState {
	st := captureState(c)
	w := 0
	for _, g := range c.DB().Groups() {
		for e := 0; e < g.Entries; e++ {
			st.latches[w] &= g.ReadMask(e)
			w++ // storage is one word per entry, in registration order
		}
	}
	return st
}

// unreadBits returns the never-read bits of db's groups that the model
// reads (scan and tracked groups with bits outside their read sets) and
// those of the groups it does not read at all (idle).
func unreadBits(db *latch.DB) (beside, whole []int) {
	for _, g := range db.Groups() {
		for i := 0; i < g.Bits(); i++ {
			switch e, b := i/g.Width, i%g.Width; {
			case !g.NeverRead(e, b):
			case g.Idle:
				whole = append(whole, g.Offset()+i)
			default:
				beside = append(beside, g.Offset()+i)
			}
		}
	}
	return beside, whole
}

// neverReadTrial steps two backends in the same state eagerly, side by side,
// through two testends past cycle at (or limit cycles, for a machine that
// stops retiring them), letting disturb loose on a's latch database after
// cycle at. Every Event, every CheckBarrier and, at the end, Verdict, FIR
// poll and all state inside the read sets must be equal; what names the
// trial in a failure.
func neverReadTrial(t *testing.T, what string, a, b *Backend, at, limit int, disturb func(db *latch.DB)) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Log(what)
		}
	}()
	ends := 0
	for cyc := 0; ends < 2 && cyc < limit; cyc++ {
		if cyc == at {
			disturb(a.DB())
		}
		ev := a.eagerStep()
		if ev != b.eagerStep() {
			t.Fatalf("events differ at cycle %d", cyc)
		}
		if ev.Barrier {
			if ca, cb := a.CheckBarrier(), b.CheckBarrier(); ca != cb {
				t.Fatalf("barrier checks differ at cycle %d: %+v, undisturbed %+v", cyc, ca, cb)
			}
			if cyc >= at {
				ends++
			}
		}
	}
	if va, vb := a.Verdict(), b.Verdict(); va != vb {
		t.Fatalf("verdicts differ: %+v, undisturbed %+v", va, vb)
	}
	if fa, fb := a.FIRNames(), b.FIRNames(); !slices.Equal(fa, fb) {
		t.Fatalf("FIR polls differ: %v, undisturbed %v", fa, fb)
	}
	diffStates(t, liveState(a.Core()), liveState(b.Core()))
}

// TestIdleMeansIdle is the behavioural half of the never-read contract, one
// bit at a time: a flip of a bit outside its group's read set, at any cycle
// of any phase, leaves every latch bit inside the read sets, every array
// cell and every memory byte exactly where a fault-free model has them a
// full testcase later. Each phase samples 20 bits beside the read bits of
// scan and tracked groups and 20 of idle groups.
func TestIdleMeansIdle(t *testing.T) {
	p := newPair(t, engine.DefaultConfig())
	db := p.fast.DB()
	rng := rand.New(rand.NewPCG(18, 7))
	beside, whole := unreadBits(db)
	sample := func(pop []int) []int {
		out := make([]int, 20)
		for i, k := range rng.Perm(len(pop))[:len(out)] {
			out[i] = pop[k]
		}
		return out
	}
	for phase := 0; phase < p.fast.Phases(); phase++ {
		for _, bit := range append(sample(beside), sample(whole)...) {
			p.fast.ReloadPhase(phase)
			p.slow.ReloadPhase(phase)
			what := fmt.Sprintf("phase %d bit %d", phase, bit)
			neverReadTrial(t, what, p.fast, p.slow, rng.IntN(400), 5000, func(db *latch.DB) { db.Flip(bit) })
			// Nothing writes an idle group either: its flip is still there.
			if g, _, _ := db.Locate(bit); g.Idle && db.Peek(bit) == p.slow.DB().Peek(bit) {
				t.Fatalf("%s: the flip did not survive", what)
			}
		}
	}
}

// TestNeverReadUnderFaults is the same contract with the machine off the
// fault-free trajectory, where the error paths run — recovery, checkstop,
// hang, silent corruption with the checkers masked, escalation with
// recovery off, the periphery's queues: both backends carry the same live
// fault, and one of them has every never-read bit — of the idle groups and
// beside the read sets of the scan and tracked ones —
// scrambled at a random cycle. If any model code read one of those bits, on
// any path, the two would part.
func TestNeverReadUnderFaults(t *testing.T) {
	const hangCycles = 8000 // 3 x HangLimit and the recovery attempts between
	cases := []struct {
		name   string
		mut    func(*engine.Config)
		group  string
		bit    int
		inj    engine.Injection
		expect func(b *Backend) bool
	}{
		{"recovery", nil, "fxu.mode", 24, engine.Injection{Mode: engine.Toggle},
			func(b *Backend) bool { v := b.Verdict(); return v.Recoveries > 0 && !v.Checkstop }},
		// A 200-cycle hold on r0 is detected from every start a trial can draw.
		{"recovery-storm", nil, "fxu.gpr", 17, engine.Injection{Mode: engine.Sticky, Duration: 200},
			func(b *Backend) bool { return b.Verdict().Detected }},
		{"checkstop", nil, "lsu.mode", 5, engine.Injection{Mode: engine.Toggle},
			func(b *Backend) bool { return b.Verdict().Checkstop }},
		{"hang", nil, "ifu.mode", 18, engine.Injection{Mode: engine.Toggle},
			func(b *Backend) bool { return b.Core().HangDetected() }},
		{"raw", func(c *engine.Config) { c.CheckersOn = false }, "fxu.gpr", 64*3 + 17, engine.Injection{Mode: engine.Sticky},
			func(b *Backend) bool { return !b.Verdict().Detected }},
		{"no-recovery", func(c *engine.Config) { c.RecoveryOn = false }, "fxu.mode", 24, engine.Injection{Mode: engine.Toggle},
			func(b *Backend) bool { return b.Verdict().Checkstop }},
		{"periphery", func(c *engine.Config) { c.Proc.EnableNest = true }, "nest.mode", 2, engine.Injection{Mode: engine.Toggle},
			func(b *Backend) bool { return slices.Contains(b.FIRNames(), "ring.nest") }},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.DefaultConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			p := newPair(t, cfg)
			inj := tc.inj
			inj.Bit = findBit(t, p.fast, tc.group, tc.bit)
			rng := rand.New(rand.NewPCG(18, uint64(ci)))
			// The scramble draws from a stream of its own, so the trials'
			// schedule does not hang on how many bits are never read.
			noise := rand.New(rand.NewPCG(19, uint64(ci)))
			beside, whole := unreadBits(p.fast.DB())
			unread := append(beside, whole...)
			scramble := func(db *latch.DB) {
				for _, bit := range unread {
					if noise.Uint64()&1 != 0 {
						db.Flip(bit)
					}
				}
			}
			for trial := 0; trial < 6; trial++ {
				phase, delay := rng.IntN(p.fast.Phases()), rng.IntN(197)
				for _, b := range []*Backend{p.fast, p.slow} {
					b.ReloadPhase(phase)
					for i := 0; i < delay; i++ {
						b.eagerStep()
					}
					if err := b.Inject(inj); err != nil {
						t.Fatal(err)
					}
				}
				neverReadTrial(t, fmt.Sprintf("trial %d", trial), p.fast, p.slow, rng.IntN(600), hangCycles, scramble)
				if !tc.expect(p.slow) {
					t.Fatalf("trial %d: the live fault did not do what the case is named for: %+v", trial, p.slow.Verdict())
				}
			}
		})
	}
}

// latchBlocks returns the latch blocks img's delta holds and the latch
// blocks db marks dirty, and db's block count: what a phased reload
// rewrites, and what the cycles since the last one left it to rewrite.
func latchBlocks(ck *proc.ModelCheckpoint, db *latch.DB) (delta, dirty, total int) {
	delta = reflect.ValueOf(ck).Elem().FieldByName("latches").Elem().FieldByName("delta").Elem().FieldByName("blocks").Len()
	marks := reflect.ValueOf(db).Elem().FieldByName("Store").FieldByName("dirty")
	for i := 0; i < marks.Len(); i++ {
		if marks.Index(i).Uint() != 0 {
			dirty++
		}
	}
	return delta, dirty, marks.Len()
}

// TestIdleStateStaysClean pins what the model's state costs a reload, in
// latch blocks (eight words, one dirty mark): the deltas of the default
// configuration's twelve phased checkpoints, and the blocks 1,000
// fault-free cycles from phase 0 leave dirty. Counters, capture buffers and
// the debug trace are idle groups, which no cycle writes, so neither count
// holds a block for them (with them written every cycle: 492 and 51).
func TestIdleStateStaysClean(t *testing.T) {
	be, err := New(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := be.(*Backend)
	sum := 0
	for _, ck := range b.ckpts {
		d, _, _ := latchBlocks(ck, b.DB())
		sum += d
	}
	b.ReloadPhase(0)
	for range 1000 {
		b.core.Step()
	}
	_, dirty, total := latchBlocks(b.ckpts[0], b.DB())
	t.Logf("%d phased checkpoints: %d latch-delta blocks; 1,000 cycles from phase 0 dirty %d of %d blocks", len(b.ckpts), sum, dirty, total)
	if len(b.ckpts) != 12 || sum != 349 || dirty != 38 || total != 735 {
		t.Errorf("%d phased checkpoints hold %d latch-delta blocks, and 1,000 cycles from phase 0 dirty %d of %d blocks; want 12 holding 349, and 38 of 735",
			len(b.ckpts), sum, dirty, total)
	}
}

// TestCheckBarrierSeesEveryDataPage holds CheckBarrier's image comparison to
// the data area, page by page: at a stepped testend of each phase the check
// passes; a one-byte poke into any page of the area fails it, at an offset
// that moves from page to page and phase to phase, and undoing the poke
// passes it again; a poke at DataHi, the first byte past the area, does not
// fail it. The digest oracle agrees every time.
func TestCheckBarrierSeesEveryDataPage(t *testing.T) {
	be, err := New(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := be.(*Backend)
	m := b.core.Mem()
	poke := func(a uint64) (undo func()) {
		w := m.Read64(a)
		m.Write64(a, w^0xff<<(8*(a&7)))
		return func() { m.Write64(a, w) }
	}
	for phase := 0; phase < b.Phases(); phase++ {
		b.ReloadPhase(phase)
		for !b.eagerStep().Barrier {
		}
		check := func(what string, want bool) {
			t.Helper()
			if got, oracle := b.CheckBarrier().StateOK, b.digestOK(); got != want || oracle != want {
				t.Fatalf("phase %d, %s: CheckBarrier %v, digest check %v, want %v", phase, what, got, oracle, want)
			}
		}
		check("fault-free", true)
		pages := 0
		for page := b.prog.DataLo; page < b.prog.DataHi; page += 4096 {
			a := page + uint64(phase*1031+pages*4093)%4096
			undo := poke(a)
			check(fmt.Sprintf("poke at %#x", a), false)
			undo()
			check(fmt.Sprintf("poke at %#x undone", a), true)
			pages++
		}
		if pages != 12 {
			t.Fatalf("the data area spans %d pages, want 12", pages)
		}
		undo := poke(b.prog.DataHi)
		check("poke at DataHi", true)
		undo()
	}
}

// BenchmarkCheckBarrier times the check at one stepped testend of a
// fault-free run from phase 0: the masked signature and the data area's
// comparison with its phase's image (BenchmarkDigestRange times the digest
// it replaces).
func BenchmarkCheckBarrier(bb *testing.B) {
	be, err := New(engine.DefaultConfig())
	if err != nil {
		bb.Fatal(err)
	}
	b := be.(*Backend)
	b.ReloadPhase(0)
	for !b.eagerStep().Barrier {
	}
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		if !b.CheckBarrier().StateOK {
			bb.Fatal("a fault-free testend fails its check")
		}
	}
}

// TestHeldCountdownWords holds a bit of each word proc.Core.Advance writes by
// arithmetic — the countdown latches and rut.cap.par, over which the parity
// of one of them is kept — with and without a duration, at several instants
// of each phase. Such a force must follow every cycle, so Run clocks them one
// at a time, and it must end exactly as the stepped oracle does: the same
// RunStats, Verdict, callbacks and end cycle, and the same model state.
func TestHeldCountdownWords(t *testing.T) {
	p := newPair(t, engine.DefaultConfig())
	cfg := p.fast.cfg
	held := 0
	for _, g := range p.fast.DB().Groups() {
		if !p.fast.core.Ticks(g.Offset()) {
			continue
		}
		held++
		for b := 0; b < g.Width; b += 3 {
			for _, inj := range []engine.Injection{{Mode: engine.Sticky}, {Mode: engine.Sticky, Duration: 60}} {
				inj.Bit = g.Offset() + b
				for phase := 0; phase < p.fast.Phases(); phase += 3 {
					s := shot{phase: phase, delay: 37 * b % 197, inj: inj}
					p.same(t, s, cfg.Window, cfg.QuiesceExit)
					diffStates(t, liveState(p.fast.core), liveState(p.slow.core))
				}
			}
		}
	}
	if held != 6 {
		t.Fatalf("%d groups hold words Advance writes by arithmetic, want 6", held)
	}
}
