// Package p6lite adapts the latch-accurate POWER6-style core model
// (internal/proc under the AVP workload) as the default engine backend —
// the analogue of the paper's Awan accelerator plus its controlling host.
// Construction generates the AVP, warms the model to workload steady state,
// installs the dirty-tracking restore baseline and captures one phased
// checkpoint per testcase boundary. The backend schedules latch-bit faults
// (toggle and sticky mode) and clocks the model while monitoring the fault
// isolation registers and machine events; verification barriers are AVP
// testends, checked against the program's golden signatures and the data
// area of the phased checkpoint the fault-free run is at.
//
// The backend clocks no cycle on the fault-free trajectory construction
// recorded: the delay from a phased checkpoint to the injection instant is
// observed, not clocked, unless the flip lands on a latch bit the model can
// read; a flip confined to never-read bits — outside the read set its
// group's handles declare, so no handle can return them — leaves the model
// at its checkpoint, toggled or held; a flip in a tracked group (the
// register files, predictor, ERAT and store queue) stays out of the model
// until the cycle the recorded run first reads the flipped word, and for
// good if it overwrites the word first. In each case the recorded barriers
// are replayed to the caller instead, and a model once off the record stays
// off it (DESIGN.md "Early exit against golden").
//
// Nor does the backend restore a checkpoint no cycle is clocked from:
// ReloadPhase only names the phase, and the model is restored the first time
// something needs it — a catch-up, a flip into a bit the model can read, a
// clocked cycle, Core. A fault confined to never-read bits, toggled or held,
// is deferred like a tracked toggle, for good, so an injection that stays on
// the record restores nothing, and until the model is restored the run's reads (Cycle, Verdict,
// FIRNames, CheckBarrier) are answered from the record.
package p6lite

import (
	"fmt"
	"slices"

	"sfi/internal/avp"
	"sfi/internal/engine"
	"sfi/internal/latch"
	"sfi/internal/proc"
)

// Name is the backend's registry name.
const Name = "p6lite"

func init() {
	engine.Register(Name, New)
	engine.RegisterCensus(Name, census)
}

// census enumerates the latch population without generating the AVP or
// warming the model: the core's latch inventory depends only on the proc
// configuration, so a fresh (cold) core's database is the full census.
func census(cfg engine.Config) (*latch.DB, error) {
	return proc.New(cfg.Proc).DB(), nil
}

// Backend owns one core model warmed for repeated injections.
type Backend struct {
	cfg  engine.Config
	core *proc.Core
	prog *avp.Program

	// The fault-free trajectory, recorded by New and shared read-only with
	// clones. ckpts[p] is the model after p testends of the third warm-up
	// pass, the phased checkpoint ReloadPhase(p) restores. barriers[j] is the
	// cycle of testend j of that pass and the testends that follow it, as far
	// as New says a run on the record can be asked for them. log is the same
	// cycles' access log of the tracked latch groups: the model's reads and
	// overwrites of every word, and the harness's own reads of the signature
	// registers at each testend.
	ckpts     []*proc.ModelCheckpoint
	barriers  []uint64
	log       *latch.AccessLog
	baseRecov uint64
	// polls[p] is what Verdict and FIRNames read off the model at ckpts[p]:
	// what they answer while the model is stale.
	polls []poll

	// phase is the checkpoint the last ReloadPhase named. stale: the model
	// has not been restored from it yet, and holds whatever the injection
	// before left in it. model restores it; until then nothing reads the
	// model, and the run is on the record at Cycle() = barriers[phase]+ahead.
	phase int
	stale bool
	// restores counts the checkpoint restores model has made.
	restores uint64

	// barrier is the number of testends observed since ckpts[0] (stepped or
	// replayed): the retired testcase is barrier-1 modulo the program's
	// count, and while golden holds it indexes barriers.
	barrier int
	// golden: every latch bit inside the read sets, every array cell and
	// all of memory are on the recorded trajectory at observed cycle Cycle()
	// and testend count barrier — but for a deferred flip, below. ReloadPhase
	// alone establishes it and a flip going into a bit the model can read
	// ends it: a model that has left the record does not re-join it.
	// It vouches only for changes made through this type: a caller that
	// writes the model through DB() or Core() after a ReloadPhase must reload
	// again before it trusts Step or Run.
	golden bool
	// deferred: Inject has kept the fault pend, made at observed cycle
	// flipAt, out of the model. Every bit of it is never read or (a toggle's)
	// in a tracked group, and the recorded run reads no flipped word before cycle
	// liveAt (latch.Never: not at all, or not before overwriting it; always,
	// for a flip confined to never-read bits), so up to there the faulty run
	// is the recorded one and replay goes on. A run
	// that wants cycle liveAt, or the end of the record, or another Inject,
	// has catchUp clock the model to flipAt, put it there (arming a held
	// fault's force as Inject would have), and go on live.
	// liveAt is latch.Never when nothing is deferred.
	deferred       bool
	pend           engine.Injection
	flipAt, liveAt uint64
	// ahead is the number of cycles Step and Run have observed by replay
	// without clocking the model, so the model itself is at Cycle()-ahead;
	// catchUp clocks them when something needs the model (a flip it can
	// read, a barrier past the record). unbilled of them were observed by
	// Step: the delay before an injection, which is no part of a run.
	ahead, unbilled uint64
	// stepped counts the cycles clocked on Run's behalf since Run last
	// reported them (RunStats.Stepped), catch-ups of its own replays
	// included.
	stepped uint64
	// progress is the cycle of the last instruction completion clock saw
	// since ReloadPhase, catch-ups included: Run's loss-of-progress watchdog
	// counts from it, so a run that replayed first is timed like one that
	// stepped.
	progress uint64

	// lastActivity is the recovery count at injection time, the baseline
	// for the quiesce busy check.
	lastActivity uint64

	// Active sticky force, if any. The forced bit is resolved to its
	// storage word once, at injection, so the per-cycle re-force is one
	// masked word access.
	stickyOn    bool
	stickyBit   latch.BitRef
	stickyVal   bool
	stickyUntil uint64 // cycle bound; 0 = forever
	// stickyTicks: the held bit lies in a word proc.Core.Advance writes by
	// arithmetic (Core.Ticks), so the force must follow every cycle.
	stickyTicks bool
}

// New builds, warms and checkpoints a backend.
func New(cfg engine.Config) (engine.Backend, error) {
	cfg.AVP.MemBytes = cfg.Proc.MemBytes
	prog, err := avp.Generate(cfg.AVP)
	if err != nil {
		return nil, err
	}
	c := proc.New(cfg.Proc)
	c.Mem().LoadProgram(0, prog.Words)
	c.SetCheckersEnabled(cfg.CheckersOn)
	c.SetRecoveryEnabled(cfg.RecoveryOn)

	// Warm: two full passes reach AVP steady state (memory and registers
	// in their periodic regime).
	n := cfg.AVP.Testcases
	for ends := 0; ends < 2*n; ends++ {
		if err := c.RunToTestEnd(); err != nil {
			return nil, fmt.Errorf("p6lite: warm-up: %w", err)
		}
	}
	// Install the dirty-tracking restore baseline at steady state: the
	// phased checkpoints below are captured as sparse deltas against it,
	// and every per-injection reload rewrites only the state that differs.
	c.InstallRestoreBaseline()
	b := &Backend{
		cfg:       cfg,
		core:      c,
		prog:      prog,
		baseRecov: c.Recoveries,
	}
	// One checkpoint per testcase boundary of a third full pass, and over the
	// same cycles the testend cycles and the access log of the tracked
	// groups. The harness checks the retired testcase's signature at every
	// testend, as CheckBarrier will, so its reads are in the log beside the
	// model's. It also holds the data area to the testcase's digest and to
	// the phase's checkpoint, which CheckBarrier compares it with instead:
	// every residue of the testend count modulo n is checked, so an area
	// equal to its phase's image has the digest the program recorded. The
	// record ends at testend n+QuiesceExit: a run on it is the fault-free
	// run, which quiesces QuiesceExit testends after an injection a campaign
	// makes before testend n+1 (phase n-1 at the latest, less than a testcase
	// later). A run that wants more is clocked from there on.
	b.ckpts = append(b.ckpts, c.SaveCheckpoint())
	b.barriers = append(b.barriers, c.Cycle)
	c.DB().Record(&c.Cycle)
	for end := 1; end <= n+cfg.QuiesceExit; end++ {
		if err := c.RunToTestEnd(); err != nil {
			return nil, fmt.Errorf("p6lite: checkpoint pass: %w", err)
		}
		tc := prog.Testcases[(end-1)%n]
		if c.MaskedSignature(tc.GPRMask, tc.FPRMask, tc.SPRMask) != tc.SigMasked {
			return nil, fmt.Errorf("p6lite: the fault-free pass fails its own signature check at testend %d", end)
		}
		if end < n {
			b.ckpts = append(b.ckpts, c.SaveCheckpoint())
		}
		if c.Mem().DigestRange(prog.DataLo, prog.DataHi) != tc.MemDigest ||
			!c.MemoryMatches(b.ckpts[end%n], prog.DataLo, prog.DataHi) {
			return nil, fmt.Errorf("p6lite: the fault-free pass's data area at testend %d is not its testcase's and its phase's", end)
		}
		b.barriers = append(b.barriers, c.Cycle)
	}
	b.log = c.DB().StopRecording()
	// Poll each checkpoint as Verdict and FIRNames poll the model, ending on
	// phase 0, where the model is left, and not golden: what a caller does to
	// a new backend's model before its first ReloadPhase is not on the record.
	b.polls = make([]poll, len(b.ckpts))
	for p := len(b.ckpts) - 1; p >= 0; p-- {
		c.RestoreCheckpoint(b.ckpts[p])
		b.polls[p] = poll{b.verdict(), b.firNames()}
	}
	return b, nil
}

// poll is what Verdict and FIRNames read off a model.
type poll struct {
	verdict engine.Verdict
	fir     []string
}

// Clone duplicates a warmed backend without re-generating the AVP or
// re-running the warm-up and checkpoint passes: it builds a fresh model,
// adopts the prototype's restore baseline (shared read-only) and reloads
// the first phased checkpoint. The clone shares the prototype's immutable
// checkpoints and program but owns all mutable model state, so prototype
// and clones can run injections concurrently.
func (b *Backend) Clone() engine.Backend {
	c := proc.New(b.cfg.Proc)
	c.SetCheckersEnabled(b.cfg.CheckersOn)
	c.SetRecoveryEnabled(b.cfg.RecoveryOn)
	c.AdoptBaselineFrom(b.core)
	nb := &Backend{
		cfg:       b.cfg,
		core:      c,
		prog:      b.prog,
		ckpts:     b.ckpts,
		barriers:  b.barriers,
		log:       b.log,
		baseRecov: b.baseRecov,
		polls:     b.polls,
	}
	// Synchronize counters and capture state with a (dirty-path) reload: the
	// model starts at the adopted baseline, which is no checkpoint.
	nb.ReloadPhase(0)
	nb.model()
	return nb
}

// Core exposes the underlying model (bench and experiment access; the
// campaign layer stays behind the Backend interface), restored from the
// phased checkpoint ReloadPhase named if it was not yet.
func (b *Backend) Core() *proc.Core { return b.model() }

// DB exposes the model's latch database without restoring the model: the
// population and its metadata are the same whatever the model holds, but a
// latch value read through it is the model's, which Core brings up to date
// after a ReloadPhase.
func (b *Backend) DB() *latch.DB { return b.core.DB() }

// Phases returns the phased-checkpoint count (one per AVP testcase).
func (b *Backend) Phases() int { return len(b.prog.Testcases) }

// ReloadPhase resets the testcase tracking to phased checkpoint p, clearing
// any sticky force. It does not restore the model: model does, the first
// time something needs it.
func (b *Backend) ReloadPhase(p int) {
	b.phase, b.stale = p, true
	b.stickyOn = false
	b.barrier = p
	b.golden = true
	b.deferred, b.liveAt = false, latch.Never
	b.ahead, b.unbilled, b.progress = 0, 0, 0
}

// replay observes up to limit cycles of the record without clocking the
// model: as far as the next recorded testend, which it counts and reports.
// It observes none if they would take in the cycle that reads a deferred
// flip, the model is off the record or the record has run out: the caller
// then catches up and clocks.
func (b *Backend) replay(limit uint64) (n uint64, testend bool) {
	if !b.onRecord() {
		return 0, false
	}
	toEnd := b.barriers[b.barrier+1] - b.Cycle()
	if n = min(toEnd, limit); b.Cycle()+n >= b.liveAt {
		return 0, false
	}
	b.ahead += n
	if n == toEnd {
		b.barrier++
	}
	return n, n == toEnd
}

// onRecord reports whether the model is on the recorded trajectory with a
// recorded testend still ahead of it.
func (b *Backend) onRecord() bool { return b.golden && b.barrier+1 < len(b.barriers) }

// model returns the core, first restoring it from the phased checkpoint
// ReloadPhase named if it is stale.
func (b *Backend) model() *proc.Core {
	if b.stale {
		b.core.RestoreCheckpoint(b.ckpts[b.phase])
		b.stale = false
		b.restores++
	}
	return b.core
}

// Restores returns how many times the model has been restored from a phased
// checkpoint since the backend was built: once for a clone, then at most
// once per ReloadPhase, and not at all for an injection that stays on the
// record.
func (b *Backend) Restores() uint64 { return b.restores }

// Step observes one cycle. While the model is on the record it is not
// clocked: the cycle is counted, and a recorded testend is reported, exactly
// as clocking would have — a fault-free cycle fires no other event.
// Otherwise the model is caught up and clocked, re-applying an active sticky
// force.
func (b *Backend) Step() engine.Event {
	if n, testend := b.replay(1); n != 0 {
		b.unbilled++
		return engine.Event{Barrier: testend}
	}
	b.catchUp()
	return b.step()
}

// step clocks one cycle and counts the testend it retires.
func (b *Backend) step() engine.Event {
	_, ev := b.advance(1)
	if ev.TestEnd {
		b.barrier++
	}
	return engine.Event{Barrier: ev.TestEnd, Halted: ev.Halted}
}

// advance clocks at least one and at most limit cycles through
// proc.Core.Advance, notes a completion and maintains the sticky force, and
// returns how many it clocked and the event of the first; the others fire
// none. A held bit that holds its value and lies outside the words Advance
// writes by arithmetic is one its counter-only cycles leave as it is, so
// forcing it after each of them would change nothing: the force follows the
// call. A held bit inside those words, or one a flip has moved off its value
// since the last force, is forced after the first cycle, so the call clocks
// one; and a force that expires does so at its cycle.
func (b *Backend) advance(limit uint64) (uint64, proc.Event) {
	if b.stickyOn {
		switch {
		case b.stickyTicks || b.stickyBit.Get() != b.stickyVal:
			limit = 1
		case b.stickyUntil != 0:
			limit = min(limit, b.stickyUntil-b.core.Cycle)
		}
	}
	done := b.core.Completed
	k, ev := b.core.Advance(limit)
	if b.core.Completed != done {
		b.progress = b.core.Cycle
	}
	if b.stickyOn {
		if b.stickyUntil != 0 && b.core.Cycle >= b.stickyUntil {
			b.stickyOn = false
		} else {
			b.stickyBit.Set(b.stickyVal)
		}
	}
	return k, ev
}

// catchUp restores a stale model and clocks the cycles observed by replay,
// so that the model itself is at Cycle(), putting a deferred flip into it at
// the cycle it was made — which takes the model off the record. Their
// testends are already counted; those Run observed are billed to it.
func (b *Backend) catchUp() {
	b.model()
	b.stepped += b.ahead - b.unbilled
	b.unbilled = 0
	if b.deferred {
		b.clockAhead(b.flipAt - b.core.Cycle)
		b.put(b.pend, b.flipAt)
		b.deferred, b.liveAt, b.golden = false, latch.Never, false
	}
	b.clockAhead(b.ahead)
}

// clockAhead clocks n of the cycles the model is behind.
func (b *Backend) clockAhead(n uint64) {
	for n > 0 {
		k, _ := b.advance(n)
		n -= k
		b.ahead -= k
	}
}

// span returns the number of bits inj flips: its span, clipped to the
// population.
func (b *Backend) span(inj engine.Injection) int {
	return min(max(inj.Span, 1), b.core.DB().TotalBits()-inj.Bit)
}

// put puts inj, made at cycle now, into the model as it is: it inverts the
// fault's bits and, for a held fault, arms the force that holds the first of
// them at its new value until the duration, counted from now, expires.
func (b *Backend) put(inj engine.Injection, now uint64) {
	db := b.model().DB()
	first := db.BitRef(inj.Bit)
	v := first.Flip()
	for i, n := 1, b.span(inj); i < n; i++ {
		db.Flip(inj.Bit + i)
	}
	if inj.Mode != engine.Sticky {
		return
	}
	b.stickyOn = true
	b.stickyBit = first
	b.stickyVal = v
	b.stickyTicks = b.core.Ticks(inj.Bit)
	b.stickyUntil = 0
	if inj.Duration > 0 {
		b.stickyUntil = now + uint64(inj.Duration)
	}
}

// Inject applies a fault at the current observed cycle: the bit (and the rest
// of its span) is flipped, and in sticky mode the flipped value is re-forced
// after every subsequent cycle until the duration expires. It asks each
// flipped bit whether it is never read (latch.Group.NeverRead: outside its
// group's read set): on the record, a fault confined to such bits, held or
// toggled, stays out of the model, as a toggle into a tracked word does, and
// the run replays the record to quiesce. It also snapshots the recovery
// count as the quiesce baseline for CheckBarrier's busy test.
func (b *Backend) Inject(inj engine.Injection) error {
	db := b.core.DB()
	if inj.Bit < 0 || inj.Bit >= db.TotalBits() {
		return fmt.Errorf("p6lite: injection bit %d out of range [0,%d)", inj.Bit, db.TotalBits())
	}
	if b.deferred {
		b.catchUp() // a second fault: the first goes into the model
	}
	// A flip commutes with any number of cycles exactly when no cycle reads
	// it. live is the first cycle whose clocking can tell the faulty run from
	// the recorded one: never for a bit outside its group's read set, which
	// no handle returns; for a toggled bit of a tracked word, on the record,
	// the cycle the record first reads the word, unless it overwrites it
	// first; the next one for anything else. The fault is as live as its
	// first-read bit (a held fault holds the first of them).
	now, live := b.Cycle(), latch.Never
	for i, n := 0, b.span(inj); i < n && live > now; i++ {
		g, e, bit := db.Locate(inj.Bit + i)
		switch {
		case g.NeverRead(e, bit):
		case g.Tracked && inj.Mode == engine.Toggle && b.onRecord():
			live = min(live, b.log.LiveAt(g, e, now))
		default:
			live = now
		}
	}
	switch {
	case live == now:
		// The cycles observed so far are clocked first, and the model
		// leaves the record.
		b.catchUp()
		b.golden = false
	case b.golden:
		// The model stays on the record up to cycle live, and the fault
		// stays out of it: catchUp puts it in, held or not, if anything
		// takes the model off the record first. The record's recovery
		// count is the model's.
		b.deferred, b.pend, b.flipAt, b.liveAt = true, inj, now, live
		b.lastActivity = b.baseRecov + b.polls[b.phase].verdict.Recoveries
		return nil
	}
	// Off the record, a never-read fault goes into the model as it is.
	b.put(inj, now)
	b.lastActivity = b.core.Recoveries
	return nil
}

// Run observes up to maxCycles, invoking onBarrier at every testend (if
// non-nil; returning false from the callback stops the run). The run also
// stops on halt, checkstop, a detected hang, or harness-level loss of
// forward progress (nothing completed for 2×HangLimit cycles).
//
// Run is two loops in sequence. While the model is on the record it is not
// clocked: the observed cycle goes to the next recorded testend, which is
// counted and handed to onBarrier exactly as stepping there would have — a
// fault-free machine fires no stop condition, CheckBarrier answers for the
// barrier being replayed, and the window clips a replayed testcase as it
// clips a stepped one. Where the record runs out under a callback still
// going, or the cycle before it reads a deferred flip, the model is caught up
// and clocked for the rest of the run, so a callback that never stops still
// sees every barrier and a flip is in the model before anything can read it.
// What Verdict reads afterwards (FIRs, checkstop, first-error capture,
// recovery and correction counts) a fault-free continuation does not change.
// The live loop clocks through proc.Core.Advance, so a stall's counter-only
// cycles cost their first and the arithmetic for the rest; they are clocked
// cycles all the same, in RunStats.Stepped as in Cycles.
func (b *Backend) Run(maxCycles int, onBarrier func() bool) (st engine.RunStats) {
	defer func() { st.Stepped, b.stepped = b.stepped, 0 }()
	start, window := b.Cycle(), uint64(max(maxCycles, 0))
	for st.Cycles < window {
		n, testend := b.replay(window - st.Cycles)
		if n == 0 {
			b.catchUp()
			break
		}
		st.Cycles += n
		if testend {
			st.Barriers++
			if onBarrier != nil && !onBarrier() {
				return st
			}
		}
	}
	c := b.core
	harnessLimit := uint64(2 * c.Config().HangLimit)
	for st.Cycles < window {
		// No cycle but the first of an advance can fire an event or a stop
		// condition, and none completes an instruction, so the advance
		// stops short of the cycle the no-progress check fires at. A stop
		// condition that already holds holds after the first cycle too (a
		// flip can declare the core hung), so the advance is that cycle.
		n := uint64(1)
		if last := max(b.progress, start) + harnessLimit; last >= c.Cycle && !c.HangDetected() {
			n = min(window-st.Cycles, last+1-c.Cycle)
		}
		k, ev := b.advance(n)
		b.stepped += k
		st.Cycles += k
		if ev.TestEnd {
			b.barrier++
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
		case c.Cycle-max(b.progress, start) > harnessLimit:
			st.NoProgress = true
		default:
			continue
		}
		break // a stop condition fired
	}
	return st
}

// CheckBarrier verifies architected state against the retired testcase's
// golden signature, and the data area against the phased checkpoint the
// fault-free run is at (New holds that image to the testcase's memory
// digest), and reports whether recovery activity happened since the previous
// barrier. A replayed barrier (the model is behind the observed cycle) is a
// fault-free one: its state is the golden state, and the recovery count
// cannot have moved — nor, with the model stale, is the run in recovery.
func (b *Backend) CheckBarrier() engine.BarrierCheck {
	if b.stale {
		return engine.BarrierCheck{StateOK: true}
	}
	c := b.core
	ok := b.ahead != 0
	if !ok {
		n := len(b.prog.Testcases)
		tc := b.prog.Testcases[(b.barrier+n-1)%n] // the one Step just retired
		ok = c.MaskedSignature(tc.GPRMask, tc.FPRMask, tc.SPRMask) == tc.SigMasked &&
			c.MemoryMatches(b.ckpts[b.barrier%n], b.prog.DataLo, b.prog.DataHi)
	}
	busy := c.Recoveries != b.lastActivity || c.InRecovery()
	if busy {
		b.lastActivity = c.Recoveries
	}
	return engine.BarrierCheck{StateOK: ok, Busy: busy}
}

// Verdict polls the machine-check state: checkstop, first-error trace,
// recovery count since construction, and correction evidence. A stale model
// answers what its checkpoint does, which a fault-free run does not change.
func (b *Backend) Verdict() engine.Verdict {
	if b.stale {
		return b.polls[b.phase].verdict
	}
	return b.verdict()
}

// verdict polls the model as it is.
func (b *Backend) verdict() engine.Verdict {
	c := b.core
	v := engine.Verdict{
		Checkstop:  c.Checkstopped(),
		Recoveries: c.Recoveries - b.baseRecov,
		Corrected:  c.ArrayCorrectedCount() > 0 || c.AnyFIR(),
	}
	if id, cyc, ok := c.FirstError(); ok {
		v.Detected = true
		// id is read from rut.err.src, an injectable latch: a held flip can
		// leave it naming no checker at all.
		if chk := c.Checkers(); id < len(chk) {
			v.FirstChecker = chk[id].Name
		} else {
			v.FirstChecker = fmt.Sprintf("invalid-checker-%d", id)
		}
		v.DetectCycle = cyc
	}
	return v
}

// FIRNames returns the names of the checkers whose fault-isolation-register
// bits are currently set — the FIR poll the paper's host does after each
// injection, used for structured trace events. A stale model answers what
// its checkpoint does.
func (b *Backend) FIRNames() []string {
	if b.stale {
		return slices.Clone(b.polls[b.phase].fir)
	}
	return b.firNames()
}

// firNames polls the model's FIRs as they are.
func (b *Backend) firNames() []string {
	var out []string
	for _, ch := range b.core.Checkers() {
		if b.core.FIRBit(ch.ID) {
			out = append(out, ch.Name)
		}
	}
	return out
}

// Cycle returns the current machine cycle as observed: the model's own
// cycle plus the cycles Run replayed without clocking it, counted from its
// checkpoint's while the model is stale.
func (b *Backend) Cycle() uint64 {
	if b.stale {
		return b.barriers[b.phase] + b.ahead
	}
	return b.core.Cycle + b.ahead
}
