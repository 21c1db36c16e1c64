package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sfi/internal/engine"
	_ "sfi/internal/engine/p6lite"
	"sfi/internal/latch"
	"sfi/internal/proc"
)

// fastRunnerConfig keeps unit tests quick.
func fastRunnerConfig() RunnerConfig {
	cfg := DefaultRunnerConfig()
	cfg.AVP.Testcases = 6
	cfg.AVP.BodyOps = 14
	return cfg
}

func fastCampaignConfig() CampaignConfig {
	c := DefaultCampaignConfig()
	c.Runner = fastRunnerConfig()
	c.Flips = 120
	return c
}

func findBit(t *testing.T, db *latch.DB, group string, entry, bitInEntry int) int {
	t.Helper()
	g, ok := db.GroupByName(group)
	if !ok {
		t.Fatalf("no group %q", group)
	}
	for b := 0; b < db.TotalBits(); b++ {
		if gg, e, bb := db.Locate(b); gg == g && e == entry && bb == bitInEntry {
			return b
		}
	}
	t.Fatalf("bit not found in %s", group)
	return -1
}

func TestRunnerDeterministicPerBit(t *testing.T) {
	r1, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	bits := []int{100, 5000, 20000, 40000}
	for _, b := range bits {
		if b >= r1.DB().TotalBits() {
			continue
		}
		a := r1.RunInjection(b)
		bb := r2.RunInjection(b)
		if a.Outcome != bb.Outcome || a.Cycles != bb.Cycles || a.Recoveries != bb.Recoveries {
			t.Errorf("bit %d: results differ across identical runners: %+v vs %+v", b, a, bb)
		}
	}
}

func TestRunnerRepeatable(t *testing.T) {
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	bit := findBit(t, r.DB(), "fxu.gpr", 3, 12)
	a := r.RunInjection(bit)
	b := r.RunInjection(bit)
	if a.Outcome != b.Outcome || a.Cycles != b.Cycles {
		t.Errorf("same-runner repeat differs: %+v vs %+v", a, b)
	}
}

func TestInjectionIntoSpareModeVanishes(t *testing.T) {
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	bit := findBit(t, r.DB(), "prv.mode.spare", 2, 30)
	res := r.RunInjection(bit)
	if res.Outcome != Vanished {
		t.Errorf("spare mode bit flip: %v, want vanished", res.Outcome)
	}
	if res.Detected {
		t.Error("spare mode bit flip was detected")
	}
}

func TestInjectionIntoRingIntegrityCheckstops(t *testing.T) {
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	bit := findBit(t, r.DB(), "lsu.mode", 0, 3)
	res := r.RunInjection(bit)
	if res.Outcome != Checkstop {
		t.Fatalf("ring integrity flip: %v, want checkstop", res.Outcome)
	}
	if !res.Detected || res.FirstChecker != "ring.lsu" {
		t.Errorf("cause-effect trace wrong: detected=%v by=%q", res.Detected, res.FirstChecker)
	}
	if res.DetectLatency > 4 {
		t.Errorf("ring corruption detection latency %d too long", res.DetectLatency)
	}
}

// TestStickyErrCycleLatencyBounded holds a stuck-at on high bits of
// rut.err.cycle, the latch the first-error capture cycle is read back from.
// The capture parity checker stops the machine at once, and the cycle it
// reports is the forced one, far outside the run: the latency must be
// bounded by what was observed, not taken from the faulted register.
func TestStickyErrCycleLatencyBounded(t *testing.T) {
	cfg := DefaultRunnerConfig()
	cfg.Mode = engine.Sticky
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{40, 63} {
		bit := findBit(t, r.DB(), "rut.err.cycle", 0, b)
		res := r.RunInjection(bit)
		if res.Outcome != Checkstop || !res.Detected {
			t.Fatalf("bit %d (rut.err.cycle[%d]): %+v, want a detected checkstop", bit, b, res)
		}
		if res.DetectLatency > res.Cycles {
			t.Errorf("bit %d (rut.err.cycle[%d]): detect latency %d in a run of %d cycles",
				bit, b, res.DetectLatency, res.Cycles)
		}
	}
}

func TestInjectionLiveGPRTraced(t *testing.T) {
	// Sweep several live-register bits; at least one must be caught and
	// traced to the GPR parity checker with a recovery.
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for e := 1; e <= 8 && !caught; e++ {
		for b := 0; b < 64; b += 11 {
			res := r.RunInjection(findBit(t, r.DB(), "fxu.gpr", e, b))
			if res.Outcome == Corrected && res.FirstChecker == "fxu.gpr.par" {
				if res.Recoveries == 0 {
					t.Error("corrected without recovery count")
				}
				caught = true
				break
			}
		}
	}
	if !caught {
		t.Error("no live GPR flip was caught and traced")
	}
}

func TestStickyLiveFaultEscalatesToCheckstop(t *testing.T) {
	cfg := fastRunnerConfig()
	cfg.Mode = engine.Sticky
	cfg.StickyCycles = 0
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A stuck-at in the fetch PC parity domain re-fires after every
	// recovery: the RUT's retry threshold must checkstop.
	bit := findBit(t, r.DB(), "ifu.pc.par", 0, 0)
	res := r.RunInjection(bit)
	if res.Outcome != Checkstop && res.Outcome != Hang {
		t.Errorf("permanent stuck-at outcome %v, want checkstop (or hang)", res.Outcome)
	}
}

// TestStickyErrSrcFaultClassifies: rut.err.src holds the first-error
// checker ID in an injectable 8-bit latch, so a held flip can leave it
// naming a checker that does not exist. The verdict must report that as an
// invalid checker, not index out of range.
func TestStickyErrSrcFaultClassifies(t *testing.T) {
	cfg := fastRunnerConfig()
	cfg.Mode = engine.Sticky
	cfg.StickyCycles = 0
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	invalid := 0
	for b := 0; b < 8; b++ {
		res := r.RunInjection(findBit(t, r.DB(), "rut.err.src", 0, b))
		if res.Outcome < Vanished || res.Outcome > SDC {
			t.Errorf("bit %d: outcome %v", b, res.Outcome)
		}
		if strings.HasPrefix(res.FirstChecker, "invalid-checker-") {
			invalid++
		}
	}
	if invalid == 0 {
		t.Error("no rut.err.src stuck-at named an out-of-range checker; the regression is not exercised")
	}
}

func TestCampaignAggregates(t *testing.T) {
	rep, err := RunCampaign(fastCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 120 || len(rep.Results) != 120 {
		t.Fatalf("total %d, results %d", rep.Total, len(rep.Results))
	}
	sum := 0
	for _, o := range Outcomes {
		sum += rep.Counts[o]
	}
	if sum != rep.Total {
		t.Errorf("outcome counts sum to %d, total %d", sum, rep.Total)
	}
	// The cross and its unit marginal must also sum to the total.
	byUnit, _ := rep.Marginals()
	for name, rows := range map[string]map[string]map[Outcome]int{"cell": rep.ByStratum, "unit": byUnit} {
		sum := 0
		for _, m := range rows {
			for _, n := range m {
				sum += n
			}
		}
		if sum != rep.Total {
			t.Errorf("%s counts sum to %d", name, sum)
		}
	}
	// Fractions are consistent.
	var f float64
	for _, ci := range rep.Estimate().Pooled {
		f += ci.Fraction
	}
	if f < 0.999 || f > 1.001 {
		t.Errorf("fractions sum to %f", f)
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 60
	cfg.Workers = 1
	a, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	b, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range Outcomes {
		if a.Counts[o] != b.Counts[o] {
			t.Errorf("outcome %v: %d (1 worker) vs %d (3 workers)",
				o, a.Counts[o], b.Counts[o])
		}
	}
}

func TestCampaignFilterRestrictsPopulation(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 40
	cfg.Filter = latch.ByUnit(proc.UnitFPU)
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Unit != proc.UnitFPU {
			t.Fatalf("filtered campaign injected into %s", res.Unit)
		}
	}
}

func TestCampaignGroupPrefixFilter(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 30
	cfg.Filter = ByGroupPrefix("ifu.bht")
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Group != "ifu.bht" && res.Group != "ifu.bht2" {
			t.Fatalf("macro-targeted campaign hit %s", res.Group)
		}
		// Predictor bits are performance-only: they must all vanish.
		if res.Outcome != Vanished {
			t.Errorf("BHT flip outcome %v", res.Outcome)
		}
	}
}

func TestCampaignBadConfig(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 0
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("no error for zero flips")
	}
}

func TestRawModeCampaignHasNoMachineVisibleEvents(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 150
	cfg.Runner.CheckersOn = false
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[Corrected] != 0 {
		t.Errorf("raw mode produced %d corrected outcomes", rep.Counts[Corrected])
	}
	if rep.Counts[Checkstop] != 0 {
		t.Errorf("raw mode produced %d checkstops", rep.Counts[Checkstop])
	}
	// Raw vanish must exceed the checked-mode vanish (Table 3's shape).
	cfg.Runner.CheckersOn = true
	chk, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if raw, checked := Row(rep.Estimate().Pooled, Vanished).Fraction, Row(chk.Estimate().Pooled, Vanished).Fraction; raw < checked {
		t.Errorf("raw vanish %.3f < checked vanish %.3f", raw, checked)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		Vanished: "vanished", Corrected: "corrected", Hang: "hang",
		Checkstop: "checkstop", SDC: "sdc",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%v.String() = %q", int(o), o.String())
		}
	}
	if Outcome(42).String() == "" {
		t.Error("unknown outcome renders empty")
	}
}

func TestReportString(t *testing.T) {
	rep := newReport()
	rep.add(Result{Outcome: Vanished, Unit: "IFU", LatchType: latch.Func}, false)
	s := rep.String()
	if s == "" {
		t.Error("empty report string")
	}
}

func TestMultiBitUpsetParityBlindSpot(t *testing.T) {
	// Even-weight adjacent clusters inside one parity-covered word cancel
	// the parity bit: single-bit parity is blind to them, the classic
	// multi-bit-upset weakness that motivates SECDED and physical bit
	// interleaving. Detection (corrected outcomes) must therefore DROP
	// for even spans relative to single-bit flips.
	single := fastCampaignConfig()
	single.Flips = 400
	single.Seed = 77
	srep, err := RunCampaign(single)
	if err != nil {
		t.Fatal(err)
	}
	even := single
	even.Runner.SpanBits = 2
	erep, err := RunCampaign(even)
	if err != nil {
		t.Fatal(err)
	}
	corrected := func(rep *Report) float64 { return Row(rep.Estimate().Pooled, Corrected).Fraction }
	if corrected(erep) > corrected(srep) {
		t.Errorf("2-bit clusters detected more than single flips: %.3f vs %.3f "+
			"(parity should be blind to even-weight corruption)",
			corrected(erep), corrected(srep))
	}
	// Odd spans flip the parity and stay detectable.
	odd := single
	odd.Runner.SpanBits = 3
	orep, err := RunCampaign(odd)
	if err != nil {
		t.Fatal(err)
	}
	if corrected(orep)+0.01 < corrected(erep) {
		t.Errorf("3-bit clusters (%.3f corrected) below 2-bit (%.3f): odd spans must stay detectable",
			corrected(orep), corrected(erep))
	}
}

func TestNestCampaignThroughFramework(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 150
	cfg.Runner.Proc.EnableNest = true
	cfg.Filter = latch.ByUnit(proc.UnitNEST)
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Unit != proc.UnitNEST {
			t.Fatalf("hit unit %s", res.Unit)
		}
	}
	if v := Row(rep.Estimate().Pooled, Vanished).Fraction; v < 0.8 {
		t.Errorf("NEST vanish %.2f implausibly low", v)
	}
}

// TestRunnerCloneEquivalence: a warm clone must classify every injection
// exactly as the prototype does.
func TestRunnerCloneEquivalence(t *testing.T) {
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl := r.Clone()
	total := r.DB().TotalBits()
	for i := 0; i < 25; i++ {
		bit := (i * 104729) % total
		want := r.RunInjection(bit)
		got := cl.RunInjection(bit)
		if got != want {
			t.Fatalf("bit %d: clone result %+v != prototype %+v", bit, got, want)
		}
	}
}

// allocModes are the allocation policies the executor-behaviour tests run
// under: fail-fast, joined errors, cancellation and the final progress
// view are one code path and must hold for uniform and Neyman campaigns
// alike.
var allocModes = []AllocConfig{{Mode: AllocUniform}, {Mode: AllocNeyman}}

// panickyBackend plants a model bug on one latch bit: injecting there
// panics, as a latch indexing a checker table did before PRs 11 and 13.
type panickyBackend struct {
	engine.Backend
	bit *atomic.Int64
}

func (b panickyBackend) Inject(inj engine.Injection) error {
	if int64(inj.Bit) == b.bit.Load() {
		panic("index out of range [9] with length 4")
	}
	return b.Backend.Inject(inj)
}

func (b panickyBackend) Clone() engine.Backend { return panickyBackend{b.Backend.Clone(), b.bit} }

// TestCampaignContainsInjectionPanic: a panic inside one injection fails
// that campaign with an error that replays it, every batch still settles
// (the panicking injection is the last one dispatched, so an unsettled
// batch would hang the barrier), and the same prototype then runs the next
// campaign to the report it gave before.
func TestCampaignContainsInjectionPanic(t *testing.T) {
	for _, alloc := range allocModes {
		t.Run(alloc.Mode, func(t *testing.T) {
			cfg := fastCampaignConfig()
			cfg.Alloc, cfg.Seed, cfg.Workers = alloc, 11, 3
			proto, err := NewRunner(cfg.Runner)
			if err != nil {
				t.Fatal(err)
			}
			var bit atomic.Int64
			bit.Store(-1)
			proto.be = panickyBackend{proto.be, &bit}
			clean, err := RunCampaignWith(context.Background(), proto, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bit.Store(int64(clean.Results[len(clean.Results)-1].Bit))
			_, err = RunCampaignWith(context.Background(), proto, cfg)
			want := fmt.Sprintf("bit(s) [%d] panicked (seed 11, backend p6lite): index out of range [9]", bit.Load())
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("campaign with a panicking injection: err = %v, want it to contain %q", err, want)
			}
			bit.Store(-1)
			again, err := RunCampaignWith(context.Background(), proto, cfg)
			if err != nil {
				t.Fatalf("campaign after a contained panic: %v", err)
			}
			if a, b := reportDump(t, again), reportDump(t, clean); a != b {
				t.Errorf("report after a contained panic differs\nafter:  %s\nbefore: %s", a, b)
			}
		})
	}
}

// heldPanicBackend panics on two latch bits, and holds each panicking
// Inject until both have entered: two workers' batches fail while both are
// in flight.
type heldPanicBackend struct {
	engine.Backend
	bits    map[int]bool
	entered *atomic.Int32
	both    chan struct{} // closed by the second to enter
}

func (b heldPanicBackend) Inject(inj engine.Injection) error {
	if b.bits[inj.Bit] {
		if b.entered.Add(1) == 2 {
			close(b.both)
		}
		select {
		case <-b.both:
		case <-time.After(30 * time.Second): // fail on the error, not by hanging
		}
		panic("index out of range [9] with length 4")
	}
	return b.Backend.Inject(inj)
}

func (b heldPanicBackend) Clone() engine.Backend {
	return heldPanicBackend{b.Backend.Clone(), b.bits, b.entered, b.both}
}

// TestCampaignAllWorkerErrorsSurfaced: when two workers' batches fail while
// both are in flight, the campaign's error names each failure once, so one
// does not mask the other. The two bits are the first two of the dispatch
// order, which lie in a Neyman campaign's first epoch too.
func TestCampaignAllWorkerErrorsSurfaced(t *testing.T) {
	for _, alloc := range allocModes {
		t.Run(alloc.Mode, func(t *testing.T) {
			cfg := fastCampaignConfig()
			cfg.Alloc, cfg.Workers = alloc, 2
			proto, err := NewRunner(cfg.Runner)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := RunCampaignWith(context.Background(), proto, cfg)
			if err != nil {
				t.Fatal(err)
			}
			x, y := clean.Results[0].Bit, clean.Results[1].Bit
			proto.be = heldPanicBackend{proto.be, map[int]bool{x: true, y: true}, new(atomic.Int32), make(chan struct{})}
			_, err = RunCampaignWith(context.Background(), proto, cfg)
			if err == nil {
				t.Fatal("campaign with two panicking batches succeeded")
			}
			for _, bit := range []int{x, y} {
				if n := strings.Count(err.Error(), fmt.Sprintf("bit(s) [%d] panicked", bit)); n != 1 {
					t.Errorf("bit %d named %d times in %q, want once", bit, n, err)
				}
			}
		})
	}
}

// TestCampaignClonedWorkersShareCheckpoints runs a ≥4-worker campaign on
// cloned runners (the shared-ModelCheckpoint concurrency surface); run it
// under -race via the ci target.
func TestCampaignClonedWorkersShareCheckpoints(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Workers = 4
	cfg.Flips = 64
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != cfg.Flips {
		t.Fatalf("total = %d, want %d", rep.Total, cfg.Flips)
	}
}
