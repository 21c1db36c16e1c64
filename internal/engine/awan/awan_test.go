package awan

import (
	"reflect"
	"testing"

	"sfi/internal/engine"
)

func testConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Backend = Name
	cfg.Awan.Width = 8
	cfg.Awan.Lanes = 4
	return cfg
}

func newBackend(t *testing.T) *Backend {
	t.Helper()
	be, err := engine.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return be.(*Backend)
}

// TestPopulationMatchesConfig: the mirrored latch DB must expose exactly
// the design's injectable bits — per lane, two operand registers, the
// result register and the residue predictor pair.
func TestPopulationMatchesConfig(t *testing.T) {
	b := newBackend(t)
	perLane := 3*8 + 2 // a + b + result (width each) + 2-bit residue pred
	if got, want := b.DB().TotalBits(), 4*perLane; got != want {
		t.Fatalf("population %d bits, want %d", got, want)
	}
	if got, want := len(b.bit2node), b.DB().TotalBits(); got != want {
		t.Fatalf("bit2node has %d entries for %d bits", got, want)
	}
	// Every logical bit must map to a distinct netlist node: a duplicate
	// would make two sampled bits alias the same physical latch.
	seen := make(map[int]bool)
	for i, n := range b.bit2node {
		if seen[n] {
			t.Fatalf("bit %d aliases an earlier bit (node %d)", i, n)
		}
		seen[n] = true
	}
}

// TestCleanRunPassesBarriers: an uninjected backend must retire
// operations indefinitely with every barrier check green and no
// detection.
func TestCleanRunPassesBarriers(t *testing.T) {
	b := newBackend(t)
	b.ReloadPhase(0)
	barriers := 0
	st := b.Run(40, func() bool {
		bc := b.CheckBarrier()
		if !bc.StateOK {
			t.Fatal("clean run failed a barrier check")
		}
		if bc.Busy {
			t.Fatal("awan barriers must never be busy (no recovery hardware)")
		}
		barriers++
		return true
	})
	if st.Checkstop {
		t.Fatal("clean run checkstopped")
	}
	if barriers != 20 {
		t.Fatalf("40 cycles retired %d barriers, want 20 (2 cycles/op)", barriers)
	}
	if v := b.Verdict(); v.Checkstop || v.Detected {
		t.Fatalf("clean verdict reports an error: %+v", v)
	}
}

// TestDeterministicReplay: reloading the same phase and injecting the
// same bit twice must produce identical runs — the property campaign
// sharding and distributed equivalence rest on.
func TestDeterministicReplay(t *testing.T) {
	b := newBackend(t)
	replay := func() (engine.RunStats, engine.Verdict, bool) {
		b.ReloadPhase(3)
		if err := b.Inject(engine.Injection{Bit: 17, Mode: engine.Toggle}); err != nil {
			t.Fatal(err)
		}
		sdc := false
		st := b.Run(100, func() bool {
			if !b.CheckBarrier().StateOK {
				sdc = true
				return false
			}
			return true
		})
		return st, b.Verdict(), sdc
	}
	s1, v1, sdc1 := replay()
	s2, v2, sdc2 := replay()
	if s1 != s2 || v1 != v2 || sdc1 != sdc2 {
		t.Fatalf("replay diverged:\nrun1: %+v %+v sdc=%v\nrun2: %+v %+v sdc=%v",
			s1, v1, sdc1, s2, v2, sdc2)
	}
}

// TestCloneEquivalence: a clone must behave identically to its prototype
// for every (phase, bit) injection — clones share the compiled netlist
// and checkpoints but must not share mutable value state.
func TestCloneEquivalence(t *testing.T) {
	proto := newBackend(t)
	clone := proto.Clone().(*Backend)
	if clone.eng == proto.eng {
		t.Fatal("clone shares the prototype's value plane")
	}
	if &clone.ckpts[0].vals[0] != &proto.ckpts[0].vals[0] {
		t.Fatal("clone copied the checkpoints instead of sharing them")
	}

	outcome := func(b *Backend, phase, bit int) (engine.RunStats, engine.Verdict) {
		b.ReloadPhase(phase)
		if err := b.Inject(engine.Injection{Bit: bit, Mode: engine.Toggle}); err != nil {
			t.Fatal(err)
		}
		st := b.Run(60, func() bool { return b.CheckBarrier().StateOK })
		return st, b.Verdict()
	}
	for bit := 0; bit < proto.DB().TotalBits(); bit += 7 {
		phase := bit % proto.Phases()
		s1, v1 := outcome(proto, phase, bit)
		s2, v2 := outcome(clone, phase, bit)
		if s1 != s2 || v1 != v2 {
			t.Fatalf("bit %d phase %d: prototype %+v %+v, clone %+v %+v",
				bit, phase, s1, v1, s2, v2)
		}
	}
}

// TestCheckpointRoundTrip: snapshot/restore must restore the full
// observable machine state, including workload position.
func TestCheckpointRoundTrip(t *testing.T) {
	b := newBackend(t)
	b.ReloadPhase(2)
	ck := b.snapshot()
	cycle, op := b.Cycle(), b.op

	// Corrupt heavily, then reload.
	if err := b.Inject(engine.Injection{Bit: 3, Mode: engine.Sticky}); err != nil {
		t.Fatal(err)
	}
	b.Run(30, nil)
	b.restore(ck)

	if b.Cycle() != cycle || b.op != op {
		t.Fatalf("reload restored cycle %d op %d, want %d %d", b.Cycle(), b.op, cycle, op)
	}
	if b.errSeen || b.stickyOn {
		t.Fatal("reload kept error/sticky state")
	}
	if got := b.eng.Snapshot(); !reflect.DeepEqual(got, ck.vals) {
		t.Fatal("reload did not restore the value plane")
	}
	// And the restored machine still runs clean.
	st := b.Run(20, func() bool { return b.CheckBarrier().StateOK })
	if st.Checkstop || b.errSeen {
		t.Fatal("restored machine detected a phantom error")
	}
}

// TestRawModeMasksCheckers: with CheckersOn=false the residue checker
// must never fire, turning would-be detections into silent outcomes —
// the Table 3 raw-mode contract.
func TestRawModeMasksCheckers(t *testing.T) {
	cfg := testConfig()
	cfg.CheckersOn = false
	be, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := be.(*Backend)
	// Flip every result-register bit of lane 0; in checked mode at least
	// one of these detects, in raw mode none may.
	for bit := 0; bit < b.DB().TotalBits(); bit++ {
		b.ReloadPhase(0)
		if err := b.Inject(engine.Injection{Bit: bit, Mode: engine.Toggle}); err != nil {
			t.Fatal(err)
		}
		st := b.Run(40, nil)
		if st.Checkstop || b.Verdict().Detected {
			t.Fatalf("raw mode detected bit %d", bit)
		}
	}
}

// TestStickyDurationExpires: a bounded sticky fault must stop re-forcing
// its latch after the duration elapses.
func TestStickyDurationExpires(t *testing.T) {
	b := newBackend(t)
	b.ReloadPhase(0)
	if err := b.Inject(engine.Injection{Bit: 0, Mode: engine.Sticky, Duration: 4}); err != nil {
		t.Fatal(err)
	}
	if !b.stickyOn {
		t.Fatal("sticky force not armed")
	}
	for i := 0; i < 6; i++ {
		b.Step()
	}
	if b.stickyOn {
		t.Fatal("sticky force still armed after its duration expired")
	}
}

// TestCensusIsTheBackendsPopulation: census and New build the design
// through one helper, so the census names the same groups over the same
// bits as the warmed backend's database, and both refuse an out-of-bounds
// size with what Config.Validate says.
func TestCensusIsTheBackendsPopulation(t *testing.T) {
	db, err := engine.Census(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := db.Groups(), newBackend(t).DB().Groups(); !reflect.DeepEqual(got, want) {
		t.Errorf("census groups %+v, backend groups %+v", got, want)
	}

	cfg := testConfig()
	cfg.Awan.Lanes = 1_000_000_000
	want := cfg.Validate()
	if want == nil {
		t.Fatal("Validate accepted a billion ALUs")
	}
	if _, err := engine.New(cfg); err == nil || err.Error() != want.Error() {
		t.Errorf("New says %v, Validate %v", err, want)
	}
	if _, err := engine.Census(cfg); err == nil || err.Error() != want.Error() {
		t.Errorf("Census says %v, Validate %v", err, want)
	}
}
