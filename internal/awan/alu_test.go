package awan

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func buildALU(t *testing.T, width int) (*Engine, *CheckedALU) {
	t.Helper()
	nl := NewNetlist()
	alu := nl.BuildCheckedALU("alu", width)
	return MustCompile(nl), alu
}

// loadOp latches operands and lets the result settle (two cycles: operand
// capture, then result capture).
func loadOp(e *Engine, alu *CheckedALU, a, b uint64) {
	e.SetInputBus(alu.InA, a)
	e.SetInputBus(alu.InB, b)
	e.SetInput(alu.Load, true)
	e.Step() // operands captured
	e.SetInput(alu.Load, false)
	e.Step() // result + predicted residue captured
}

func TestCheckedALUComputesSum(t *testing.T) {
	e, alu := buildALU(t, 16)
	f := func(x, y uint16) bool {
		loadOp(e, alu, uint64(x), uint64(y))
		if e.BusValue(alu.Result) != uint64(x+y) {
			return false
		}
		e.Eval()
		return !e.Value(alu.ErrOut) // clean datapath: no error
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckedALUOddWidthCarryCorrection(t *testing.T) {
	// Odd widths exercise the 2^w ≡ 2 (mod 3) carry correction.
	e, alu := buildALU(t, 13)
	rng := rand.New(rand.NewPCG(4, 5))
	for trial := 0; trial < 500; trial++ {
		a := rng.Uint64() & 0x1fff
		b := rng.Uint64() & 0x1fff
		loadOp(e, alu, a, b)
		if got := e.BusValue(alu.Result); got != (a+b)&0x1fff {
			t.Fatalf("sum(%d,%d) = %d", a, b, got)
		}
		e.Eval()
		if e.Value(alu.ErrOut) {
			t.Fatalf("false residue error for %d+%d", a, b)
		}
	}
}

func TestCheckedALUResidueDetectsResultFlips(t *testing.T) {
	e, alu := buildALU(t, 16)
	rng := rand.New(rand.NewPCG(6, 7))
	for trial := 0; trial < 300; trial++ {
		loadOp(e, alu, rng.Uint64()&0xffff, rng.Uint64()&0xffff)
		bit := rng.IntN(len(alu.Result))
		e.FlipLatch(alu.Result[bit])
		e.Eval()
		if !e.Value(alu.ErrOut) {
			t.Fatalf("trial %d: result flip at bit %d undetected", trial, bit)
		}
	}
}

func TestCheckedALUResidueDetectsPredictorFlips(t *testing.T) {
	// Flips in the checker-support latches themselves are detected —
	// benign corruption that the checker reports anyway, the Table 3
	// "conservative checking" mechanism at gate level.
	e, alu := buildALU(t, 16)
	loadOp(e, alu, 1234, 4321)
	e.FlipLatch(alu.ResPred[0])
	e.Eval()
	if !e.Value(alu.ErrOut) {
		t.Error("predicted-residue flip undetected")
	}
}

func TestCheckedALUTripleFlipMayEscape(t *testing.T) {
	// Mod-3 residue has blind spots: flipping bits contributing +1, +1,
	// +1 (three even positions) changes the residue by 0 and escapes.
	e, alu := buildALU(t, 16)
	loadOp(e, alu, 0, 0) // result = 0
	e.FlipLatch(alu.Result[0])
	e.FlipLatch(alu.Result[2])
	e.FlipLatch(alu.Result[4])
	e.Eval()
	if e.Value(alu.ErrOut) {
		t.Error("residue-preserving triple flip was detected (mod-3 blind spot expected)")
	}
	// And the result really is corrupt: gate-level silent corruption.
	if e.BusValue(alu.Result) != 0b10101 {
		t.Errorf("result = %#b", e.BusValue(alu.Result))
	}
}

// TestMacroCampaignOnCheckedALU flips every latch of the checked ALU in
// turn, three times each under fresh operands, and sorts each flip by what
// the design made of it: detected (the residue error output rose), masked
// (the result register still holds the sum) or silent (a wrong result and no
// error). A result-register flip must never be silent.
func TestMacroCampaignOnCheckedALU(t *testing.T) {
	nl := NewNetlist()
	alu := nl.BuildCheckedALU("alu", 12)
	e := MustCompile(nl)
	if n := len(nl.Latches()); n != 12*3+2 { // a, b, res buses + 2 residue latches
		t.Fatalf("%d latches", n)
	}
	inResult := make(map[int]bool)
	for _, l := range alu.Result {
		inResult[l] = true
	}
	rng := rand.New(rand.NewPCG(11, 0xaa7a))
	detected, silent := 0, 0
	for _, l := range nl.Latches() {
		for trial := 0; trial < 3; trial++ {
			a, b := rng.Uint64()&0xfff, rng.Uint64()&0xfff
			loadOp(e, alu, a, b)
			e.FlipLatch(l)
			e.Eval()
			switch {
			case e.Value(alu.ErrOut):
				detected++
			case e.BusValue(alu.Result) != (a+b)&0xfff:
				silent++
				if inResult[l] {
					t.Errorf("latch %d: a result flip escaped the residue checker", l)
				}
			}
		}
	}
	if detected == 0 || detected < silent {
		t.Errorf("%d flips detected, %d silent: checker coverage implausibly low", detected, silent)
	}
}

// TestMacroCampaignUnprotectedCounter: a flip in a macro with no checker is
// never detected, and it does corrupt: three cycles on, the count is not
// what the fault-free counter would hold.
func TestMacroCampaignUnprotectedCounter(t *testing.T) {
	nl := NewNetlist()
	q := nl.Counter("cnt", 6)
	errOut := nl.Const(false) // no checker at all
	e := MustCompile(nl)
	rng := rand.New(rand.NewPCG(13, 0xaa7a))
	for _, l := range nl.Latches() {
		for n := rng.IntN(20); n > 0; n-- { // run to a random phase
			e.Step()
		}
		want := (e.BusValue(q) + 3) & 63
		e.FlipLatch(l)
		for i := 0; i < 3; i++ {
			e.Step()
			if e.Value(errOut) {
				t.Fatalf("latch %d: an unprotected counter produced a detection", l)
			}
		}
		if e.BusValue(q) == want {
			t.Errorf("latch %d: the flip did not corrupt the count", l)
		}
	}
}
