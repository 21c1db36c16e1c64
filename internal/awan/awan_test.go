package awan

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestGatesEvaluate(t *testing.T) {
	nl := NewNetlist()
	a := nl.Input("a")
	b := nl.Input("b")
	and := nl.And(a, b)
	or := nl.Or(a, b)
	xor := nl.Xor(a, b)
	not := nl.Not(a)
	s := nl.Input("s")
	mux := nl.Mux(a, b, s)
	e := MustCompile(nl)

	for _, tc := range []struct{ a, b, s bool }{
		{false, false, false}, {true, false, false},
		{false, true, true}, {true, true, true},
	} {
		e.SetInput(a, tc.a)
		e.SetInput(b, tc.b)
		e.SetInput(s, tc.s)
		e.Eval()
		if e.Value(and) != (tc.a && tc.b) {
			t.Errorf("and(%v,%v) = %v", tc.a, tc.b, e.Value(and))
		}
		if e.Value(or) != (tc.a || tc.b) {
			t.Errorf("or broken")
		}
		if e.Value(xor) != (tc.a != tc.b) {
			t.Errorf("xor broken")
		}
		if e.Value(not) != !tc.a {
			t.Errorf("not broken")
		}
		want := tc.a
		if tc.s {
			want = tc.b
		}
		if e.Value(mux) != want {
			t.Errorf("mux broken")
		}
	}
}

func TestCompileDetectsCombinationalCycle(t *testing.T) {
	nl := NewNetlist()
	a := nl.Input("a")
	// g depends on h, h depends on g: a cycle.
	g := nl.And(a, a)
	nl.nodes[g].b = g + 1 // forward reference to h
	h := nl.Or(g, a)
	_ = h
	if _, err := Compile(nl); err == nil {
		t.Error("no error for combinational cycle")
	}
}

func TestCompileRejectsUnconnectedLatch(t *testing.T) {
	nl := NewNetlist()
	nl.Latch("q")
	if _, err := Compile(nl); err == nil {
		t.Error("no error for latch without next-state input")
	}
}

func TestCounterCounts(t *testing.T) {
	nl := NewNetlist()
	q := nl.Counter("cnt", 8)
	e := MustCompile(nl)
	for i := 0; i < 300; i++ {
		if got := e.BusValue(q); got != uint64(i%256) {
			t.Fatalf("cycle %d: counter = %d", i, got)
		}
		e.Step()
	}
}

func TestAdderMatchesArithmetic(t *testing.T) {
	nl := NewNetlist()
	a := nl.InputBus("a", 16)
	b := nl.InputBus("b", 16)
	sum, cout := nl.Adder(a, b, nl.Const(false))
	e := MustCompile(nl)
	f := func(x, y uint16) bool {
		e.SetInputBus(a, uint64(x))
		e.SetInputBus(b, uint64(y))
		e.Eval()
		full := uint64(x) + uint64(y)
		if e.BusValue(sum) != full&0xffff {
			return false
		}
		return e.Value(cout) == (full > 0xffff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParityTreeMatchesPopcount(t *testing.T) {
	nl := NewNetlist()
	in := nl.InputBus("x", 23)
	p := nl.ParityTree(in)
	e := MustCompile(nl)
	f := func(v uint32) bool {
		x := uint64(v) & ((1 << 23) - 1)
		e.SetInputBus(in, x)
		e.Eval()
		ones := 0
		for i := 0; i < 23; i++ {
			if x&(1<<uint(i)) != 0 {
				ones++
			}
		}
		return e.Value(p) == (ones%2 == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildParityReg(t *testing.T) (*Engine, Bus, int, Bus, int) {
	t.Helper()
	nl := NewNetlist()
	in := nl.InputBus("in", 16)
	load := nl.Input("load")
	q, _, errOut := nl.ParityRegister("r", in, load)
	return MustCompile(nl), in, load, q, errOut
}

func TestParityRegisterLoadsAndHolds(t *testing.T) {
	e, in, load, q, errOut := buildParityReg(t)
	e.SetInputBus(in, 0xabcd)
	e.SetInput(load, true)
	e.Step()
	if e.BusValue(q) != 0xabcd {
		t.Fatalf("register = %#x", e.BusValue(q))
	}
	e.SetInput(load, false)
	e.SetInputBus(in, 0xffff)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if e.BusValue(q) != 0xabcd {
		t.Error("register did not hold")
	}
	e.Eval()
	if e.Value(errOut) {
		t.Error("checker fired on clean register")
	}
}

// TestParityRegisterMacroSFI is a miniature macro-level SFI campaign on the
// gate-level register: every data-latch flip must be detected by the
// continuous parity checker; a simultaneous double flip must escape it.
func TestParityRegisterMacroSFI(t *testing.T) {
	e, in, load, q, errOut := buildParityReg(t)
	rng := rand.New(rand.NewPCG(2, 3))
	for trial := 0; trial < 100; trial++ {
		e.SetInputBus(in, rng.Uint64()&0xffff)
		e.SetInput(load, true)
		e.Step()
		e.SetInput(load, false)
		e.Step()

		e.FlipLatch(q[rng.IntN(len(q))])
		e.Eval()
		if !e.Value(errOut) {
			t.Fatalf("trial %d: single flip undetected", trial)
		}

		// Double flip: parity blind spot.
		i, j := rng.IntN(len(q)), rng.IntN(len(q))
		for j == i {
			j = rng.IntN(len(q))
		}
		e.SetInputBus(in, rng.Uint64()&0xffff)
		e.SetInput(load, true)
		e.Step()
		e.SetInput(load, false)
		e.FlipLatch(q[i])
		e.FlipLatch(q[j])
		e.Eval()
		if e.Value(errOut) {
			t.Fatalf("trial %d: double flip detected by single parity", trial)
		}
	}
}

func TestFlipLatchOnGatePanics(t *testing.T) {
	nl := NewNetlist()
	a := nl.Input("a")
	g := nl.Not(a)
	e := MustCompile(nl)
	defer func() {
		if recover() == nil {
			t.Error("no panic flipping a gate")
		}
	}()
	e.FlipLatch(g)
}

func TestProgramLengthAndGates(t *testing.T) {
	nl := NewNetlist()
	a := nl.InputBus("a", 8)
	b := nl.InputBus("b", 8)
	nl.Adder(a, b, nl.Const(false))
	if nl.Gates() == 0 {
		t.Error("no gates counted")
	}
	e := MustCompile(nl)
	if e.ProgramLength() == 0 {
		t.Error("empty program")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	nl := NewNetlist()
	nl.Input("x")
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate name")
		}
	}()
	nl.Input("x")
}
