package proc

import (
	"math/rand/v2"
	"testing"

	"sfi/internal/archsim"
	"sfi/internal/isa"
	"sfi/internal/mem"
)

// runBoth executes the same program on the golden model and the core and
// returns both, failing the test if the core does not halt.
func runBoth(t *testing.T, words []uint32, maxCycles int) (*archsim.Sim, *Core) {
	t.Helper()
	g := archsim.New(mem.New(DefaultConfig().MemBytes))
	g.Mem.LoadProgram(0, words)
	for i := 0; i < maxCycles && !g.Halted; i++ {
		g.Step()
	}
	if !g.Halted {
		t.Fatal("golden model did not halt")
	}

	c := New(DefaultConfig())
	c.Mem().LoadProgram(0, words)
	for i := 0; i < maxCycles; i++ {
		c.Step()
		if c.Halted() {
			break
		}
		if c.Checkstopped() {
			t.Fatal("core checkstopped on a fault-free run")
		}
	}
	if !c.Halted() {
		t.Fatalf("core did not halt in %d cycles (completed %d)", maxCycles, c.Completed)
	}
	return g, c
}

// checkMatch compares golden and core architected state and memory.
func checkMatch(t *testing.T, g *archsim.Sim, c *Core) {
	t.Helper()
	st := c.ArchState()
	for i := 0; i < 32; i++ {
		if st.GPR[i] != g.GPR[i] {
			t.Errorf("GPR[%d] = %#x, golden %#x", i, st.GPR[i], g.GPR[i])
		}
		if st.FPR[i] != g.FPR[i] {
			t.Errorf("FPR[%d] = %#x, golden %#x", i, st.FPR[i], g.FPR[i])
		}
	}
	if st.CR0 != g.CR0 {
		t.Errorf("CR0 = %#x, golden %#x", st.CR0, g.CR0)
	}
	if st.LR != g.LR {
		t.Errorf("LR = %#x, golden %#x", st.LR, g.LR)
	}
	if st.CTR != g.CTR {
		t.Errorf("CTR = %#x, golden %#x", st.CTR, g.CTR)
	}
	if !c.Mem().Equal(g.Mem) {
		t.Error("memory contents diverged from golden model")
	}
	if st.Signature() != g.State.Signature() {
		t.Error("architected signatures differ")
	}
}

func runProgram(t *testing.T, src string) (*archsim.Sim, *Core) {
	t.Helper()
	g, c := runBoth(t, isa.MustAssemble(src), 100000)
	checkMatch(t, g, c)
	return g, c
}

func TestCoreArithmeticMatchesGolden(t *testing.T) {
	runProgram(t, `
		addi r1, r0, 7
		addi r2, r0, -13
		add  r3, r1, r2
		sub  r4, r1, r2
		mul  r5, r1, r2
		divd r6, r2, r1
		and  r7, r1, r2
		or   r8, r1, r2
		xor  r9, r1, r2
		addi r10, r0, 3
		sld  r11, r1, r10
		srd  r12, r2, r10
		addis r13, r0, 2
		andi r14, r2, 0xff00
		ori  r15, r1, 0x1234
		xori r16, r2, 0xffff
		halt
	`)
}

func TestCoreLoadsStoresMatchGolden(t *testing.T) {
	runProgram(t, `
		addi r1, r0, 0x4000
		addi r2, r0, 1234
		std  r2, 0(r1)
		ld   r3, 0(r1)
		stw  r2, 8(r1)
		lw   r4, 8(r1)
		addi r5, r0, -1
		std  r5, 16(r1)
		lw   r6, 20(r1)
		stw  r5, 24(r1)
		ld   r7, 24(r1)
		halt
	`)
}

func TestCoreBranchesMatchGolden(t *testing.T) {
	runProgram(t, `
		addi r1, r0, 10
		mtctr r1
		addi r2, r0, 0
	loop:
		addi r2, r2, 3
		bdnz loop
		cmpi r2, 30
		bc   1, 2, good
		addi r3, r0, 999
	good:
		addi r4, r0, 1
		bl   sub
		addi r6, r0, 6
		halt
	sub:
		addi r5, r0, 5
		blr
	`)
}

func TestCoreConditionalBranchBothWays(t *testing.T) {
	runProgram(t, `
		addi r1, r0, 5
		addi r2, r0, 9
		cmp  r1, r2
		bc   1, 0, less
		addi r10, r0, 111
	less:
		cmpl r2, r1
		bc   1, 0, never
		addi r11, r0, 222
	never:
		cmpi r1, 5
		bc   0, 2, alsonever
		addi r12, r0, 333
	alsonever:
		halt
	`)
}

func TestCoreFloatingPointMatchesGolden(t *testing.T) {
	runProgram(t, `
		addi r1, r0, 0x4000
		addi r2, r0, 3
		std  r2, 0(r1)
		addi r3, r0, 5
		std  r3, 8(r1)
		lfd  f1, 0(r1)
		lfd  f2, 8(r1)
		fadd f3, f1, f2
		fsub f4, f2, f1
		fmul f5, f1, f2
		fdiv f6, f2, f1
		fmr  f7, f5
		stfd f3, 16(r1)
		fcmp f1, f2
		halt
	`)
}

func TestCoreSPRMovesMatchGolden(t *testing.T) {
	runProgram(t, `
		addi  r1, r0, 77
		mtctr r1
		mfctr r2
		addi  r3, r0, 88
		mtlr  r3
		mflr  r4
		halt
	`)
}

func TestCoreTestEndSignatureMatchesGolden(t *testing.T) {
	words := isa.MustAssemble(`
		addi r1, r0, 42
		addi r3, r0, 7
		testend
		addi r4, r0, 9
		testend
		halt
	`)
	g := archsim.New(mem.New(DefaultConfig().MemBytes))
	g.Mem.LoadProgram(0, words)
	var goldenSigs []uint64
	for !g.Halted {
		r := g.Step()
		if r.Event == archsim.EventTestEnd {
			goldenSigs = append(goldenSigs, r.Signature)
		}
	}

	c := New(DefaultConfig())
	c.Mem().LoadProgram(0, words)
	var coreSigs []uint64
	for i := 0; i < 100000 && !c.Halted(); i++ {
		ev := c.Step()
		if ev.TestEnd {
			st := c.ArchState()
			coreSigs = append(coreSigs, st.Signature())
		}
	}
	if len(coreSigs) != len(goldenSigs) {
		t.Fatalf("core saw %d testends, golden %d", len(coreSigs), len(goldenSigs))
	}
	for i := range coreSigs {
		if coreSigs[i] != goldenSigs[i] {
			t.Errorf("testend %d signature %#x, golden %#x", i, coreSigs[i], goldenSigs[i])
		}
	}
}

// genRandomProgram builds a terminating random program exercising the whole
// ISA, in the style of an AVP testcase.
func genRandomProgram(rng *rand.Rand, n int) []uint32 {
	var src []isa.Inst
	emit := func(in isa.Inst) { src = append(src, in) }
	// Prologue: materialize constants in r1..r8, set up a data base in r9.
	for r := uint8(1); r <= 8; r++ {
		emit(isa.Inst{Op: isa.OpADDI, RT: r, RA: 0, Imm: int32(rng.IntN(8192) - 4096)})
	}
	emit(isa.Inst{Op: isa.OpADDIS, RT: 9, RA: 0, Imm: 2}) // r9 = 0x20000
	// Preload a couple of FPRs via memory.
	emit(isa.Inst{Op: isa.OpSTD, RT: 1, RA: 9, Imm: 0})
	emit(isa.Inst{Op: isa.OpSTD, RT: 2, RA: 9, Imm: 8})
	emit(isa.Inst{Op: isa.OpLFD, RT: 1, RA: 9, Imm: 0})
	emit(isa.Inst{Op: isa.OpLFD, RT: 2, RA: 9, Imm: 8})

	reg := func() uint8 { return uint8(1 + rng.IntN(8)) }
	disp := func() int32 { return int32(8 * rng.IntN(16)) }
	for i := 0; i < n; i++ {
		switch rng.IntN(12) {
		case 0:
			emit(isa.Inst{Op: isa.OpADD, RT: reg(), RA: reg(), RB: reg()})
		case 1:
			emit(isa.Inst{Op: isa.OpSUB, RT: reg(), RA: reg(), RB: reg()})
		case 2:
			emit(isa.Inst{Op: isa.OpMUL, RT: reg(), RA: reg(), RB: reg()})
		case 3:
			emit(isa.Inst{Op: isa.OpDIVD, RT: reg(), RA: reg(), RB: reg()})
		case 4:
			emit(isa.Inst{Op: isa.OpSTD, RT: reg(), RA: 9, Imm: disp()})
		case 5:
			emit(isa.Inst{Op: isa.OpLD, RT: reg(), RA: 9, Imm: disp()})
		case 6:
			emit(isa.Inst{Op: isa.OpSTW, RT: reg(), RA: 9, Imm: disp()})
		case 7:
			emit(isa.Inst{Op: isa.OpLW, RT: reg(), RA: 9, Imm: disp()})
		case 8:
			emit(isa.Inst{Op: isa.OpCMP, RA: reg(), RB: reg()})
			// Forward conditional skip of one instruction.
			emit(isa.Inst{Op: isa.OpBC, BO: uint8(rng.IntN(2)), BI: uint8(rng.IntN(3)), Imm: 2})
			emit(isa.Inst{Op: isa.OpXORI, RT: reg(), RA: reg(), Imm: int32(rng.IntN(65536))})
		case 9:
			emit(isa.Inst{Op: isa.OpFADD, RT: uint8(3 + rng.IntN(4)), RA: uint8(1 + rng.IntN(2)), RB: uint8(1 + rng.IntN(2))})
		case 10:
			emit(isa.Inst{Op: isa.OpFMUL, RT: uint8(3 + rng.IntN(4)), RA: uint8(1 + rng.IntN(2)), RB: uint8(1 + rng.IntN(2))})
		case 11:
			// Small counted loop.
			cnt := int32(2 + rng.IntN(4))
			emit(isa.Inst{Op: isa.OpADDI, RT: 10, RA: 0, Imm: cnt})
			emit(isa.Inst{Op: isa.OpMTCTR, RA: 10})
			emit(isa.Inst{Op: isa.OpADDI, RT: 11, RA: 11, Imm: 1})
			emit(isa.Inst{Op: isa.OpBDNZ, Imm: -1})
		}
	}
	emit(isa.Inst{Op: isa.OpTESTEND})
	emit(isa.Inst{Op: isa.OpHALT})

	words := make([]uint32, len(src))
	for i, in := range src {
		words[i] = isa.Encode(in)
	}
	return words
}

// TestCoreRandomDifferential is the heavyweight equivalence check: random
// ISA-wide programs must produce bit-identical architected state and memory
// on the core and the golden model.
func TestCoreRandomDifferential(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		words := genRandomProgram(rng, 60)
		g, c := runBoth(t, words, 200000)
		checkMatch(t, g, c)
		if t.Failed() {
			t.Fatalf("divergence in trial %d", trial)
		}
	}
}

func TestCoreCPIIsSane(t *testing.T) {
	_, c := runProgram(t, `
		addi r1, r0, 100
		mtctr r1
	loop:
		addi r2, r2, 1
		addi r3, r3, 2
		add  r4, r2, r3
		bdnz loop
		halt
	`)
	cpi := float64(c.Cycle) / float64(c.Completed)
	if cpi < 1.0 || cpi > 12 {
		t.Errorf("CPI = %.2f out of sane range [1, 12]", cpi)
	}
}

func TestCoreNoSpuriousCheckerFires(t *testing.T) {
	_, c := runProgram(t, `
		addi r1, r0, 50
		mtctr r1
	loop:
		addi r2, r2, 7
		std  r2, 0(r9)
		ld   r3, 0(r9)
		cmp  r2, r3
		bdnz loop
		halt
	`)
	if c.Recoveries != 0 {
		t.Errorf("fault-free run performed %d recoveries", c.Recoveries)
	}
	if c.AnyFIR() {
		t.Error("fault-free run set FIR bits")
	}
	for _, ch := range c.Checkers() {
		if ch.Fired != 0 {
			t.Errorf("checker %s fired %d times on a fault-free run", ch.Name, ch.Fired)
		}
	}
}
