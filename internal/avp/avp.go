// Package avp implements the Architectural Verification Program: the
// pseudo-random test program the paper runs on the emulated model while
// injecting faults. The AVP "executes numerous small testcases of
// pseudo-random instructions"; each testcase ends at a testend barrier
// where the harness compares a signature over the architected registers the
// pass has written so far, plus a digest of the data area, against golden
// values from the architectural reference model — detecting incorrect
// architected state (the paper's rare "BAD ARCH STATE" outcome).
//
// The whole testcase sequence loops forever, so the model can be clocked
// for an arbitrary observation window after an injection.
package avp

import (
	"fmt"
	"math/rand/v2"

	"sfi/internal/archsim"
	"sfi/internal/isa"
	"sfi/internal/mem"
)

// Config parameterizes the generator.
type Config struct {
	Seed      uint64
	Testcases int // testcases per pass
	BodyOps   int // body operations per testcase
	MemBytes  int // must match the core's memory size

	// Weights select body operation classes; they need not sum to 1.
	// The default weights are calibrated so the *dynamic* mix matches the
	// paper's Table 1 AVP column.
	Weights Weights

	// SkipEpilogue omits the per-testcase result-fold epilogue. Workload
	// profiles used purely for instruction-mix and CPI measurement set
	// this; fault-injection AVPs must keep the epilogue (it is the SDC
	// detection mechanism).
	SkipEpilogue bool
}

// Weights are the generator's class-selection weights.
type Weights struct {
	Load, Store, Fixed, Float, Cmp, Branch float64
}

// DefaultConfig returns the standard AVP configuration, with weights
// calibrated to reproduce Table 1's AVP instruction mix.
func DefaultConfig() Config {
	return Config{
		Seed:      0x5eed,
		Testcases: 12,
		BodyOps:   40,
		MemBytes:  256 * 1024,
		Weights: Weights{
			Load:   0.265,
			Store:  0.08,
			Fixed:  0.075,
			Float:  0.0,
			Cmp:    0.05,
			Branch: 0.065,
		},
	}
}

// Testcase records the golden expectations at one testend barrier.
type Testcase struct {
	Index     int
	SigMasked uint64 // masked architected signature
	GPRMask   uint32 // registers the pass has defined by this barrier
	FPRMask   uint32
	SPRMask   uint8
	MemDigest uint64 // digest over [DataLo, DataHi)
}

// Program is a generated AVP with its golden expectations.
type Program struct {
	Words     []uint32
	DataLo    uint64
	DataHi    uint64
	Testcases []Testcase

	// DynCounts is the dynamic instruction count per class over one
	// steady-state pass; DynTotal includes ClassOther.
	DynCounts map[isa.Class]uint64
	DynTotal  uint64

	// GoldenInstPerPass is the retired-instruction count of one pass.
	GoldenInstPerPass uint64
}

// DynMix returns the steady-state dynamic fraction of a class.
func (p *Program) DynMix(c isa.Class) float64 {
	if p.DynTotal == 0 {
		return 0
	}
	return float64(p.DynCounts[c]) / float64(p.DynTotal)
}

const (
	dataBase  = 0x20000 // 128 KiB: testcase data area base
	dataPerTC = 4096    // bytes of private data per testcase (one page,
	// so each testcase occupies its own ERAT entry, as real workloads do)
	workRegs    = 8  // r1..r8 are the working set
	dataReg     = 13 // r13 holds the testcase's data base
	foldReg     = 15 // epilogue fold/staging register
	scratchReg  = 14 // loop counts and helpers
	warmPasses  = 2  // passes before golden recording (steady state)
	maxStepsCap = 4_000_000
)

// Generate builds a program and computes its golden expectations.
func Generate(cfg Config) (*Program, error) {
	if cfg.Testcases < 1 || cfg.BodyOps < 1 {
		return nil, fmt.Errorf("avp: bad config: %d testcases, %d body ops",
			cfg.Testcases, cfg.BodyOps)
	}
	if cfg.Testcases*dataPerTC > 0x18000 {
		return nil, fmt.Errorf("avp: %d testcases exceed the data area", cfg.Testcases)
	}
	if end := dataBase + cfg.Testcases*dataPerTC; cfg.MemBytes < end || cfg.MemBytes&(cfg.MemBytes-1) != 0 {
		return nil, fmt.Errorf("avp: MemBytes %d is not a power of two holding the data area's end %#x", cfg.MemBytes, end)
	}
	g := &progGen{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0xa1f))}
	words := g.emitProgram()

	p := &Program{
		Words:     words,
		DataLo:    dataBase,
		DataHi:    dataBase + uint64(cfg.Testcases*dataPerTC),
		DynCounts: make(map[isa.Class]uint64),
	}
	if err := record(cfg, p); err != nil {
		return nil, err
	}
	return p, nil
}

// MustGenerate is Generate that panics on error, for fixed-config tests.
func MustGenerate(cfg Config) *Program {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// progGen holds generation state.
type progGen struct {
	cfg      cfgAlias
	rng      *rand.Rand
	insts    []isa.Inst
	writtenG uint32 // registers defined so far in the pass
	writtenF uint32
	crKnown  bool
}

type cfgAlias = Config

func (g *progGen) emit(in isa.Inst) {
	g.insts = append(g.insts, in)
	_, wrG, _, wrF, _, _ := isa.RegSets(in)
	g.writtenG |= wrG
	g.writtenF |= wrF
}

// srcG picks a defined source register (r0 reads as the reset-time zero and
// is never written, so it is always safe).
func (g *progGen) srcG() uint8 {
	var cands []uint8
	for r := uint8(1); r <= workRegs; r++ {
		if g.writtenG&(1<<uint(r)) != 0 {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return 0
	}
	return cands[g.rng.IntN(len(cands))]
}

func (g *progGen) dstG() uint8 { return uint8(1 + g.rng.IntN(workRegs)) }

func (g *progGen) srcF() (uint8, bool) {
	var cands []uint8
	for r := uint8(1); r < 32; r++ {
		if g.writtenF&(1<<uint(r)) != 0 {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[g.rng.IntN(len(cands))], true
}

func (g *progGen) dataDisp() int32 { return int32(8 * g.rng.IntN(dataPerTC/8)) }

// emitProgram lays out all testcases followed by a loop-back branch.
func (g *progGen) emitProgram() []uint32 {
	for tc := 0; tc < g.cfg.Testcases; tc++ {
		g.emitTestcase(tc)
	}
	// Loop forever over the testcase sequence.
	g.emit(isa.Inst{Op: isa.OpB, Imm: int32(-len(g.insts))})

	words := make([]uint32, len(g.insts))
	for i, in := range g.insts {
		words[i] = isa.Encode(in)
	}
	return words
}

func (g *progGen) emitTestcase(idx int) {
	// Data base for this testcase.
	g.emit(isa.Inst{Op: isa.OpADDIS, RT: dataReg, RA: 0, Imm: dataBase >> 16})
	if idx > 0 {
		g.emit(isa.Inst{Op: isa.OpADDI, RT: dataReg, RA: dataReg, Imm: int32(idx * dataPerTC)})
	}
	// Seed a few working registers (testcase 0 seeds the whole set).
	seeds := 4
	if idx == 0 {
		seeds = workRegs
	}
	for i := 0; i < seeds; i++ {
		g.emit(isa.Inst{Op: isa.OpADDI, RT: uint8(1 + i%workRegs), RA: 0,
			Imm: int32(g.rng.IntN(65536) - 32768)})
	}
	if g.cfg.Weights.Float > 0 && g.writtenF&0b1110 != 0b1110 {
		// Materialize FP working values through memory.
		for i := uint8(1); i <= 3; i++ {
			g.emit(isa.Inst{Op: isa.OpSTD, RT: i, RA: dataReg, Imm: int32(8 * i)})
			g.emit(isa.Inst{Op: isa.OpLFD, RT: i, RA: dataReg, Imm: int32(8 * i)})
		}
	}

	w := g.cfg.Weights
	total := w.Load + w.Store + w.Fixed + w.Float + w.Cmp + w.Branch
	for op := 0; op < g.cfg.BodyOps; op++ {
		x := g.rng.Float64() * total
		switch {
		case x < w.Load:
			g.emitLoad()
		case x < w.Load+w.Store:
			g.emitStore()
		case x < w.Load+w.Store+w.Fixed:
			g.emitFixed()
		case x < w.Load+w.Store+w.Fixed+w.Float:
			g.emitFloat()
		case x < w.Load+w.Store+w.Fixed+w.Float+w.Cmp:
			g.emitCmp()
		default:
			g.emitBranch()
		}
	}
	if !g.cfg.SkipEpilogue {
		g.emitEpilogue()
	}
	g.emit(isa.Inst{Op: isa.OpTESTEND})
}

// epilogue register-coverage masks: the registers whose values the AVP
// actually reads out (through parity-checked datapath instructions) before
// each barrier. Only these participate in the architected signature — the
// AVP checks the results it stores, not latches it never touches.
const (
	epilogueGPRCover = (1<<(workRegs+1) - 2) | 1<<dataReg | 1<<foldReg
	epilogueSPRCover = 0b111 // CR, LR, CTR
)

// emitEpilogue folds every working register and SPR into the testcase's
// data area through real stores, so any corrupted covered register is read
// (and parity-checked) on the way out.
func (g *progGen) emitEpilogue() {
	base := int32(dataPerTC - 16*8)
	for r := uint8(1); r <= workRegs; r++ {
		g.emit(isa.Inst{Op: isa.OpSTD, RT: r, RA: dataReg, Imm: base + int32(8*r)})
	}
	g.emit(isa.Inst{Op: isa.OpMFCTR, RT: foldReg})
	g.emit(isa.Inst{Op: isa.OpSTD, RT: foldReg, RA: dataReg, Imm: base})
	g.emit(isa.Inst{Op: isa.OpMFLR, RT: foldReg})
	g.emit(isa.Inst{Op: isa.OpSTD, RT: foldReg, RA: dataReg, Imm: base + 8*(workRegs+1)})
	// Read the condition register (branch to the fall-through target
	// either way, so control flow is unchanged).
	g.emit(isa.Inst{Op: isa.OpBC, BO: 1, BI: 3, Imm: 1})
}

func (g *progGen) emitLoad() {
	if g.rng.IntN(4) == 0 {
		g.emit(isa.Inst{Op: isa.OpLW, RT: g.dstG(), RA: dataReg, Imm: g.dataDisp()})
		return
	}
	g.emit(isa.Inst{Op: isa.OpLD, RT: g.dstG(), RA: dataReg, Imm: g.dataDisp()})
}

func (g *progGen) emitStore() {
	if g.rng.IntN(4) == 0 {
		g.emit(isa.Inst{Op: isa.OpSTW, RT: g.srcG(), RA: dataReg, Imm: g.dataDisp()})
		return
	}
	g.emit(isa.Inst{Op: isa.OpSTD, RT: g.srcG(), RA: dataReg, Imm: g.dataDisp()})
}

func (g *progGen) emitFixed() {
	ops := []isa.Opcode{isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpDIVD,
		isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLD, isa.OpSRD,
		isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI}
	op := ops[g.rng.IntN(len(ops))]
	switch op {
	case isa.OpADDI:
		g.emit(isa.Inst{Op: op, RT: g.dstG(), RA: g.srcG(),
			Imm: int32(g.rng.IntN(65536) - 32768)})
	case isa.OpANDI, isa.OpORI, isa.OpXORI:
		g.emit(isa.Inst{Op: op, RT: g.dstG(), RA: g.srcG(),
			Imm: int32(g.rng.IntN(65536))})
	default:
		g.emit(isa.Inst{Op: op, RT: g.dstG(), RA: g.srcG(), RB: g.srcG()})
	}
}

func (g *progGen) emitFloat() {
	a, okA := g.srcF()
	b, okB := g.srcF()
	if !okA || !okB {
		g.emitFixed()
		return
	}
	ops := []isa.Opcode{isa.OpFADD, isa.OpFSUB, isa.OpFMUL}
	dst := uint8(4 + g.rng.IntN(8))
	g.emit(isa.Inst{Op: ops[g.rng.IntN(len(ops))], RT: dst, RA: a, RB: b})
}

func (g *progGen) emitCmp() {
	switch g.rng.IntN(3) {
	case 0:
		g.emit(isa.Inst{Op: isa.OpCMP, RA: g.srcG(), RB: g.srcG()})
	case 1:
		g.emit(isa.Inst{Op: isa.OpCMPL, RA: g.srcG(), RB: g.srcG()})
	default:
		g.emit(isa.Inst{Op: isa.OpCMPI, RA: g.srcG(),
			Imm: int32(g.rng.IntN(65536) - 32768)})
	}
	g.crKnown = true
}

func (g *progGen) emitBranch() {
	switch g.rng.IntN(4) {
	case 0:
		if !g.crKnown {
			g.emitCmp()
		}
		// Forward conditional skip over one safe instruction.
		g.emit(isa.Inst{Op: isa.OpBC, BO: uint8(g.rng.IntN(2)),
			BI: uint8(g.rng.IntN(3)), Imm: 2})
		g.emitLoad()
	case 1:
		// Small counted loop around a single body op.
		g.emit(isa.Inst{Op: isa.OpADDI, RT: scratchReg, RA: 0,
			Imm: int32(2 + g.rng.IntN(3))})
		g.emit(isa.Inst{Op: isa.OpMTCTR, RA: scratchReg})
		g.emitLoad()
		g.emit(isa.Inst{Op: isa.OpBDNZ, Imm: -1})
	case 2:
		// Call/return pair. Layout (word offsets relative to the bl):
		//   +0: bl +2    call the sub at +2
		//   +1: b  +3    after return, jump past the sub body
		//   +2: addi     the sub body
		//   +3: blr      return to +1
		//   +4: next
		g.emit(isa.Inst{Op: isa.OpBL, Imm: 2})
		g.emit(isa.Inst{Op: isa.OpB, Imm: 3})
		g.emitStore()
		g.emit(isa.Inst{Op: isa.OpBLR})
	default:
		// Plain unconditional forward branch over one instruction.
		g.emit(isa.Inst{Op: isa.OpB, Imm: 2})
		g.emitStore()
	}
}

// record runs the golden model for warm passes plus one recording pass,
// filling in the per-testcase expectations and the dynamic mix.
func record(cfg Config, p *Program) error {
	sim := archsim.New(mem.New(cfg.MemBytes))
	sim.Mem.LoadProgram(0, p.Words)

	warmEnds := warmPasses * cfg.Testcases
	ends := 0
	var gprMask, fprMask uint32
	var sprMask uint8
	recording := false
	var passStartInst uint64

	for steps := 0; steps < maxStepsCap; steps++ {
		res := sim.Step()
		if res.Event == archsim.EventIllegal || res.Event == archsim.EventHalt {
			return fmt.Errorf("avp: golden run hit %v at pc %#x", res.Event, sim.PC)
		}
		in := res.Inst
		if recording {
			p.DynCounts[isa.ClassOf(in.Op)]++
			p.DynTotal++
		}
		_, wrG, _, wrF, _, wrS := isa.RegSets(in)
		gprMask |= wrG
		fprMask |= wrF
		sprMask |= wrS

		if res.Event != archsim.EventTestEnd {
			continue
		}
		if recording {
			gm := gprMask & epilogueGPRCover
			sm := sprMask & epilogueSPRCover
			p.Testcases = append(p.Testcases, Testcase{
				Index:     ends % cfg.Testcases,
				SigMasked: sim.State.MaskedSignature(gm, 0, sm),
				GPRMask:   gm,
				FPRMask:   0,
				SPRMask:   sm,
				MemDigest: sim.Mem.DigestRange(p.DataLo, p.DataHi),
			})
		}
		ends++
		if ends%cfg.Testcases == 0 {
			// Pass boundary: masks reset (a new pass re-defines registers
			// before reading them).
			gprMask, fprMask, sprMask = 0, 0, 0
			if recording {
				p.GoldenInstPerPass = sim.InstCount - passStartInst
				return nil
			}
			if ends == warmEnds {
				recording = true
				passStartInst = sim.InstCount
			}
		}
	}
	return fmt.Errorf("avp: golden run did not finish in %d steps", maxStepsCap)
}
