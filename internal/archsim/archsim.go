// Package archsim is the golden architectural reference model for P6LITE:
// a one-instruction-per-step ISA simulator with no micro-architecture. The
// AVP uses it to compute golden end-of-testcase signatures, and the SFI
// harness compares the core model's architected state against it to detect
// silent data corruption ("incorrect architected state" in the paper).
package archsim

import (
	"fmt"
	"math"

	"sfi/internal/isa"
	"sfi/internal/mem"
)

// Event classifies what a Step produced beyond ordinary execution.
type Event int

// Step events.
const (
	EventNone    Event = iota + 1 // ordinary instruction
	EventTestEnd                  // testend barrier reached
	EventHalt                     // halt executed; machine stopped
	EventIllegal                  // undefined opcode (treated as nop)
)

func (e Event) String() string {
	switch e {
	case EventNone:
		return "none"
	case EventTestEnd:
		return "testend"
	case EventHalt:
		return "halt"
	case EventIllegal:
		return "illegal"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// State is the architected state of a P6LITE machine.
type State struct {
	GPR [32]uint64
	FPR [32]uint64 // IEEE-754 double bit patterns
	CR0 uint8      // bits: LT, GT, EQ, SO
	LR  uint64
	CTR uint64
	PC  uint64
}

// Equal reports whether two architected states match exactly.
func (s *State) Equal(o *State) bool { return *s == *o }

// Signature folds the architected register state into one 64-bit word, the
// value the AVP checks at every testend barrier: MaskedSignature with every
// register in the masks.
func (s *State) Signature() uint64 {
	return s.MaskedSignature(^uint32(0), ^uint32(0), ^uint8(0))
}

// MaskedSignature folds only the registers named by the masks (GPR/FPR by
// register-number bit; SPR bit 0 = CR0, 1 = LR, 2 = CTR). The AVP checks
// this at each testend barrier over the registers the pass has written so
// far, so that pre-existing junk in untouched registers is not part of the
// architected contract.
func (s *State) MaskedSignature(gprMask, fprMask uint32, sprMask uint8) uint64 {
	sig := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		sig ^= v
		sig *= 0x100000001b3
		sig ^= sig >> 29
	}
	for i, g := range s.GPR {
		if gprMask&(1<<uint(i)) != 0 {
			mix(g)
		}
	}
	for i, f := range s.FPR {
		if fprMask&(1<<uint(i)) != 0 {
			mix(f)
		}
	}
	if sprMask&1 != 0 {
		mix(uint64(s.CR0))
	}
	if sprMask&2 != 0 {
		mix(s.LR)
	}
	if sprMask&4 != 0 {
		mix(s.CTR)
	}
	return sig
}

// Sim is the golden simulator: architected state plus a flat memory.
type Sim struct {
	State
	Mem    *mem.Memory
	Halted bool

	// InstCount counts retired instructions, including nops and barriers.
	InstCount uint64
}

// New returns a Sim with zeroed state over the given memory.
func New(m *mem.Memory) *Sim {
	return &Sim{Mem: m}
}

// StepResult reports what one Step did.
type StepResult struct {
	Inst      isa.Inst
	Event     Event
	Signature uint64 // valid when Event == EventTestEnd
}

// Step fetches, decodes and executes one instruction. Calling Step on a
// halted machine is a no-op that reports EventHalt.
func (s *Sim) Step() StepResult {
	if s.Halted {
		return StepResult{Event: EventHalt}
	}
	word := s.Mem.Read32(s.PC)
	in := isa.Decode(word)
	res := StepResult{Inst: in, Event: EventNone}

	nextPC := s.PC + 4
	branchTo := func(off int32) { nextPC = s.PC + uint64(int64(off)*4) }

	switch in.Op {
	case isa.OpADDI:
		s.GPR[in.RT] = s.GPR[in.RA] + uint64(int64(in.Imm))
	case isa.OpADDIS:
		s.GPR[in.RT] = s.GPR[in.RA] + uint64(int64(in.Imm)<<16)
	case isa.OpANDI:
		s.GPR[in.RT] = s.GPR[in.RA] & in.UImm()
	case isa.OpORI:
		s.GPR[in.RT] = s.GPR[in.RA] | in.UImm()
	case isa.OpXORI:
		s.GPR[in.RT] = s.GPR[in.RA] ^ in.UImm()

	case isa.OpLD:
		s.GPR[in.RT] = s.Mem.Read64(s.GPR[in.RA] + uint64(int64(in.Imm)))
	case isa.OpLW:
		s.GPR[in.RT] = uint64(s.Mem.Read32(s.GPR[in.RA] + uint64(int64(in.Imm))))
	case isa.OpSTD:
		s.Mem.Write64(s.GPR[in.RA]+uint64(int64(in.Imm)), s.GPR[in.RT])
	case isa.OpSTW:
		s.Mem.Write32(s.GPR[in.RA]+uint64(int64(in.Imm)), uint32(s.GPR[in.RT]))
	case isa.OpLFD:
		s.FPR[in.RT] = s.Mem.Read64(s.GPR[in.RA] + uint64(int64(in.Imm)))
	case isa.OpSTFD:
		s.Mem.Write64(s.GPR[in.RA]+uint64(int64(in.Imm)), s.FPR[in.RT])

	case isa.OpADD:
		s.GPR[in.RT] = s.GPR[in.RA] + s.GPR[in.RB]
	case isa.OpSUB:
		s.GPR[in.RT] = s.GPR[in.RA] - s.GPR[in.RB]
	case isa.OpAND:
		s.GPR[in.RT] = s.GPR[in.RA] & s.GPR[in.RB]
	case isa.OpOR:
		s.GPR[in.RT] = s.GPR[in.RA] | s.GPR[in.RB]
	case isa.OpXOR:
		s.GPR[in.RT] = s.GPR[in.RA] ^ s.GPR[in.RB]
	case isa.OpSLD:
		s.GPR[in.RT] = s.GPR[in.RA] << (s.GPR[in.RB] & 63)
	case isa.OpSRD:
		s.GPR[in.RT] = s.GPR[in.RA] >> (s.GPR[in.RB] & 63)
	case isa.OpMUL:
		s.GPR[in.RT] = s.GPR[in.RA] * s.GPR[in.RB]
	case isa.OpDIVD:
		s.GPR[in.RT] = divd(s.GPR[in.RA], s.GPR[in.RB])

	case isa.OpCMP:
		s.CR0 = cmpSigned(int64(s.GPR[in.RA]), int64(s.GPR[in.RB]))
	case isa.OpCMPI:
		s.CR0 = cmpSigned(int64(s.GPR[in.RA]), int64(in.Imm))
	case isa.OpCMPL:
		s.CR0 = cmpUnsigned(s.GPR[in.RA], s.GPR[in.RB])

	case isa.OpB:
		branchTo(in.Imm)
	case isa.OpBL:
		s.LR = s.PC + 4
		branchTo(in.Imm)
	case isa.OpBC:
		if crBit(s.CR0, in.BI) == (in.BO&1 == 1) {
			branchTo(in.Imm)
		}
	case isa.OpBLR:
		nextPC = s.LR
	case isa.OpBDNZ:
		s.CTR--
		if s.CTR != 0 {
			branchTo(in.Imm)
		}

	case isa.OpMTCTR:
		s.CTR = s.GPR[in.RA]
	case isa.OpMTLR:
		s.LR = s.GPR[in.RA]
	case isa.OpMFLR:
		s.GPR[in.RT] = s.LR
	case isa.OpMFCTR:
		s.GPR[in.RT] = s.CTR

	case isa.OpFADD:
		s.FPR[in.RT] = f2b(b2f(s.FPR[in.RA]) + b2f(s.FPR[in.RB]))
	case isa.OpFSUB:
		s.FPR[in.RT] = f2b(b2f(s.FPR[in.RA]) - b2f(s.FPR[in.RB]))
	case isa.OpFMUL:
		s.FPR[in.RT] = f2b(b2f(s.FPR[in.RA]) * b2f(s.FPR[in.RB]))
	case isa.OpFDIV:
		s.FPR[in.RT] = f2b(b2f(s.FPR[in.RA]) / b2f(s.FPR[in.RB]))
	case isa.OpFMR:
		s.FPR[in.RT] = s.FPR[in.RB]
	case isa.OpFCMP:
		s.CR0 = fcmp(b2f(s.FPR[in.RA]), b2f(s.FPR[in.RB]))

	case isa.OpNOP:
		// nothing
	case isa.OpTESTEND:
		res.Event = EventTestEnd
	case isa.OpHALT:
		s.Halted = true
		res.Event = EventHalt
	default:
		res.Event = EventIllegal
	}

	s.PC = nextPC
	s.InstCount++
	if res.Event == EventTestEnd {
		res.Signature = s.State.Signature()
	}
	return res
}

// Run steps until an event other than EventNone occurs or maxSteps is
// reached; it returns the terminating result (Event EventNone on budget
// exhaustion).
func (s *Sim) Run(maxSteps int) StepResult {
	for i := 0; i < maxSteps; i++ {
		if r := s.Step(); r.Event != EventNone {
			return r
		}
	}
	return StepResult{Event: EventNone}
}

func divd(a, b uint64) uint64 {
	sb := int64(b)
	if sb == 0 {
		return 0
	}
	sa := int64(a)
	if sa == math.MinInt64 && sb == -1 {
		return 0
	}
	return uint64(sa / sb)
}

func cmpSigned(a, b int64) uint8 {
	switch {
	case a < b:
		return 1 << isa.CRLT
	case a > b:
		return 1 << isa.CRGT
	default:
		return 1 << isa.CREQ
	}
}

func cmpUnsigned(a, b uint64) uint8 {
	switch {
	case a < b:
		return 1 << isa.CRLT
	case a > b:
		return 1 << isa.CRGT
	default:
		return 1 << isa.CREQ
	}
}

func fcmp(a, b float64) uint8 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return 1 << isa.CRSO
	case a < b:
		return 1 << isa.CRLT
	case a > b:
		return 1 << isa.CRGT
	default:
		return 1 << isa.CREQ
	}
}

func crBit(cr uint8, bi uint8) bool { return cr&(1<<bi) != 0 }

func b2f(b uint64) float64 { return math.Float64frombits(b) }
func f2b(f float64) uint64 { return math.Float64bits(f) }
