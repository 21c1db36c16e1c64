package isa

import "fmt"

// Inst is a decoded P6LITE instruction.
//
// Field use by form:
//   - D-form (addi, ld, std, ...): RT, RA, Imm (signed 16-bit, except
//     andi/ori/xori which treat it as an unsigned 16-bit immediate).
//   - X-form (add, fadd, cmp, ...): RT, RA, RB.
//   - Long branches (b, bl): Imm is a signed 26-bit word offset.
//   - Conditional branches (bc): BO (bit 0: branch when the CR bit is SET if
//     1, when CLEAR if 0), BI (CR0 bit index), Imm signed 16-bit word
//     offset. bdnz uses only Imm.
type Inst struct {
	Op     Opcode
	RT     uint8
	RA     uint8
	RB     uint8
	BO     uint8
	BI     uint8
	Imm    int32
	NumRaw uint32 // original encoding when produced by Decode, else 0
}

// Instruction word layout constants.
const (
	opShift = 26
	rtShift = 21
	raShift = 16
	rbShift = 11

	regMask   = 0x1f
	imm16Mask = 0xffff
	off26Mask = 0x03ffffff
)

func signExt16(v uint32) int32 { return int32(int16(uint16(v))) }

func signExt26(v uint32) int32 {
	v &= off26Mask
	if v&(1<<25) != 0 {
		v |= ^uint32(off26Mask)
	}
	return int32(v)
}

// isDForm reports whether op carries a 16-bit immediate with RT/RA fields.
func isDForm(op Opcode) bool {
	switch op {
	case OpADDI, OpADDIS, OpANDI, OpORI, OpXORI,
		OpLD, OpLW, OpSTD, OpSTW, OpLFD, OpSTFD, OpCMPI:
		return true
	}
	return false
}

// isXForm reports whether op is a three-register (or subset) operation.
func isXForm(op Opcode) bool {
	switch op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLD, OpSRD, OpMUL, OpDIVD,
		OpCMP, OpCMPL, OpMTCTR, OpMTLR, OpMFLR, OpMFCTR,
		OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFCMP, OpFMR:
		return true
	}
	return false
}

// Encode packs an instruction into its 32-bit word. It panics on malformed
// instructions (out-of-range registers or offsets), since instructions are
// only built by the assembler, which checks them first, and the AVP
// generator, which must emit well-formed code.
func Encode(in Inst) uint32 {
	w, err := encode(in)
	if err != nil {
		panic("isa: " + err.Error())
	}
	return w
}

// encode is Encode returning why an instruction has no word, the first
// out-of-range field it meets, instead of panicking.
func encode(in Inst) (w uint32, err error) {
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	reg := func(name string, v uint8) uint32 {
		if v > 31 {
			fail("%s register %d out of range", name, v)
		}
		return uint32(v)
	}
	offset16 := func() uint32 {
		if in.Imm < -32768 || in.Imm > 32767 {
			fail("%s offset %d out of 16-bit range", opNames[in.Op], in.Imm)
		}
		return uint32(in.Imm) & imm16Mask
	}
	w = uint32(in.Op) << opShift
	switch {
	case isDForm(in.Op):
		w |= reg("rt", in.RT)<<rtShift | reg("ra", in.RA)<<raShift
		if in.Imm < -32768 || in.Imm > 65535 {
			fail("immediate %d out of 16-bit range", in.Imm)
		}
		w |= uint32(in.Imm) & imm16Mask
	case isXForm(in.Op):
		w |= reg("rt", in.RT)<<rtShift | reg("ra", in.RA)<<raShift | reg("rb", in.RB)<<rbShift
	case in.Op == OpB || in.Op == OpBL:
		if in.Imm < -(1<<25) || in.Imm >= (1<<25) {
			fail("branch offset %d out of 26-bit range", in.Imm)
		}
		w |= uint32(in.Imm) & off26Mask
	case in.Op == OpBC:
		if in.BO > 1 || in.BI > 3 {
			fail("bc bo=%d bi=%d out of range", in.BO, in.BI)
		}
		w |= uint32(in.BO)<<rtShift | uint32(in.BI)<<raShift | offset16()
	case in.Op == OpBDNZ:
		w |= offset16()
	case in.Op == OpBLR, in.Op == OpNOP, in.Op == OpTESTEND, in.Op == OpHALT,
		in.Op == OpIllegal:
		// No operand fields.
	default:
		fail("cannot encode opcode %v", in.Op)
	}
	return w, err
}

// Decode unpacks a 32-bit instruction word. Unknown opcodes decode to an
// Inst with the raw opcode preserved; callers detect them via Op.Valid().
func Decode(w uint32) Inst {
	op := Opcode(w >> opShift)
	in := Inst{Op: op, NumRaw: w}
	switch {
	case isDForm(op):
		in.RT = uint8((w >> rtShift) & regMask)
		in.RA = uint8((w >> raShift) & regMask)
		in.Imm = signExt16(w & imm16Mask)
	case isXForm(op):
		in.RT = uint8((w >> rtShift) & regMask)
		in.RA = uint8((w >> raShift) & regMask)
		in.RB = uint8((w >> rbShift) & regMask)
	case op == OpB || op == OpBL:
		in.Imm = signExt26(w)
	case op == OpBC:
		in.BO = uint8((w >> rtShift) & regMask)
		in.BI = uint8((w >> raShift) & regMask)
		in.Imm = signExt16(w & imm16Mask)
	case op == OpBDNZ:
		in.Imm = signExt16(w & imm16Mask)
	}
	return in
}

// UImm returns the immediate interpreted as an unsigned 16-bit value, the
// reading used by the logical immediates andi/ori/xori.
func (in Inst) UImm() uint64 { return uint64(uint16(in.Imm)) }

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch {
	case isDForm(in.Op):
		switch in.Op {
		case OpLD, OpLW, OpSTD, OpSTW, OpLFD, OpSTFD:
			return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.RT, in.Imm, in.RA)
		case OpANDI, OpORI, OpXORI:
			return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.RT, in.RA, in.UImm())
		case OpCMPI:
			return fmt.Sprintf("cmpi r%d, %d", in.RA, in.Imm)
		default:
			return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.RT, in.RA, in.Imm)
		}
	case isXForm(in.Op):
		switch in.Op {
		case OpMTCTR, OpMTLR:
			return fmt.Sprintf("%s r%d", in.Op, in.RA)
		case OpMFLR, OpMFCTR:
			return fmt.Sprintf("%s r%d", in.Op, in.RT)
		case OpCMP, OpCMPL, OpFCMP:
			return fmt.Sprintf("%s r%d, r%d", in.Op, in.RA, in.RB)
		case OpFMR:
			return fmt.Sprintf("%s f%d, f%d", in.Op, in.RT, in.RB)
		case OpFADD, OpFSUB, OpFMUL, OpFDIV:
			return fmt.Sprintf("%s f%d, f%d, f%d", in.Op, in.RT, in.RA, in.RB)
		default:
			return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.RT, in.RA, in.RB)
		}
	case in.Op == OpB || in.Op == OpBL:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case in.Op == OpBC:
		return fmt.Sprintf("bc %d, %d, %d", in.BO, in.BI, in.Imm)
	case in.Op == OpBDNZ:
		return fmt.Sprintf("bdnz %d", in.Imm)
	default:
		return in.Op.String()
	}
}
