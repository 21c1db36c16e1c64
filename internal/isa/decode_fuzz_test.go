package isa

import (
	"encoding/binary"
	"testing"
)

// operands is in as its assembler text states it: the opcode and the fields
// its syntax carries, every field the opcode ignores zero and no raw
// encoding. Two words are the same instruction when their operands are.
func operands(in Inst) Inst {
	o := Inst{Op: in.Op}
	switch {
	case in.Op == OpCMPI:
		o.RA, o.Imm = in.RA, in.Imm
	case isDForm(in.Op):
		o.RT, o.RA, o.Imm = in.RT, in.RA, in.Imm
	case in.Op == OpCMP, in.Op == OpCMPL, in.Op == OpFCMP:
		o.RA, o.RB = in.RA, in.RB
	case in.Op == OpMTCTR, in.Op == OpMTLR:
		o.RA = in.RA
	case in.Op == OpMFLR, in.Op == OpMFCTR:
		o.RT = in.RT
	case in.Op == OpFMR:
		o.RT, o.RB = in.RT, in.RB
	case isXForm(in.Op):
		o.RT, o.RA, o.RB = in.RT, in.RA, in.RB
	case in.Op == OpB, in.Op == OpBL, in.Op == OpBDNZ:
		o.Imm = in.Imm
	case in.Op == OpBC:
		o.BO, o.BI, o.Imm = in.BO, in.BI, in.Imm
	}
	return o
}

// FuzzDecode hands Decode arbitrary 32-bit words, as a flip in an
// instruction latch (fxu.ex.ir, idu.d1.ir, idu.d2.ir) does in every
// campaign. Decode, ClassOf, RegSets and Disassemble must not panic on any
// of them, and every word's one line of disassembly must reassemble: an
// undefined word to itself, and a word that decodes to a valid instruction
// to a word that decodes to the same instruction — the same operands, and
// the same register sets, so RegSets reads no bit the syntax leaves out.
// The seeds are one word of each opcode with every field bit set and with
// none, and the AVP-style program of the disassembly tests.
func FuzzDecode(f *testing.F) {
	word := func(w uint32) []byte { return binary.LittleEndian.AppendUint32(nil, w) }
	for op := 0; op < 64; op++ {
		f.Add(word(uint32(op)<<opShift | off26Mask))
		f.Add(word(uint32(op) << opShift))
	}
	for _, w := range MustAssemble("addi r1, r0, 100\nmtctr r1\nx: std r1, 8(r13)\nld r2, 8(r13)\nbc 1, 2, x\nbdnz x\nblr") {
		f.Add(word(w))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		w := binary.LittleEndian.Uint32(b)
		in := Decode(w)
		_ = ClassOf(in.Op)
		rdG, wrG, rdF, wrF, rdS, wrS := RegSets(in)
		line := Disassemble(0x100, []uint32{w})
		re, err := Assemble(line) // the address prefix reads as a label
		if err != nil || len(re) != 1 {
			t.Fatalf("%#08x disassembles to %q, which does not reassemble to one word: %v", w, line, err)
		}
		if !in.Op.Valid() {
			if re[0] != w {
				t.Fatalf("undefined word %#08x disassembles to %q, which reassembles to %#08x", w, line, re[0])
			}
			return
		}
		back := Decode(re[0])
		if operands(back) != operands(in) {
			t.Fatalf("%#08x disassembles to %q, which reassembles to %#08x: %+v, not %+v", w, line, re[0], operands(back), operands(in))
		}
		g2, wg2, f2, wf2, s2, ws2 := RegSets(back)
		if g2 != rdG || wg2 != wrG || f2 != rdF || wf2 != wrF || s2 != rdS || ws2 != wrS {
			t.Fatalf("%#08x and its reassembly %#08x are the same instruction with different register sets", w, re[0])
		}
	})
}
