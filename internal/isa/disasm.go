package isa

import (
	"fmt"
	"strings"
)

// Disassemble renders a program's instruction words with addresses, one
// line per word, resolving branch targets to absolute word addresses. A word
// the assembler has no instruction syntax for (an undefined opcode, a bc
// with BO or BI outside the values the core defines) is rendered as a .word
// directive, so every line reassembles to its word.
func Disassemble(base uint64, words []uint32) string {
	var sb strings.Builder
	for i, w := range words {
		addr := base + uint64(4*i)
		in := Decode(w)
		text := in.String()
		switch in.Op {
		case OpB, OpBL, OpBC, OpBDNZ:
			target := addr + uint64(int64(in.Imm)*4)
			text = fmt.Sprintf("%s\t; -> %#x", text, target)
		}
		switch {
		case !in.Op.Valid():
			text = fmt.Sprintf(".word %#08x\t; undefined", w)
		case in.Op == OpBC && (in.BO > 1 || in.BI > 3):
			// Decode reads five bits of BO and BI; the assembler takes only
			// the values the core defines (BO 0-1, BI 0-3).
			text = fmt.Sprintf(".word %#08x\t; %s", w, text)
		}
		fmt.Fprintf(&sb, "%#08x:  %s\n", addr, text)
	}
	return sb.String()
}
