package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates P6LITE assembly text into instruction words.
//
// Syntax, one instruction per line:
//
//	loop:              ; a label
//	  addi r1, r0, 10  # comments start with ';' or '#'
//	  ld   r2, 8(r5)
//	  cmp  r1, r2
//	  bc   1, 2, done  ; branch to label if CR0[EQ] set
//	  b    loop
//	done:
//	  testend
//
// Branch targets may be labels or literal signed word offsets. A line
// `.word N` emits the 32-bit word N as it is.
func Assemble(src string) ([]uint32, error) {
	return assemble(src)
}

var nameToOp = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

func assemble(src string) ([]uint32, error) {
	type pending struct {
		lineNo int
		pc     int
		inst   Inst
		label  string
	}

	labels := make(map[string]int)
	var insts []Inst
	var lineNos []int // the source line of each instruction
	var fixups []pending
	direct := make(map[int]uint32) // pc -> the word a .word line emits

	lines := strings.Split(src, "\n")
	pc := 0
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(line[:colon])
			if label == "" || strings.ContainsAny(label, " \t") {
				return nil, fmt.Errorf("isa: line %d: bad label %q", lineNo+1, label)
			}
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("isa: line %d: duplicate label %q", lineNo+1, label)
			}
			labels[label] = pc
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}

		if f := strings.Fields(line); f[0] == ".word" {
			if len(f) != 2 {
				return nil, fmt.Errorf("isa: line %d: .word needs one operand", lineNo+1)
			}
			w, err := strconv.ParseUint(f[1], 0, 32)
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: bad word %q", lineNo+1, f[1])
			}
			direct[pc] = uint32(w)
			insts = append(insts, Inst{})
			lineNos = append(lineNos, lineNo+1)
			pc++
			continue
		}
		inst, labelRef, err := parseInst(line)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo+1, err)
		}
		if labelRef != "" {
			fixups = append(fixups, pending{lineNo + 1, pc, inst, labelRef})
		}
		insts = append(insts, inst)
		lineNos = append(lineNos, lineNo+1)
		pc++
	}

	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: line %d: undefined label %q", f.lineNo, f.label)
		}
		insts[f.pc].Imm = int32(target - f.pc)
	}

	// Operands are range-checked here, once label offsets are known.
	words := make([]uint32, len(insts))
	for i, in := range insts {
		if w, ok := direct[i]; ok {
			words[i] = w
			continue
		}
		w, err := encode(in)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNos[i], err)
		}
		words[i] = w
	}
	return words, nil
}

// MustAssemble is Assemble that panics on error, for tests and examples with
// constant source text.
func MustAssemble(src string) []uint32 {
	w, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return w
}

func parseInst(line string) (Inst, string, error) {
	fields := strings.Fields(line)
	mn := strings.ToLower(fields[0])
	args := strings.Join(fields[1:], " ")
	var ops []string
	if args != "" {
		for _, a := range strings.Split(args, ",") {
			ops = append(ops, strings.TrimSpace(a))
		}
	}

	op, found := nameToOp[mn]
	if !found {
		return Inst{}, "", fmt.Errorf("unknown mnemonic %q", mn)
	}

	in := Inst{Op: op}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s needs %d operands, got %d", mn, n, len(ops))
		}
		return nil
	}

	switch {
	case op == OpLD || op == OpLW || op == OpSTD || op == OpSTW ||
		op == OpLFD || op == OpSTFD:
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		rt, err := parseReg(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		imm, ra, err := parseMem(ops[1])
		if err != nil {
			return Inst{}, "", err
		}
		in.RT, in.RA, in.Imm = rt, ra, imm
	case isDForm(op): // addi, addis, andi, ori, xori, cmpi
		if op == OpCMPI {
			if err := need(2); err != nil {
				return Inst{}, "", err
			}
			ra, err := parseReg(ops[0])
			if err != nil {
				return Inst{}, "", err
			}
			imm, err := parseImm(ops[1])
			if err != nil {
				return Inst{}, "", err
			}
			in.RA, in.Imm = ra, imm
			break
		}
		if err := need(3); err != nil {
			return Inst{}, "", err
		}
		rt, err := parseReg(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		ra, err := parseReg(ops[1])
		if err != nil {
			return Inst{}, "", err
		}
		imm, err := parseImm(ops[2])
		if err != nil {
			return Inst{}, "", err
		}
		in.RT, in.RA, in.Imm = rt, ra, imm
	case op == OpCMP || op == OpCMPL || op == OpFCMP:
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		rb, err := parseReg(ops[1])
		if err != nil {
			return Inst{}, "", err
		}
		in.RA, in.RB = ra, rb
	case op == OpMTCTR || op == OpMTLR:
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		in.RA = ra
	case op == OpMFLR || op == OpMFCTR:
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		rt, err := parseReg(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		in.RT = rt
	case op == OpFMR:
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		rt, err := parseReg(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		rb, err := parseReg(ops[1])
		if err != nil {
			return Inst{}, "", err
		}
		in.RT, in.RB = rt, rb
	case isXForm(op): // add..divd, fadd..fdiv
		if err := need(3); err != nil {
			return Inst{}, "", err
		}
		rt, err := parseReg(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		ra, err := parseReg(ops[1])
		if err != nil {
			return Inst{}, "", err
		}
		rb, err := parseReg(ops[2])
		if err != nil {
			return Inst{}, "", err
		}
		in.RT, in.RA, in.RB = rt, ra, rb
	case op == OpB || op == OpBL || op == OpBDNZ:
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		if imm, err := parseImm(ops[0]); err == nil {
			in.Imm = imm
			return in, "", nil
		}
		return in, ops[0], nil
	case op == OpBC:
		if err := need(3); err != nil {
			return Inst{}, "", err
		}
		bo, err := parseImm(ops[0])
		if err != nil {
			return Inst{}, "", err
		}
		bi, err := parseImm(ops[1])
		if err != nil {
			return Inst{}, "", err
		}
		if bo < 0 || bo > 1 || bi < 0 || bi > 3 {
			return Inst{}, "", fmt.Errorf("bc bo=%d bi=%d out of range", bo, bi)
		}
		in.BO, in.BI = uint8(bo), uint8(bi)
		if imm, err := parseImm(ops[2]); err == nil {
			in.Imm = imm
			return in, "", nil
		}
		return in, ops[2], nil
	case op == OpBLR || op == OpNOP || op == OpTESTEND || op == OpHALT ||
		op == OpIllegal:
		if err := need(0); err != nil {
			return Inst{}, "", err
		}
	default:
		return Inst{}, "", fmt.Errorf("unhandled mnemonic %q", mn)
	}
	return in, "", nil
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'f') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int32, error) {
	n, err := strconv.ParseInt(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return int32(n), nil
}

// parseMem parses "disp(rN)" displacement addressing.
func parseMem(s string) (int32, uint8, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	dispStr := strings.TrimSpace(s[:open])
	imm := int32(0)
	if dispStr != "" {
		v, err := parseImm(dispStr)
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	ra, err := parseReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return imm, ra, nil
}
