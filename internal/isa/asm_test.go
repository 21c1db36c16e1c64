package isa

import (
	"strings"
	"testing"
)

func TestAssembleBasicProgram(t *testing.T) {
	words, err := Assemble(`
		; initialize
		addi r1, r0, 10
		addi r2, r0, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		cmpi r1, 0
		bc   0, 2, loop   ; loop while not equal
		testend
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 8 {
		t.Fatalf("got %d words, want 8", len(words))
	}
	bc := Decode(words[5])
	if bc.Op != OpBC || bc.Imm != -3 {
		t.Errorf("bc decoded to %+v, want offset -3 to loop", bc)
	}
	if Decode(words[6]).Op != OpTESTEND {
		t.Error("word 6 not testend")
	}
}

func TestAssembleForwardLabel(t *testing.T) {
	words, err := Assemble(`
		b end
		nop
		nop
	end:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	b := Decode(words[0])
	if b.Op != OpB || b.Imm != 3 {
		t.Errorf("b decoded to %+v, want offset 3", b)
	}
}

func TestAssembleMemoryOperands(t *testing.T) {
	words, err := Assemble(`
		ld   r1, 8(r2)
		std  r3, -16(r4)
		lfd  f5, 0(r6)
		stfd f7, 24(r8)
		lw   r9, (r10)
	`)
	if err != nil {
		t.Fatal(err)
	}
	ld := Decode(words[0])
	if ld.RT != 1 || ld.RA != 2 || ld.Imm != 8 {
		t.Errorf("ld fields wrong: %+v", ld)
	}
	std := Decode(words[1])
	if std.RT != 3 || std.RA != 4 || std.Imm != -16 {
		t.Errorf("std fields wrong: %+v", std)
	}
	lw := Decode(words[4])
	if lw.RA != 10 || lw.Imm != 0 {
		t.Errorf("lw with empty displacement wrong: %+v", lw)
	}
}

func TestAssembleErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		frag string
	}{
		{"unknown mnemonic", "frobnicate r1, r2", "unknown mnemonic"},
		{"undefined label", "b nowhere", "undefined label"},
		{"duplicate label", "x:\nnop\nx:\nnop", "duplicate label"},
		{"bad register", "addi r99, r0, 1", "bad register"},
		{"bad operand count", "add r1, r2", "needs 3 operands"},
		{"bad memory operand", "ld r1, r2", "bad memory operand"},
		{"bad immediate", "addi r1, r0, xyz", "bad immediate"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestAssembleSPRMoves(t *testing.T) {
	words, err := Assemble(`
		mtctr r5
		mtlr  r6
		mflr  r7
		mfctr r8
		blr
	`)
	if err != nil {
		t.Fatal(err)
	}
	if in := Decode(words[0]); in.Op != OpMTCTR || in.RA != 5 {
		t.Errorf("mtctr wrong: %+v", in)
	}
	if in := Decode(words[2]); in.Op != OpMFLR || in.RT != 7 {
		t.Errorf("mflr wrong: %+v", in)
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bogus r1")
}

func TestAssembleLabelOnSameLine(t *testing.T) {
	words, err := Assemble("start: nop\nb start")
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 2 {
		t.Fatalf("got %d words, want 2", len(words))
	}
	if in := Decode(words[1]); in.Imm != -1 {
		t.Errorf("b offset = %d, want -1", in.Imm)
	}
}

// An operand outside its encoding's range is an error naming the source line,
// whether it was written as a number or reached through a label, and never a
// panic from Encode.
func TestAssembleRejectsOutOfRangeOperands(t *testing.T) {
	far := "nop\n" + strings.Repeat("nop\n", 40000) + "far: halt"
	for _, tc := range []struct {
		src, want string
	}{
		{"addi r1, r2, 99999", "line 1: immediate 99999 out of 16-bit range"},
		{"nop\nld r1, -40000(r2)", "line 2: immediate -40000 out of 16-bit range"},
		{"b 100000000", "line 1: branch offset 100000000 out of 26-bit range"},
		{"bl -33554433", "line 1: branch offset -33554433 out of 26-bit range"},
		{"bc 2, 0, 4", "line 1: bc bo=2 bi=0 out of range"},
		{"bc 0, 4, 4", "line 1: bc bo=0 bi=4 out of range"},
		{"bc 257, 0, 4", "line 1: bc bo=257 bi=0 out of range"},
		{"bc 0, -1, 4", "line 1: bc bo=0 bi=-1 out of range"},
		{"bc 0, 2, 32768", "line 1: bc offset 32768 out of 16-bit range"},
		{"bdnz -40000", "line 1: bdnz offset -40000 out of 16-bit range"},
		{"bc 1, 2, far\n" + far, "line 1: bc offset 40002 out of 16-bit range"},
		{"x: nop\n" + far + "\nbdnz x", "line 40004: bdnz offset -40003 out of 16-bit range"},
	} {
		words, err := Assemble(tc.src)
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("Assemble(%.40q) = %d words, %v; want an error ending %q", tc.src, len(words), err, tc.want)
		}
	}
	// In range, at both ends: the branches reach the label.
	if _, err := Assemble("addi r1, r2, -32768\nori r1, r1, 65535\nbc 1, 3, 32767\nbdnz -32768\nb 33554431"); err != nil {
		t.Errorf("in-range operands refused: %v", err)
	}
}
