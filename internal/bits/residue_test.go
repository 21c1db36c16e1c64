package bits

import (
	mathbits "math/bits"
	"testing"
	"testing/quick"
)

func TestResidue3Basics(t *testing.T) {
	tests := []struct {
		v    uint64
		want uint8
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 0}, {4, 1}, {5, 2}, {6, 0},
		{300, 0}, {301, 1}, {0xffffffffffffffff, 0},
	}
	for _, tc := range tests {
		if got := Residue3(tc.v); got != tc.want {
			t.Errorf("Residue3(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestQuickResidue3MatchesMod(t *testing.T) {
	f := func(v uint64) bool { return Residue3(v) == uint8(v%3) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The three predictions below are what makes mod 3 a checker: the residue of
// a result follows from the operand residues alone. The wrapped 64-bit sum
// is the full sum minus carry·2^64, and 2^64 ≡ 1 (mod 3), so a carry-out
// takes one off the predicted residue and a borrow-out adds one — the
// correction a hardware residue checker (awan.BuildCheckedALU) applies from
// the adder's carry-out.

func TestQuickAddResiduePredicts(t *testing.T) {
	f := func(a, b uint64) bool {
		sum, carry := mathbits.Add64(a, b, 0)
		return (Residue3(a)+Residue3(b)+2*uint8(carry))%3 == Residue3(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubResiduePredicts(t *testing.T) {
	f := func(a, b uint64) bool {
		diff, borrow := mathbits.Sub64(a, b, 0)
		return (Residue3(a)+3-Residue3(b)+uint8(borrow))%3 == Residue3(diff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulResiduePredicts(t *testing.T) {
	// The checker predicts the residue of the full product. Since
	// 2^64 ≡ 1 (mod 3), the residue of the 128-bit product hi·2^64+lo is
	// (Residue3(hi)+Residue3(lo)) % 3.
	f := func(a, b uint64) bool {
		hi, lo := mathbits.Mul64(a, b)
		full := (Residue3(hi) + Residue3(lo)) % 3
		return Residue3(a)*Residue3(b)%3 == full
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulResiduePredictsNoOverflow(t *testing.T) {
	f := func(a, b uint32) bool {
		p := uint64(a) * uint64(b)
		return Residue3(uint64(a))*Residue3(uint64(b))%3 == Residue3(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
