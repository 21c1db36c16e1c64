package bits

// Mod-3 residue arithmetic, the classic low-cost arithmetic checker used by
// the FXU: the residue of a sum/difference/product can be predicted from the
// operand residues, so a mismatch between the predicted and recomputed
// residue of an ALU result flags a fault in the datapath.

// Residue3 returns v mod 3 computed the way a residue tree would: by folding
// the word in 2-bit digits (4 ≡ 1 mod 3, so base-4 digit sum preserves the
// residue).
func Residue3(v uint64) uint8 {
	for v > 3 {
		var s uint64
		for v != 0 {
			s += v & 3
			v >>= 2
		}
		v = s
	}
	if v == 3 {
		return 0
	}
	return uint8(v)
}
