package bits

import (
	"fmt"
	mathbits "math/bits"
)

// SECDED implements a (72,64) Hamming single-error-correct /
// double-error-detect code, the protection scheme used by the model's SRAM
// arrays (caches and the RUT architected-state checkpoint).
//
// Check bit i (i in 0..6) covers every data bit whose 7-bit position code has
// bit i set; an eighth overall-parity bit provides double-error detection.
//
// Every array read, write and scrub step runs this code, so it is computed
// word-wise: each check bit is the parity (popcount) of the data word under
// a fixed mask, and a syndrome is turned back into the bit it names by table
// lookup.

// ECCWord is a 64-bit data word together with its 8 SECDED check bits, as it
// would be stored in an array cell.
type ECCWord struct {
	Data  uint64
	Check uint8
}

// Syndrome classes in eccSynBit that name no data bit.
const (
	synCheckBit = -1 // a power of two: one of the 7 Hamming check bits
	synNone     = -2 // no position assigned: alias of a multi-bit error
)

// eccMasks[i] selects the data bits check bit i covers. eccSynBit maps a
// nonzero 7-bit syndrome to the data bit carrying that position code, or to
// one of the classes above.
//
// Position codes that are powers of two are reserved for the check bits
// themselves, so data bits use the remaining codes in increasing order
// (data bit 0 has code 3, data bit 63 code 71).
var eccMasks, eccSynBit = func() (masks [7]uint64, syn [128]int8) {
	for s := range syn {
		syn[s] = synNone
		if s&(s-1) == 0 {
			syn[s] = synCheckBit
		}
	}
	code := 1
	for i := 0; i < 64; i++ {
		code++
		for code&(code-1) == 0 { // skip powers of two (check-bit slots)
			code++
		}
		syn[code] = int8(i)
		for k := range masks {
			if code&(1<<uint(k)) != 0 {
				masks[k] |= 1 << uint(i)
			}
		}
	}
	return masks, syn
}()

// hamming computes the 7 Hamming check bits of a data word: bit i is the
// parity of the data bits check bit i covers, which equals the XOR of the
// position codes of all set data bits.
func hamming(data uint64) uint8 {
	m := &eccMasks
	return uint8(mathbits.OnesCount64(data&m[0])&1 |
		mathbits.OnesCount64(data&m[1])&1<<1 |
		mathbits.OnesCount64(data&m[2])&1<<2 |
		mathbits.OnesCount64(data&m[3])&1<<3 |
		mathbits.OnesCount64(data&m[4])&1<<4 |
		mathbits.OnesCount64(data&m[5])&1<<5 |
		mathbits.OnesCount64(data&m[6])&1<<6)
}

// EncodeSECDED computes the SECDED check bits for a 64-bit data word.
func EncodeSECDED(data uint64) ECCWord {
	check := hamming(data)
	// Overall parity over data plus the 7 Hamming check bits.
	overall := (mathbits.OnesCount64(data) + mathbits.OnesCount8(check)) & 1
	return ECCWord{Data: data, Check: check | uint8(overall)<<7}
}

// ECCResult classifies the outcome of a SECDED decode.
type ECCResult int

const (
	// ECCClean means the stored word had no detectable error.
	ECCClean ECCResult = iota + 1
	// ECCCorrected means a single-bit error was detected and corrected.
	ECCCorrected
	// ECCUncorrectable means a multi-bit error was detected; the returned
	// data is not trustworthy.
	ECCUncorrectable
)

func (r ECCResult) String() string {
	switch r {
	case ECCClean:
		return "clean"
	case ECCCorrected:
		return "corrected"
	case ECCUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("ECCResult(%d)", int(r))
	}
}

// DecodeSECDED checks a stored word, correcting a single-bit error in either
// the data or the check bits. It returns the (possibly corrected) data and
// the classification.
func DecodeSECDED(w ECCWord) (uint64, ECCResult) {
	// Syndrome: recomputed vs stored Hamming check bits.
	syndrome := (w.Check ^ hamming(w.Data)) & 0x7f

	// Overall parity of the received word (data + low-7 check + overall
	// bit). Encoding makes this even, so odd parity here means an odd
	// number of bit errors.
	oddErrors := (mathbits.OnesCount64(w.Data)+mathbits.OnesCount8(w.Check))&1 != 0

	switch {
	case syndrome == 0 && !oddErrors:
		return w.Data, ECCClean
	case syndrome == 0:
		// Error confined to the overall parity bit itself.
		return w.Data, ECCCorrected
	case !oddErrors:
		// Nonzero syndrome with even overall parity: double error.
		return w.Data, ECCUncorrectable
	}
	// Nonzero syndrome with odd overall parity: a single error, at the
	// position the syndrome names.
	switch bit := eccSynBit[syndrome]; bit {
	case synCheckBit:
		return w.Data, ECCCorrected
	case synNone:
		return w.Data, ECCUncorrectable
	default:
		return w.Data ^ 1<<uint(bit), ECCCorrected
	}
}
