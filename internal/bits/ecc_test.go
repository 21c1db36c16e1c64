package bits

import (
	mathbits "math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// The retired bit-serial SECDED implementation, kept as the oracle the
// word-wise production code is checked against: one loop iteration per data
// bit, straight from the code's definition.

// refPositions[i] is the 7-bit nonzero position code assigned to data bit i.
// Position codes that are powers of two are reserved for the check bits
// themselves, so data bits use the remaining codes in increasing order.
var refPositions = func() [64]uint8 {
	var pos [64]uint8
	code := uint8(1)
	for i := 0; i < 64; i++ {
		code++
		for code&(code-1) == 0 { // skip powers of two (check-bit slots)
			code++
		}
		pos[i] = code
	}
	return pos
}()

func refPopcount8(b uint8) int {
	n := 0
	for b != 0 {
		b &= b - 1
		n++
	}
	return n
}

func refSyndrome(data uint64) uint8 {
	var syndrome uint8
	for i := 0; i < 64; i++ {
		if data&(1<<uint(i)) != 0 {
			syndrome ^= refPositions[i]
		}
	}
	return syndrome
}

// refParity64 is the parity of a 64-bit word: true for an odd number of ones.
func refParity64(w uint64) bool { return mathbits.OnesCount64(w)%2 == 1 }

func refEncodeSECDED(data uint64) ECCWord {
	check := refSyndrome(data) & 0x7f
	// Overall parity over data plus the 7 Hamming check bits.
	if refParity64(data) != (refPopcount8(check)%2 == 1) {
		check |= 0x80
	}
	return ECCWord{Data: data, Check: check}
}

func refDecodeSECDED(w ECCWord) (uint64, ECCResult) {
	syndrome := (w.Check ^ refSyndrome(w.Data)) & 0x7f
	oddErrors := refParity64(w.Data) != (refPopcount8(w.Check)%2 == 1)
	switch {
	case syndrome == 0 && !oddErrors:
		return w.Data, ECCClean
	case syndrome == 0 && oddErrors:
		return w.Data, ECCCorrected
	case oddErrors:
		if syndrome&(syndrome-1) == 0 {
			return w.Data, ECCCorrected
		}
		for i := 0; i < 64; i++ {
			if refPositions[i] == syndrome {
				return w.Data ^ (1 << uint(i)), ECCCorrected
			}
		}
		// Syndrome names no known position: alias of a multi-bit error.
		return w.Data, ECCUncorrectable
	default:
		return w.Data, ECCUncorrectable
	}
}

// checkAgainstRef requires the production decoder and the oracle to agree
// on a stored word.
func checkAgainstRef(t *testing.T, w ECCWord) ECCResult {
	t.Helper()
	got, res := DecodeSECDED(w)
	want, wantRes := refDecodeSECDED(w)
	if got != want || res != wantRes {
		t.Fatalf("DecodeSECDED(%#x,%#02x) = %#x,%v, oracle %#x,%v",
			w.Data, w.Check, got, res, want, wantRes)
	}
	return res
}

// flip72 flips bit b of the 72-bit stored word: 0..63 data, 64..71 check.
func flip72(w ECCWord, b int) ECCWord {
	if b < 64 {
		w.Data ^= 1 << uint(b)
	} else {
		w.Check ^= 1 << uint(b-64)
	}
	return w
}

var secdedWords = []uint64{
	0, ^uint64(0), 1, 1 << 63, 0x0123456789abcdef, 0xfeedfacecafebeef,
	0x5555aaaa3333cccc, 0x0f0f0f0f0f0f0f0f,
}

// TestSECDEDExhaustiveFlips walks every single and every double flip of
// the 72 stored bits on several words. Singles must be corrected back to
// the original data, doubles must never be miscorrected, and every decode
// must match the oracle.
func TestSECDEDExhaustiveFlips(t *testing.T) {
	for _, d := range secdedWords {
		w := EncodeSECDED(d)
		if ref := refEncodeSECDED(d); w != ref {
			t.Fatalf("EncodeSECDED(%#x) = %+v, oracle %+v", d, w, ref)
		}
		if res := checkAgainstRef(t, w); res != ECCClean {
			t.Fatalf("%#x: untouched word decodes %v", d, res)
		}
		for i := 0; i < 72; i++ {
			w1 := flip72(w, i)
			if res := checkAgainstRef(t, w1); res != ECCCorrected {
				t.Fatalf("%#x: single flip %d decodes %v", d, i, res)
			}
			if got, _ := DecodeSECDED(w1); got != d {
				t.Fatalf("%#x: single flip %d corrected to %#x", d, i, got)
			}
			for j := i + 1; j < 72; j++ {
				if res := checkAgainstRef(t, flip72(w1, j)); res != ECCUncorrectable {
					t.Fatalf("%#x: double flip %d,%d decodes %v", d, i, j, res)
				}
			}
		}
	}
}

// TestSECDEDUnassignedSyndrome covers the branch no single or double flip
// reaches: odd overall parity with a syndrome in 72..127, which names no
// stored bit and must be reported uncorrectable with the data untouched.
func TestSECDEDUnassignedSyndrome(t *testing.T) {
	for _, d := range secdedWords {
		w := EncodeSECDED(d)
		for syn := 72; syn < 128; syn++ {
			bad := w
			bad.Check ^= uint8(syn)
			if refPopcount8(uint8(syn))%2 == 0 {
				bad.Check ^= 0x80 // make the overall parity odd
			}
			if res := checkAgainstRef(t, bad); res != ECCUncorrectable {
				t.Fatalf("%#x: syndrome %d decodes %v", d, syn, res)
			}
			if got, _ := DecodeSECDED(bad); got != d {
				t.Fatalf("%#x: syndrome %d changed the data to %#x", d, syn, got)
			}
		}
	}
}

// FuzzSECDED feeds arbitrary stored words — valid or not — through the
// production code and the oracle.
func FuzzSECDED(f *testing.F) {
	for _, d := range secdedWords {
		w := EncodeSECDED(d)
		f.Add(w.Data, w.Check)
		f.Add(w.Data^1<<17, w.Check)
		f.Add(w.Data, w.Check^0x7f)
	}
	f.Fuzz(func(t *testing.T, data uint64, check uint8) {
		checkAgainstRef(t, ECCWord{Data: data, Check: check})
		if w, ref := EncodeSECDED(data), refEncodeSECDED(data); w != ref {
			t.Fatalf("EncodeSECDED(%#x) = %+v, oracle %+v", data, w, ref)
		}
	})
}

var sinkECC uint64

// BenchmarkSECDED times one array write plus one clean read, the pair
// every cache access and scrub step pays.
func BenchmarkSECDED(b *testing.B) {
	d := uint64(0x0123456789abcdef)
	for i := 0; i < b.N; i++ {
		v, _ := DecodeSECDED(EncodeSECDED(d))
		d = d*0x9e3779b97f4a7c15 + v>>7
	}
	sinkECC = d
}

func TestSECDEDCleanRoundTrip(t *testing.T) {
	for _, d := range []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeef, 1 << 63} {
		w := EncodeSECDED(d)
		got, res := DecodeSECDED(w)
		if res != ECCClean || got != d {
			t.Errorf("DecodeSECDED(Encode(%#x)) = %#x,%v, want clean", d, got, res)
		}
	}
}

func TestSECDEDCorrectsEverySingleDataBit(t *testing.T) {
	d := uint64(0x0123456789abcdef)
	for i := 0; i < 64; i++ {
		w := EncodeSECDED(d)
		w.Data ^= 1 << uint(i)
		got, res := DecodeSECDED(w)
		if res != ECCCorrected {
			t.Fatalf("bit %d: result %v, want corrected", i, res)
		}
		if got != d {
			t.Fatalf("bit %d: data %#x, want %#x", i, got, d)
		}
	}
}

func TestSECDEDCorrectsEveryCheckBit(t *testing.T) {
	d := uint64(0xfeedfacecafebeef)
	for i := 0; i < 8; i++ {
		w := EncodeSECDED(d)
		w.Check ^= 1 << uint(i)
		got, res := DecodeSECDED(w)
		if res != ECCCorrected {
			t.Fatalf("check bit %d: result %v, want corrected", i, res)
		}
		if got != d {
			t.Fatalf("check bit %d: data corrupted to %#x", i, got)
		}
	}
}

func TestSECDEDDetectsDoubleErrors(t *testing.T) {
	d := uint64(0x5555aaaa3333cccc)
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 500; trial++ {
		i := rng.IntN(64)
		j := rng.IntN(64)
		for j == i {
			j = rng.IntN(64)
		}
		w := EncodeSECDED(d)
		w.Data ^= (1 << uint(i)) | (1 << uint(j))
		_, res := DecodeSECDED(w)
		if res != ECCUncorrectable {
			t.Fatalf("double error bits %d,%d: result %v, want uncorrectable", i, j, res)
		}
	}
}

func TestSECDEDDoubleErrorDataPlusCheck(t *testing.T) {
	d := uint64(0x0f0f0f0f0f0f0f0f)
	rng := rand.New(rand.NewPCG(9, 9))
	uncorrectable := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		w := EncodeSECDED(d)
		w.Data ^= 1 << uint(rng.IntN(64))
		w.Check ^= 1 << uint(rng.IntN(8))
		_, res := DecodeSECDED(w)
		if res == ECCUncorrectable {
			uncorrectable++
		} else if res == ECCCorrected {
			// A data-bit flip plus the overall parity bit aliases to a
			// correctable pattern only when the syndrome still points at the
			// data bit AND overall parity looks single; acceptable alias.
		} else {
			t.Fatalf("double error (data+check) classified clean")
		}
	}
	if uncorrectable == 0 {
		t.Error("no data+check double error was flagged uncorrectable")
	}
}

func TestECCResultString(t *testing.T) {
	if ECCClean.String() != "clean" || ECCCorrected.String() != "corrected" ||
		ECCUncorrectable.String() != "uncorrectable" {
		t.Error("ECCResult strings wrong")
	}
	if ECCResult(99).String() == "" {
		t.Error("unknown ECCResult should still render")
	}
}

// Property: any single-bit data error is corrected for arbitrary words.
func TestQuickSECDEDSingleErrorCorrection(t *testing.T) {
	f := func(d uint64, bit uint8) bool {
		i := int(bit % 64)
		w := EncodeSECDED(d)
		w.Data ^= 1 << uint(i)
		got, res := DecodeSECDED(w)
		return res == ECCCorrected && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encode is deterministic and decode of untouched word is clean.
func TestQuickSECDEDCleanProperty(t *testing.T) {
	f := func(d uint64) bool {
		w1 := EncodeSECDED(d)
		w2 := EncodeSECDED(d)
		if w1 != w2 {
			return false
		}
		got, res := DecodeSECDED(w1)
		return res == ECCClean && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
