// Package array models the ECC-protected SRAM arrays of the core (cache
// data and tags, the recovery unit's architected-state checkpoint). Arrays
// are not part of the latch population — the paper notes that "a large
// portion of the RUT consists of arrays which are protected" — but the beam
// experiment strikes them too, so every cell is individually flippable and
// every read goes through SECDED decode.
package array

import (
	"fmt"

	"sfi/internal/bits"
	"sfi/internal/dirty"
)

// blockShift: the entries are dirty-tracked 8 to a block.
const blockShift = 3

// Protected is an ECC-protected array of 64-bit words. The raw cells (data
// and check bits) are a dirty.Store, whose baseline, snapshot, restore and
// delta methods are the array's; none of them covers the error counters.
type Protected struct {
	dirty.Store[bits.ECCWord]
	name string

	// Corrected counts single-bit errors corrected on read or scrub.
	Corrected uint64
	// Uncorrectable counts multi-bit errors detected on read or scrub.
	Uncorrectable uint64
}

// New returns a Protected array with entries zeroed words (valid ECC).
func New(name string, entries int) *Protected {
	if entries < 1 {
		panic(fmt.Sprintf("array: entries %d < 1 for %s", entries, name))
	}
	p := &Protected{Store: dirty.New[bits.ECCWord](entries, blockShift), name: name}
	p.Fill(bits.EncodeSECDED(0))
	return p
}

// Name returns the array's name.
func (p *Protected) Name() string { return p.name }

// Entries returns the number of 64-bit words.
func (p *Protected) Entries() int { return len(p.Cells) }

// TotalBits returns the number of storage bits including check bits, the
// population the beam model samples from.
func (p *Protected) TotalBits() int { return len(p.Cells) * 72 }

// Write stores a word with freshly computed check bits.
func (p *Protected) Write(entry int, data uint64) {
	p.Cells[entry] = bits.EncodeSECDED(data)
	p.Touch(entry >> blockShift)
}

// Read loads a word through ECC decode. Single-bit errors are corrected
// in place (read-repair) and counted; uncorrectable errors are counted and
// reported so the owner can escalate.
func (p *Protected) Read(entry int) (uint64, bits.ECCResult) {
	data, res := bits.DecodeSECDED(p.Cells[entry])
	switch res {
	case bits.ECCCorrected:
		p.Corrected++
		p.Cells[entry] = bits.EncodeSECDED(data)
		p.Touch(entry >> blockShift)
	case bits.ECCUncorrectable:
		p.Uncorrectable++
	}
	return data, res
}

// FlipBit injects a fault into storage: bit < 64 hits the data word,
// bits 64..71 hit the check bits. This is the beam-strike primitive.
func (p *Protected) FlipBit(entry, bit int) {
	if bit < 0 || bit > 71 {
		panic(fmt.Sprintf("array: bit %d out of range [0,72) in %s", bit, p.name))
	}
	if bit < 64 {
		p.Cells[entry].Data ^= 1 << uint(bit)
	} else {
		p.Cells[entry].Check ^= 1 << uint(bit-64)
	}
	p.Touch(entry >> blockShift)
}

// ScrubStep checks one entry (correcting if needed) and returns its result;
// the background scrubber calls this round-robin.
func (p *Protected) ScrubStep(entry int) bits.ECCResult {
	_, res := p.Read(entry)
	return res
}

// ResetCounters zeroes the error counters.
func (p *Protected) ResetCounters() {
	p.Corrected = 0
	p.Uncorrectable = 0
}
