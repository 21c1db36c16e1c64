// Package array models the ECC-protected SRAM arrays of the core (cache
// data and tags, the recovery unit's architected-state checkpoint). Arrays
// are not part of the latch population — the paper notes that "a large
// portion of the RUT consists of arrays which are protected" — but the beam
// experiment strikes them too, so every cell is individually flippable and
// every read of a struck array goes through SECDED decode.
package array

import (
	"fmt"

	"sfi/internal/bits"
	"sfi/internal/dirty"
)

// blockShift: the entries are dirty-tracked 8 to a block.
const blockShift = 3

// Protected is an ECC-protected array of 64-bit words. The raw cells (data
// and check bits) are a dirty.Store, held unexported: the methods that
// install contents wholesale — restore, baseline — are the array's own, so
// that the struck flag travels with the contents. None of them covers the
// error counters.
type Protected struct {
	store dirty.Store[bits.ECCWord]
	name  string

	// struck: some cell may hold an invalid codeword. FlipBit sets it and
	// nothing else does — Write and read-repair store valid codewords — so
	// while it is clear every cell decodes clean and Read and ScrubStep skip
	// the decode. A restore or an adopted baseline installs the flag of what
	// it installs, computed when that was captured.
	struck bool
	base   *Baseline
	// tally, when set, counts this array while it is struck (Attach).
	tally *Struck

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
	p := &Protected{store: dirty.New[bits.ECCWord](entries, blockShift), name: name}
	p.store.Fill(bits.EncodeSECDED(0))
	return p
}

// Name returns the array's name.
func (p *Protected) Name() string { return p.name }

// Entries returns the number of 64-bit words.
func (p *Protected) Entries() int { return len(p.store.Cells) }

// TotalBits returns the number of storage bits including check bits, the
// population the beam model samples from.
func (p *Protected) TotalBits() int { return len(p.store.Cells) * 72 }

// Cells returns the raw storage words, data and check bits, for inspection.
// The caller must not modify them.
func (p *Protected) Cells() []bits.ECCWord { return p.store.Cells }

// Clean reports whether every cell is known to hold a valid codeword: no
// strike since the contents were last installed from a clean image.
func (p *Protected) Clean() bool { return !p.struck }

// Struck counts the struck arrays among those attached to it
// (Protected.Attach), so that the owner of many asks whether all are clean
// with one load.
type Struck struct{ n int }

// Clean reports whether every attached array is clean.
func (s *Struck) Clean() bool { return s.n == 0 }

// Attach counts the array in s from now on, while it is struck. An array is
// attached to one Struck at most.
func (p *Protected) Attach(s *Struck) {
	if p.tally != nil {
		panic(fmt.Sprintf("array: %s attached twice", p.name))
	}
	p.tally = s
	if p.struck {
		s.n++
	}
}

// setStruck sets the struck flag, keeping the attached count.
func (p *Protected) setStruck(v bool) {
	if p.tally != nil && v != p.struck {
		if v {
			p.tally.n++
		} else {
			p.tally.n--
		}
	}
	p.struck = v
}

// Write stores a word with freshly computed check bits.
func (p *Protected) Write(entry int, data uint64) {
	p.store.Cells[entry] = bits.EncodeSECDED(data)
	p.store.Touch(entry >> blockShift)
}

// Read loads a word through ECC decode. Single-bit errors are corrected
// in place (read-repair) and counted; uncorrectable errors are counted and
// reported so the owner can escalate. A clean array returns the data bits
// without decoding them.
func (p *Protected) Read(entry int) (uint64, bits.ECCResult) {
	if !p.struck {
		return p.store.Cells[entry].Data, bits.ECCClean
	}
	data, res := bits.DecodeSECDED(p.store.Cells[entry])
	switch res {
	case bits.ECCCorrected:
		p.Corrected++
		p.store.Cells[entry] = bits.EncodeSECDED(data)
		p.store.Touch(entry >> blockShift)
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
		p.store.Cells[entry].Data ^= 1 << uint(bit)
	} else {
		p.store.Cells[entry].Check ^= 1 << uint(bit-64)
	}
	p.store.Touch(entry >> blockShift)
	p.setStruck(true)
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

// holdsInvalid reports whether a cell holds an invalid codeword now: the flag
// an image or a baseline records.
func (p *Protected) holdsInvalid() bool {
	if !p.struck {
		return false
	}
	for _, w := range p.store.Cells {
		if _, res := bits.DecodeSECDED(w); res != bits.ECCClean {
			return true
		}
	}
	return false
}

// Image is a checkpoint of an array: its cells' image, and whether one of
// them held an invalid codeword at capture.
type Image struct {
	cells  *dirty.Image[bits.ECCWord]
	struck bool
}

// Baseline is an array's installed restore baseline and its struck flag,
// immutable and shared read-only by the arrays that adopt it.
type Baseline struct {
	cells  *dirty.Baseline[bits.ECCWord]
	struck bool
}

// SetBaseline installs the current contents as the restore baseline (see
// dirty.Store.SetBaseline).
func (p *Protected) SetBaseline() {
	p.store.SetBaseline()
	p.base = &Baseline{cells: p.store.Baseline(), struck: p.holdsInvalid()}
}

// Baseline returns the installed baseline (nil without one), for another
// array of the same size to adopt.
func (p *Protected) Baseline() *Baseline { return p.base }

// AdoptBaseline shares b and resets the contents to it (see
// dirty.Store.AdoptBaseline).
func (p *Protected) AdoptBaseline(b *Baseline) {
	if b == nil {
		panic("array: AdoptBaseline from an array without a baseline")
	}
	p.store.AdoptBaseline(b.cells)
	p.base = b
	p.setStruck(b.struck)
}

// Snapshot captures the contents (see dirty.Store.Snapshot).
func (p *Protected) Snapshot() *Image {
	return &Image{cells: p.store.Snapshot(), struck: p.holdsInvalid()}
}

// Restore rewrites the contents to img's, by delta when img was captured
// against this array's baseline (see dirty.Store.Restore).
func (p *Protected) Restore(img *Image) {
	p.store.Restore(img.cells)
	p.setStruck(img.struck)
}

// RestoreFull rebuilds all of img, whatever baseline it has (see
// dirty.Store.RestoreFull).
func (p *Protected) RestoreFull(img *Image) {
	p.store.RestoreFull(img.cells)
	p.setStruck(img.struck)
}
