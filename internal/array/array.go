// Package array models the ECC-protected SRAM arrays of the core (cache
// data and tags, the recovery unit's architected-state checkpoint). Arrays
// are not part of the latch population — the paper notes that "a large
// portion of the RUT consists of arrays which are protected" — but the beam
// experiment strikes them too, so every cell is individually flippable and
// every read goes through SECDED decode.
package array

import (
	"fmt"
	mbits "math/bits"

	"sfi/internal/bits"
)

// Protected is an ECC-protected array of 64-bit words.
//
// When a restore baseline is installed (SetBaseline), writes mark the entry
// dirty and delta snapshots restore in time proportional to the entries
// actually touched — see DESIGN.md "Dirty-tracking checkpoint restore".
type Protected struct {
	name  string
	cells []bits.ECCWord

	// base is the baseline contents, immutable once installed (shared
	// read-only by cloned arrays). dirty has one bit per entry.
	base  []bits.ECCWord
	dirty []uint64

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
	p := &Protected{name: name, cells: make([]bits.ECCWord, entries)}
	zero := bits.EncodeSECDED(0)
	for i := range p.cells {
		p.cells[i] = zero
	}
	return p
}

// Name returns the array's name.
func (p *Protected) Name() string { return p.name }

// Entries returns the number of 64-bit words.
func (p *Protected) Entries() int { return len(p.cells) }

// TotalBits returns the number of storage bits including check bits, the
// population the beam model samples from.
func (p *Protected) TotalBits() int { return len(p.cells) * 72 }

// touch marks an entry dirty (no-op without a baseline).
func (p *Protected) touch(entry int) {
	if p.dirty != nil {
		p.dirty[entry>>6] |= 1 << (uint(entry) & 63)
	}
}

// Write stores a word with freshly computed check bits.
func (p *Protected) Write(entry int, data uint64) {
	p.cells[entry] = bits.EncodeSECDED(data)
	p.touch(entry)
}

// Read loads a word through ECC decode. Single-bit errors are corrected
// in place (read-repair) and counted; uncorrectable errors are counted and
// reported so the owner can escalate.
func (p *Protected) Read(entry int) (uint64, bits.ECCResult) {
	data, res := bits.DecodeSECDED(p.cells[entry])
	switch res {
	case bits.ECCCorrected:
		p.Corrected++
		p.cells[entry] = bits.EncodeSECDED(data)
		p.touch(entry)
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
		p.cells[entry].Data ^= 1 << uint(bit)
	} else {
		p.cells[entry].Check ^= 1 << uint(bit-64)
	}
	p.touch(entry)
}

// ScrubStep checks one entry (correcting if needed) and returns its result;
// the background scrubber calls this round-robin.
func (p *Protected) ScrubStep(entry int) bits.ECCResult {
	_, res := p.Read(entry)
	return res
}

// Snapshot returns a copy of the array contents (not the counters).
func (p *Protected) Snapshot() []bits.ECCWord {
	s := make([]bits.ECCWord, len(p.cells))
	copy(s, p.cells)
	return s
}

// Restore overwrites contents from a snapshot of the same shape. With a
// baseline installed every entry is conservatively marked dirty so later
// delta restores stay correct.
func (p *Protected) Restore(snap []bits.ECCWord) {
	if len(snap) != len(p.cells) {
		panic(fmt.Sprintf("array: snapshot size %d != %d in %s", len(snap), len(p.cells), p.name))
	}
	copy(p.cells, snap)
	if p.dirty != nil {
		for i := range p.dirty {
			p.dirty[i] = ^uint64(0)
		}
		if r := len(p.cells) % 64; r != 0 {
			p.dirty[len(p.dirty)-1] = 1<<uint(r) - 1
		}
	}
}

// SetBaseline snapshots the current contents as the restore baseline and
// starts entry-granular dirty tracking against it.
func (p *Protected) SetBaseline() {
	p.base = append([]bits.ECCWord(nil), p.cells...)
	p.dirty = make([]uint64, (len(p.cells)+63)/64)
}

// HasBaseline reports whether dirty tracking is active.
func (p *Protected) HasBaseline() bool { return p.base != nil }

// AdoptBaseline shares src's baseline (read-only) and resets contents to it
// with a clean dirty bitmap. Shapes must match.
func (p *Protected) AdoptBaseline(src *Protected) {
	if src.base == nil {
		panic(fmt.Sprintf("array: AdoptBaseline from %s without a baseline", src.name))
	}
	if len(p.cells) != len(src.base) {
		panic(fmt.Sprintf("array: adopt size mismatch %d != %d in %s", len(p.cells), len(src.base), p.name))
	}
	p.base = src.base
	copy(p.cells, p.base)
	p.dirty = make([]uint64, (len(p.cells)+63)/64)
}

// Delta is a sparse array snapshot: the entries (index and raw ECC word)
// that differed from the baseline at capture time. Immutable after capture.
type Delta struct {
	idx []int32
	val []bits.ECCWord
}

// Entries returns the number of entries recorded in the delta.
func (d *Delta) Entries() int { return len(d.idx) }

// CaptureDelta records the entries currently marked dirty against the
// baseline. It panics without a baseline.
func (p *Protected) CaptureDelta() *Delta {
	if p.base == nil {
		panic(fmt.Sprintf("array: CaptureDelta without a baseline in %s", p.name))
	}
	d := &Delta{}
	for w, b := range p.dirty {
		for b != 0 {
			e := w*64 + mbits.TrailingZeros64(b)
			b &= b - 1
			d.idx = append(d.idx, int32(e))
			d.val = append(d.val, p.cells[e])
		}
	}
	return d
}

// RestoreDelta rewrites the array to exactly the state captured in d: dirty
// entries revert to the baseline, then the delta's entries are applied and
// stay marked dirty.
func (p *Protected) RestoreDelta(d *Delta) {
	if p.base == nil {
		panic(fmt.Sprintf("array: RestoreDelta without a baseline in %s", p.name))
	}
	for w, b := range p.dirty {
		for b != 0 {
			e := w*64 + mbits.TrailingZeros64(b)
			b &= b - 1
			p.cells[e] = p.base[e]
		}
	}
	for i := range p.dirty {
		p.dirty[i] = 0
	}
	for i, e32 := range d.idx {
		e := int(e32)
		p.cells[e] = d.val[i]
		p.dirty[e>>6] |= 1 << (uint(e) & 63)
	}
}

// Matches reports whether the raw cells equal snap's, where snap is a
// Snapshot and d the Delta captured with it (the two forms a checkpoint
// holds). With a baseline it reads only what can differ: a clean entry
// equals the baseline, and snap equals the baseline outside d's entries, so
// the dirty entries and d's entries cover every possible difference.
// Without a baseline (or with a nil d) every entry is compared. The
// counters are not part of the comparison.
func (p *Protected) Matches(snap []bits.ECCWord, d *Delta) bool {
	if len(snap) != len(p.cells) {
		panic(fmt.Sprintf("array: snapshot size %d != %d in %s", len(snap), len(p.cells), p.name))
	}
	if p.base == nil || d == nil {
		for e := range p.cells {
			if p.cells[e] != snap[e] {
				return false
			}
		}
		return true
	}
	for _, e := range d.idx {
		if p.cells[e] != snap[e] {
			return false
		}
	}
	for w, b := range p.dirty {
		for b != 0 {
			e := w*64 + mbits.TrailingZeros64(b)
			b &= b - 1
			if p.cells[e] != snap[e] {
				return false
			}
		}
	}
	return true
}

// ResetCounters zeroes the error counters.
func (p *Protected) ResetCounters() {
	p.Corrected = 0
	p.Uncorrectable = 0
}
