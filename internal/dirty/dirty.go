// Package dirty is the one dirty-tracked store under the model's latches,
// memory and protected arrays: a slice of cells, an immutable baseline image
// that cloned stores share, and a byte map marking the blocks of cells that
// may differ from it. An injection dirties a few blocks of a large store, so
// reloading a checkpoint — the step the paper's flow repeats before every
// flip — rewrites those blocks and the checkpoint's own delta rather than
// the store (DESIGN.md "Checkpoint restore").
//
// The invariant every operation keeps: with a baseline installed, a block
// whose mark is clear equals the baseline.
package dirty

import (
	"fmt"
	"slices"
)

// Store is a dirty-tracked slice of cells. Its owner reads and writes Cells
// directly and calls Touch after every store; everything else goes through
// the methods. The zero value is not usable: New sets the block size.
type Store[T comparable] struct {
	// Cells is the live contents. The owner may grow it until a baseline
	// is installed or an image taken.
	Cells []T

	shift uint         // log2 of the cells per dirty-map block
	base  *Baseline[T] // nil until SetBaseline or AdoptBaseline
	// dirty has one byte per block, non-zero when the block may differ
	// from base; nil without a baseline. Bytes rather than bits: a mark is
	// then a plain store, with no read-modify-write on the write hot path.
	dirty []byte
}

// Baseline is an installed restore baseline. It is immutable, so stores of
// the same shape share one read-only; its identity (the pointer) is what
// says whether a delta means anything to a store.
type Baseline[T comparable] struct{ cells []T }

// New returns a store of n zero cells tracked in blocks of 1<<shift cells.
func New[T comparable](n int, shift uint) Store[T] {
	return Store[T]{Cells: make([]T, n), shift: shift}
}

// Touch marks block b — a cell's index shifted right by the shift New was
// given — dirty (no-op without a baseline). The owner does the shift, by its
// own constant: the write paths this inlines into then hold no load of the
// store's shift and no variable shift.
func (s *Store[T]) Touch(b int) {
	if s.dirty != nil {
		s.dirty[b] = 1
	}
}

// Fill sets every cell to v.
func (s *Store[T]) Fill(v T) {
	for i := range s.Cells {
		s.Cells[i] = v
	}
	s.touchAll()
}

func (s *Store[T]) touchAll() {
	for i := range s.dirty {
		s.dirty[i] = 1
	}
}

// bounds returns the cell range [lo, hi) of block b; the last block of a
// store whose size is not a multiple of the block size is short.
func (s *Store[T]) bounds(b int) (lo, hi int) {
	lo = b << s.shift
	return lo, min(lo+1<<s.shift, len(s.Cells))
}

// dirtyBlocks yields the dirty blocks in ascending order, passing over clean
// stretches of the byte map eight blocks at a time.
func (s *Store[T]) dirtyBlocks(yield func(b int) bool) {
	d := s.dirty
	i := 0
	for ; i+8 <= len(d); i += 8 {
		if load64(d[i:]) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if d[j] != 0 && !yield(j) {
				return
			}
		}
	}
	for ; i < len(d); i++ {
		if d[i] != 0 && !yield(i) {
			return
		}
	}
}

// load64 is binary.LittleEndian.Uint64, written out: that call is not
// inlined into a store instantiated in a package that does not itself import
// encoding/binary, and it sits in every restore's scan of the byte map.
func load64(d []byte) uint64 {
	_ = d[7]
	return uint64(d[0]) | uint64(d[1])<<8 | uint64(d[2])<<16 | uint64(d[3])<<24 |
		uint64(d[4])<<32 | uint64(d[5])<<40 | uint64(d[6])<<48 | uint64(d[7])<<56
}

// SetBaseline installs the current contents as the restore baseline and
// starts dirty tracking against it.
func (s *Store[T]) SetBaseline() {
	s.adopt(&Baseline[T]{cells: slices.Clone(s.Cells)})
}

// Baseline returns the installed baseline (nil without one), for another
// store of the same shape to adopt.
func (s *Store[T]) Baseline() *Baseline[T] { return s.base }

// HasBaseline reports whether dirty tracking is active.
func (s *Store[T]) HasBaseline() bool { return s.base != nil }

// AdoptBaseline shares b and resets the contents to it, with nothing marked
// dirty: the adopter reaches the baseline state without reading the live
// (possibly running) store b was installed on.
func (s *Store[T]) AdoptBaseline(b *Baseline[T]) {
	if b == nil {
		panic("dirty: AdoptBaseline from a store without a baseline")
	}
	if len(b.cells) != len(s.Cells) {
		panic(fmt.Sprintf("dirty: adopt size mismatch %d != %d", len(s.Cells), len(b.cells)))
	}
	copy(s.Cells, b.cells)
	s.adopt(b)
}

func (s *Store[T]) adopt(b *Baseline[T]) {
	s.base = b
	s.dirty = make([]byte, (len(s.Cells)+1<<s.shift-1)>>s.shift)
}

// Delta is a sparse capture: the blocks that differed from the baseline.
// Immutable after capture, so stores sharing the baseline share it too.
type Delta[T comparable] struct {
	blocks []int32
	cells  []T // the blocks' contents, concatenated in blocks order
}

// CaptureDelta records the dirty blocks that differ from the baseline. It
// panics without one.
func (s *Store[T]) CaptureDelta() *Delta[T] {
	if s.base == nil {
		panic("dirty: CaptureDelta without a baseline")
	}
	d := &Delta[T]{}
	for b := range s.dirtyBlocks {
		lo, hi := s.bounds(b)
		if !equal(s.Cells[lo:hi], s.base.cells[lo:hi]) {
			d.blocks = append(d.blocks, int32(b))
			d.cells = append(d.cells, s.Cells[lo:hi]...)
		}
	}
	return d
}

// RestoreDelta rewrites the contents to exactly the state d captured against
// this store's baseline: dirty blocks revert to the baseline, then d's
// blocks are applied and stay marked. The cost is that of the blocks touched
// since the last restore plus d — not of the store.
func (s *Store[T]) RestoreDelta(d *Delta[T]) {
	if s.base == nil {
		panic("dirty: RestoreDelta without a baseline")
	}
	for b := range s.dirtyBlocks {
		lo, hi := s.bounds(b)
		copy(s.Cells[lo:hi], s.base.cells[lo:hi])
	}
	clear(s.dirty)
	off := 0
	for _, b := range d.blocks {
		lo, hi := s.bounds(int(b))
		off += copy(s.Cells[lo:hi], d.cells[off:])
		s.dirty[b] = 1
	}
}

// Image is a checkpoint of a store. Captured against a baseline it is sparse:
// the baseline (shared, not copied) and the delta against it determine the
// contents, so a set of checkpoints costs its deltas rather than a copy of the
// store each. Without a baseline it holds the full contents. Immutable, so
// concurrent stores restore from one image.
type Image[T comparable] struct {
	n     int          // cells in the store it was taken from
	cells []T          // the full contents; nil when base is set
	base  *Baseline[T] // with delta, the contents of an image taken on a baseline
	delta *Delta[T]
}

// Snapshot captures the contents.
func (s *Store[T]) Snapshot() *Image[T] {
	if s.base == nil {
		return &Image[T]{n: len(s.Cells), cells: slices.Clone(s.Cells)}
	}
	return &Image[T]{n: len(s.Cells), base: s.base, delta: s.CaptureDelta()}
}

// Restore rewrites the contents to img's: by delta when img was captured
// against this store's baseline, by full copy otherwise.
func (s *Store[T]) Restore(img *Image[T]) {
	if d := img.DeltaOn(s.base); d != nil {
		s.RestoreDelta(d)
		return
	}
	s.RestoreFull(img)
}

// DeltaOn returns img's delta if img was captured against baseline b — what
// a store holding b restores img by — and nil otherwise.
func (img *Image[T]) DeltaOn(b *Baseline[T]) *Delta[T] {
	if b == nil || img.base != b {
		return nil
	}
	return img.delta
}

// RestoreFull rebuilds all of img in the store, whatever baseline it has, and
// marks every block dirty so that later delta restores stay exact. It is the
// oracle the delta path is tested against.
func (s *Store[T]) RestoreFull(img *Image[T]) {
	if img.n != len(s.Cells) {
		panic(fmt.Sprintf("dirty: image size %d != %d", img.n, len(s.Cells)))
	}
	if img.base == nil {
		copy(s.Cells, img.cells)
	} else {
		copy(s.Cells, img.base.cells)
		off := 0
		for _, b := range img.delta.blocks {
			lo, hi := s.bounds(int(b))
			off += copy(s.Cells[lo:hi], img.delta.cells[off:])
		}
	}
	s.touchAll()
}

// equal reports whether a and b, one block of two stores, are equal. A run
// of 64 cells or more — a memory page — goes 64 cells to a comparison while
// it is equal (a generic loop over bytes was 2.4 µs a page, this 0.4), and
// cell by cell from the first difference on.
func equal[T comparable](a, b []T) bool {
	for len(a) >= 64 && *(*[64]T)(a) == *(*[64]T)(b) {
		a, b = a[64:], b[64:]
	}
	return slices.Equal(a, b)
}
