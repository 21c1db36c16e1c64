// Package mem provides the flat physical memory shared by the golden
// architectural simulator and the core model's cache hierarchy. P6LITE runs
// in real-address mode; addresses wrap modulo the memory size, which must be
// a power of two.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sfi/internal/dirty"
)

// pageShift: the contents are dirty-tracked in 4 KiB pages. An aligned
// access never spans one, so a write marks once; see DESIGN.md "Checkpoint
// restore".
const pageShift = 12

// Memory is a little-endian, byte-addressable flat memory. The bytes are a
// dirty.Store, whose baseline, snapshot, restore and delta methods are the
// memory's.
type Memory struct {
	dirty.Store[byte]
	mask uint64
}

// New returns a Memory of size bytes; size must be a power of two ≥ 8.
func New(size int) *Memory {
	if size < 8 || size&(size-1) != 0 {
		panic(fmt.Sprintf("mem: size %d is not a power of two >= 8", size))
	}
	return &Memory{Store: dirty.New[byte](size, pageShift), mask: uint64(size - 1)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.Cells) }

// index wraps an address into the memory, keeping 8 bytes addressable.
func (m *Memory) index(addr uint64) uint64 { return addr & m.mask &^ 7 }

// Read64 loads the 8-byte-aligned doubleword containing addr.
func (m *Memory) Read64(addr uint64) uint64 {
	i := m.index(addr)
	return binary.LittleEndian.Uint64(m.Cells[i : i+8])
}

// Write64 stores v to the 8-byte-aligned doubleword containing addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	i := m.index(addr)
	binary.LittleEndian.PutUint64(m.Cells[i:i+8], v)
	m.Touch(int(i >> pageShift))
}

// Read32 loads the 4-byte-aligned word containing addr.
func (m *Memory) Read32(addr uint64) uint32 {
	i := addr & m.mask &^ 3
	return binary.LittleEndian.Uint32(m.Cells[i : i+4])
}

// Write32 stores v to the 4-byte-aligned word containing addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	i := addr & m.mask &^ 3
	binary.LittleEndian.PutUint32(m.Cells[i:i+4], v)
	m.Touch(int(i >> pageShift))
}

// LoadProgram writes instruction words starting at addr (4-byte aligned).
func (m *Memory) LoadProgram(addr uint64, words []uint32) {
	for i, w := range words {
		m.Write32(addr+uint64(4*i), w)
	}
}

// Clone returns a deep copy of the contents. Dirty tracking is not carried
// over; the clone has no baseline.
func (m *Memory) Clone() *Memory {
	c := New(len(m.Cells))
	copy(c.Cells, m.Cells)
	return c
}

// Equal reports whether two memories have identical size and contents.
func (m *Memory) Equal(o *Memory) bool {
	return bytes.Equal(m.Cells, o.Cells)
}

// EqualRange reports whether the doublewords covering [lo, hi) — the range
// DigestRange folds, which must not wrap here — equal img's. Only the pages
// that may differ from img are compared (dirty.Store.EqualImage), each with
// bytes.Equal, so a barrier check costs the pages written since the last
// restore rather than the range.
func (m *Memory) EqualRange(img *dirty.Image[byte], lo, hi uint64) bool {
	return m.EqualImage(img, int(lo&^7), int((hi+7)&^7), bytes.Equal)
}

// DigestRange hashes the doublewords covering [lo, hi) after wrapping (lo is
// rounded down to a doubleword, hi up): the AVP records a testcase's data
// area digest with it, and the harnesses check the area against that at
// verification barriers. It folds one doubleword per step with the xor /
// multiply-by-odd / xorshift mix of the architected signature
// (archsim.State.Signature). Each step is a bijection of the
// running state, so two memories that differ in exactly one doubleword of
// the range never share a digest. The digest is compared only against
// digests this same function produced and is never stored or exchanged.
func (m *Memory) DigestRange(lo, hi uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for a := lo &^ 7; a < hi; a += 8 {
		h ^= m.Read64(a)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}
