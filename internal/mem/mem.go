// Package mem provides the flat physical memory shared by the golden
// architectural simulator and the core model's cache hierarchy. P6LITE runs
// in real-address mode; addresses wrap modulo the memory size, which must be
// a power of two.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Dirty-tracking page geometry. 4 KiB pages keep the bitmap tiny (one word
// per 256 KiB) while a typical observation window dirties only a handful of
// pages; see DESIGN.md "Dirty-tracking checkpoint restore".
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// Memory is a little-endian, byte-addressable flat memory.
//
// When a restore baseline is installed (SetBaseline), the memory keeps a
// page-granular dirty bitmap recording which pages may differ from the
// baseline contents. Delta checkpoints captured against that baseline can
// then be restored by rewriting only the dirty pages instead of the whole
// memory.
type Memory struct {
	data []byte
	mask uint64

	// base is the baseline contents, immutable once installed (it may be
	// shared read-only between cloned memories). dirty has one bit per
	// page, set when the page may differ from base.
	base  []byte
	dirty []uint64
}

// New returns a Memory of size bytes; size must be a power of two ≥ 8.
func New(size int) *Memory {
	if size < 8 || size&(size-1) != 0 {
		panic(fmt.Sprintf("mem: size %d is not a power of two >= 8", size))
	}
	return &Memory{data: make([]byte, size), mask: uint64(size - 1)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// index wraps an address into the memory, keeping 8 bytes addressable.
func (m *Memory) index(addr uint64) uint64 { return addr & m.mask &^ 7 }

// Read64 loads the 8-byte-aligned doubleword containing addr.
func (m *Memory) Read64(addr uint64) uint64 {
	i := m.index(addr)
	return binary.LittleEndian.Uint64(m.data[i : i+8])
}

// touch marks the page containing byte offset i dirty (no-op without a
// baseline). Aligned 8-byte accesses never span a page, so one mark is
// enough.
func (m *Memory) touch(i uint64) {
	if m.dirty != nil {
		p := i >> pageShift
		m.dirty[p>>6] |= 1 << (p & 63)
	}
}

// Write64 stores v to the 8-byte-aligned doubleword containing addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	i := m.index(addr)
	binary.LittleEndian.PutUint64(m.data[i:i+8], v)
	m.touch(i)
}

// Read32 loads the 4-byte-aligned word containing addr.
func (m *Memory) Read32(addr uint64) uint32 {
	i := addr & m.mask &^ 3
	return binary.LittleEndian.Uint32(m.data[i : i+4])
}

// Write32 stores v to the 4-byte-aligned word containing addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	i := addr & m.mask &^ 3
	binary.LittleEndian.PutUint32(m.data[i:i+4], v)
	m.touch(i)
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
	c := &Memory{data: make([]byte, len(m.data)), mask: m.mask}
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites contents from src; sizes must match. With a baseline
// installed every page is conservatively marked dirty, so the next delta
// restore stays correct (and re-converges to sparse bitmaps afterwards).
func (m *Memory) CopyFrom(src *Memory) {
	if len(m.data) != len(src.data) {
		panic(fmt.Sprintf("mem: copy size mismatch %d != %d", len(m.data), len(src.data)))
	}
	copy(m.data, src.data)
	markAll(m.dirty, m.numPages())
}

// markAll sets the first n bits of a dirty bitmap (no-op on a nil bitmap).
func markAll(bm []uint64, n int) {
	if bm == nil {
		return
	}
	for i := range bm {
		bm[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		bm[len(bm)-1] = 1<<uint(r) - 1
	}
}

func (m *Memory) numPages() int { return (len(m.data) + pageSize - 1) / pageSize }

// pageBounds returns the byte range [lo, hi) of page p (the last page of a
// sub-page-sized memory is short).
func (m *Memory) pageBounds(p int) (lo, hi int) {
	lo = p << pageShift
	hi = lo + pageSize
	if hi > len(m.data) {
		hi = len(m.data)
	}
	return lo, hi
}

// SetBaseline snapshots the current contents as the restore baseline and
// starts dirty tracking against it. The baseline is immutable afterwards.
func (m *Memory) SetBaseline() {
	m.base = append([]byte(nil), m.data...)
	m.dirty = make([]uint64, (m.numPages()+63)/64)
}

// HasBaseline reports whether dirty tracking is active.
func (m *Memory) HasBaseline() bool { return m.base != nil }

// AdoptBaseline shares src's baseline (read-only) and resets this memory's
// contents to it, with a clean dirty bitmap. Sizes must match. This is the
// warm-clone path: the adopter reaches the baseline state without copying
// from live (possibly running) state.
func (m *Memory) AdoptBaseline(src *Memory) {
	if src.base == nil {
		panic("mem: AdoptBaseline from a memory without a baseline")
	}
	if len(m.data) != len(src.base) {
		panic(fmt.Sprintf("mem: adopt size mismatch %d != %d", len(m.data), len(src.base)))
	}
	m.base = src.base
	copy(m.data, m.base)
	m.dirty = make([]uint64, (m.numPages()+63)/64)
}

// Delta is a sparse page-level checkpoint: the pages (and their contents)
// that differed from the baseline at capture time. Immutable after capture,
// so it may be shared between engines.
type Delta struct {
	pages []int32
	data  []byte // concatenated page contents, in pages order
}

// Pages returns the number of pages recorded in the delta.
func (d *Delta) Pages() int { return len(d.pages) }

// CaptureDelta records the pages currently marked dirty against the
// baseline. It panics without a baseline.
func (m *Memory) CaptureDelta() *Delta {
	if m.base == nil {
		panic("mem: CaptureDelta without a baseline")
	}
	d := &Delta{}
	m.forEachDirty(func(p int) {
		lo, hi := m.pageBounds(p)
		d.pages = append(d.pages, int32(p))
		d.data = append(d.data, m.data[lo:hi]...)
	})
	return d
}

// RestoreDelta rewrites the memory to exactly the state captured in d:
// every dirty page reverts to the baseline, then the delta's pages are
// applied (and remain marked dirty, preserving the invariant that clean
// pages equal the baseline). Cost is proportional to pages touched since
// the last restore plus the delta size — not the memory size.
func (m *Memory) RestoreDelta(d *Delta) {
	if m.base == nil {
		panic("mem: RestoreDelta without a baseline")
	}
	m.forEachDirty(func(p int) {
		lo, hi := m.pageBounds(p)
		copy(m.data[lo:hi], m.base[lo:hi])
	})
	for i := range m.dirty {
		m.dirty[i] = 0
	}
	off := 0
	for _, p32 := range d.pages {
		p := int(p32)
		lo, hi := m.pageBounds(p)
		copy(m.data[lo:hi], d.data[off:off+(hi-lo)])
		off += hi - lo
		m.dirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// forEachDirty calls fn for every dirty page index in ascending order.
func (m *Memory) forEachDirty(fn func(page int)) {
	for w, bm := range m.dirty {
		for bm != 0 {
			fn(w*64 + bits.TrailingZeros64(bm))
			bm &= bm - 1
		}
	}
}

// Equal reports whether two memories have identical size and contents.
func (m *Memory) Equal(o *Memory) bool {
	return bytes.Equal(m.data, o.data)
}

// Matches reports whether the contents equal img's, where img is a Clone
// and d the Delta captured with it (the two forms a checkpoint holds). With
// a baseline it reads only what can differ: a clean page equals the
// baseline, and img equals the baseline outside d's pages, so the dirty
// pages and d's pages cover every possible difference. Without a baseline
// (or with a nil d) it is Equal.
func (m *Memory) Matches(img *Memory, d *Delta) bool {
	if m.base == nil || d == nil {
		return m.Equal(img)
	}
	if len(m.data) != len(img.data) {
		return false
	}
	same := func(p int) bool {
		lo, hi := m.pageBounds(p)
		return bytes.Equal(m.data[lo:hi], img.data[lo:hi])
	}
	for _, p := range d.pages {
		if !same(int(p)) {
			return false
		}
	}
	eq := true
	m.forEachDirty(func(p int) {
		eq = eq && same(p)
	})
	return eq
}

// DigestRange hashes the doublewords covering [lo, hi) after wrapping (lo is
// rounded down to a doubleword, hi up), used to check just a testcase's
// data area at every verification barrier. It folds one doubleword per
// step with the xor / multiply-by-odd / xorshift mix of the architected
// signature (proc.ArchSnapshot.Signature). Each step is a bijection of the
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
