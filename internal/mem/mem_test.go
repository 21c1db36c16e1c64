package mem

import (
	"testing"
	"testing/quick"

	"sfi/internal/dirty"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, size := range []int{0, 7, 100, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", size)
				}
			}()
			New(size)
		}()
	}
}

func TestReadWrite64(t *testing.T) {
	m := New(1024)
	m.Write64(8, 0xdeadbeefcafef00d)
	if got := m.Read64(8); got != 0xdeadbeefcafef00d {
		t.Errorf("Read64 = %#x", got)
	}
	// Unaligned access hits the containing doubleword.
	if got := m.Read64(13); got != 0xdeadbeefcafef00d {
		t.Errorf("unaligned Read64 = %#x", got)
	}
}

func TestReadWrite32(t *testing.T) {
	m := New(1024)
	m.Write32(4, 0x12345678)
	if got := m.Read32(4); got != 0x12345678 {
		t.Errorf("Read32 = %#x", got)
	}
	if got := m.Read32(6); got != 0x12345678 {
		t.Errorf("unaligned Read32 = %#x", got)
	}
	// The two word halves of a doubleword are independent.
	m.Write32(0, 0xaaaaaaaa)
	if got := m.Read32(4); got != 0x12345678 {
		t.Errorf("adjacent Write32 clobbered word: %#x", got)
	}
}

func TestAddressWrap(t *testing.T) {
	m := New(256)
	m.Write64(256, 42) // wraps to 0
	if got := m.Read64(0); got != 42 {
		t.Errorf("wrapped write missed: %d", got)
	}
	if got := m.Read64(512); got != 42 {
		t.Errorf("wrapped read missed: %d", got)
	}
}

func TestLoadProgram(t *testing.T) {
	m := New(1024)
	m.LoadProgram(64, []uint32{1, 2, 3})
	for i, want := range []uint32{1, 2, 3} {
		if got := m.Read32(64 + uint64(4*i)); got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
}

func TestCloneEqualCopyFrom(t *testing.T) {
	m := New(512)
	m.Write64(0, 99)
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatal("clone not equal")
	}
	c.Write64(8, 1)
	if m.Read64(8) != 0 {
		t.Fatal("clone mutation visible in original")
	}
	if c.Equal(m) {
		t.Fatal("diverged memories reported equal")
	}
	m.RestoreFull(c.Snapshot()) // copy from c
	if !c.Equal(m) {
		t.Fatal("a full restore of c's snapshot did not converge")
	}
	if New(256).Equal(m) {
		t.Fatal("different sizes reported equal")
	}
}

func TestDigestRange(t *testing.T) {
	m := New(512)
	m.Write64(64, 7)
	d := m.DigestRange(0, 64)
	m.Write64(64, 8) // outside [0,64)
	if m.DigestRange(0, 64) != d {
		t.Error("digest over [0,64) changed by write at 64")
	}
	m.Write64(0, 1)
	if m.DigestRange(0, 64) == d {
		t.Error("digest over [0,64) unchanged by write at 0")
	}
}

// The range is covered in whole doublewords: an unaligned hi still takes in
// the doubleword it points into, an unaligned lo starts at the doubleword
// containing it.
func TestDigestRangeUnaligned(t *testing.T) {
	m := New(512)
	m.Write64(0, 11)
	m.Write64(8, 22)
	m.Write64(16, 33)
	if m.DigestRange(0, 9) != m.DigestRange(0, 16) {
		t.Error("hi=9 does not cover the doubleword at 8")
	}
	if m.DigestRange(0, 8) == m.DigestRange(0, 9) {
		t.Error("hi=8 covers the doubleword at 8")
	}
	if m.DigestRange(11, 24) != m.DigestRange(8, 24) {
		t.Error("lo=11 does not start at the doubleword at 8")
	}
}

// EqualRange covers the doublewords DigestRange folds, against an image
// captured on the memory's baseline (the sparse path, which compares only
// dirty and delta pages) and against one captured before any baseline (every
// page of the range).
func TestEqualRange(t *testing.T) {
	m := New(4 << 12)
	m.Write64(0x1010, 7)
	full := m.Snapshot()
	m.SetBaseline()
	m.Write64(0x2ff8, 9) // a delta page
	sparse := m.Snapshot()
	for _, c := range []struct {
		name   string
		img    *dirty.Image[byte]
		at, v  uint64 // a write before the comparisons, undone after
		lo, hi uint64
		equal  bool
	}{
		{"sparse, as captured", sparse, 0x1010, 7, 0x1000, 0x3000, true},
		{"sparse, its delta page rewritten", sparse, 0x2ff8, 0, 0x1000, 0x3000, false},
		{"sparse, a clean page of the range", sparse, 0x1800, 1, 0x1000, 0x3000, false},
		{"sparse, a page outside", sparse, 0x3000, 1, 0x1000, 0x3000, true},
		{"sparse, hi rounds up to the doubleword", sparse, 0x1808, 1 << 56, 0x1000, 0x1809, false},
		{"sparse, lo rounds down to the doubleword", sparse, 0x1008, 1, 0x100b, 0x1800, false},
		{"sparse, hi at the doubleword", sparse, 0x1808, 1, 0x1000, 0x1808, true},
		{"full, as captured", full, 0x1800, 0, 0x0, 0x2000, true},
		{"full, a write since", full, 0x2ff8, 9, 0x2000, 0x3000, false},
		{"full, a clean page of the range", full, 0x1010, 0, 0x1000, 0x2000, false},
	} {
		old := m.Read64(c.at)
		m.Write64(c.at, c.v)
		if got := m.EqualRange(c.img, c.lo, c.hi); got != c.equal {
			t.Errorf("%s: EqualRange(%#x, %#x) = %v, want %v", c.name, c.lo, c.hi, got, c.equal)
		}
		m.Write64(c.at, old)
	}
}

// Addresses past the end wrap: a range running over the top of the memory
// hashes the doublewords it wraps onto.
func TestDigestRangeWraps(t *testing.T) {
	m := New(512)
	d := m.DigestRange(504, 520) // doublewords at 504 and (wrapped) 0
	m.Write64(8, 5)
	if m.DigestRange(504, 520) != d {
		t.Error("write at 8 is outside the wrapped range")
	}
	m.Write64(0, 5)
	if m.DigestRange(504, 520) == d {
		t.Error("write at 0 is inside the wrapped range")
	}
}

// Property: two memories that differ in exactly one doubleword inside
// [lo, hi) never share a DigestRange, wherever the word sits and whatever
// the surrounding contents — every fold step is a bijection of the running
// state, so this is a guarantee, not a probability.
func TestQuickDigestRangeSingleWordDifference(t *testing.T) {
	const size = 4096
	f := func(seed uint64, lo16, n16, at16 uint16, delta uint64) bool {
		if delta == 0 {
			delta = 1
		}
		m := New(size)
		x := seed
		for a := uint64(0); a < size; a += 8 {
			x = x*6364136223846793005 + 1442695040888963407
			m.Write64(a, x)
		}
		lo := uint64(lo16) % size
		hi := lo + 1 + uint64(n16)%(size-1) // may run past the end and wrap
		words := (hi - lo&^7 + 7) / 8
		at := lo&^7 + 8*(uint64(at16)%words)
		o := m.Clone()
		o.Write64(at, m.Read64(at)^delta)
		return m.DigestRange(lo, hi) != o.DigestRange(lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

var sinkDigest uint64

// BenchmarkDigestRange hashes a 48 KiB range, the default AVP data area
// every verification barrier digests.
func BenchmarkDigestRange(b *testing.B) {
	m := New(256 * 1024)
	for a := uint64(0); a < 256*1024; a += 8 {
		m.Write64(a, a*0x9e3779b97f4a7c15)
	}
	b.SetBytes(48 * 1024)
	for i := 0; i < b.N; i++ {
		sinkDigest += m.DigestRange(0x4000, 0x4000+48*1024)
	}
}

func TestQuickRead64RoundTrip(t *testing.T) {
	m := New(4096)
	f := func(addr, v uint64) bool {
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWrite32Halves(t *testing.T) {
	m := New(4096)
	f := func(addr uint64, lo, hi uint32) bool {
		a := addr &^ 7
		m.Write32(a, lo)
		m.Write32(a+4, hi)
		return m.Read64(a) == uint64(hi)<<32|uint64(lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeltaRestoreMatchesBaseline: a write through either store primitive
// marks its page, so a delta captures it and a delta restore reverts it.
// (What the store does with the marks is internal/dirty's test.)
func TestDeltaRestoreMatchesBaseline(t *testing.T) {
	m := New(64 * 1024)
	m.Write64(0x100, 0x1111)
	m.Write64(0x8000, 0x2222)
	m.SetBaseline()
	if !m.HasBaseline() {
		t.Fatal("baseline not installed")
	}
	// Checkpoint A: the baseline state itself (empty delta).
	ckA := m.CaptureDelta()
	// Advance and checkpoint B.
	m.Write64(0x100, 0x3333)
	m.Write32(0xa008, 0x4444)
	ckB := m.CaptureDelta()
	want := m.Clone()
	// Dirty a bunch of other pages, then delta-restore B.
	for a := uint64(0); a < 64*1024; a += 4096 {
		m.Write64(a, 0xffff)
	}
	m.RestoreDelta(ckB)
	if !m.Equal(want) {
		t.Fatal("delta restore to B does not match full state")
	}
	// Cross-checkpoint: now delta-restore A (the baseline).
	m.RestoreDelta(ckA)
	if got := m.Read64(0x100); got != 0x1111 {
		t.Fatalf("after restore to A, [0x100] = %#x", got)
	}
	if got := m.Read64(0xa008); got != 0 {
		t.Fatalf("after restore to A, [0xa008] = %#x", got)
	}
}

func TestDeltaRestoreAfterFullCopy(t *testing.T) {
	// A full restore conservatively dirties everything; a delta restore
	// after it must still reproduce the captured state exactly.
	m := New(32 * 1024)
	m.SetBaseline()
	m.Write64(0x2000, 7)
	ck := m.CaptureDelta()
	want := m.Clone()
	other := New(32 * 1024)
	other.Write64(0x40, 0xdead)
	m.Restore(other.Snapshot())
	if got := m.Read64(0x40); got != 0xdead {
		t.Fatalf("full restore from another memory: [0x40] = %#x", got)
	}
	m.RestoreDelta(ck)
	if !m.Equal(want) {
		t.Fatal("delta restore after a full restore diverged")
	}
}

func TestAdoptBaseline(t *testing.T) {
	src := New(16 * 1024)
	src.Write64(0x800, 42)
	src.SetBaseline()
	src.Write64(0x900, 43)
	ck := src.CaptureDelta()

	m := New(16 * 1024)
	m.AdoptBaseline(src.Baseline())
	if got := m.Read64(0x800); got != 42 {
		t.Fatalf("adopted baseline [0x800] = %d", got)
	}
	m.RestoreDelta(ck)
	if !m.Equal(src) {
		t.Fatal("clone after delta restore does not match source")
	}
}

func TestSubPageMemoryDelta(t *testing.T) {
	// A memory smaller than one page exercises the short-last-page path.
	m := New(512)
	m.SetBaseline()
	m.Write64(8, 9)
	ck := m.CaptureDelta()
	want := m.Clone()
	m.Write64(16, 1)
	m.RestoreDelta(ck)
	if !m.Equal(want) {
		t.Fatal("sub-page delta restore diverged")
	}
}

func TestCaptureDeltaWithoutBaselinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CaptureDelta without baseline did not panic")
		}
	}()
	New(1024).CaptureDelta()
}
