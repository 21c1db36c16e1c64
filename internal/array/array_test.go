package array

import (
	"math/rand/v2"
	"slices"
	"testing"

	"sfi/internal/bits"
)

func TestWriteReadClean(t *testing.T) {
	p := New("test", 16)
	p.Write(3, 0xdeadbeef)
	v, res := p.Read(3)
	if v != 0xdeadbeef || res != bits.ECCClean {
		t.Errorf("Read = %#x,%v", v, res)
	}
	if p.Corrected != 0 || p.Uncorrectable != 0 {
		t.Error("counters moved on clean read")
	}
}

func TestSingleBitFlipCorrected(t *testing.T) {
	p := New("test", 8)
	p.Write(0, 0x1234567890abcdef)
	p.FlipBit(0, 17)
	v, res := p.Read(0)
	if res != bits.ECCCorrected || v != 0x1234567890abcdef {
		t.Fatalf("Read = %#x,%v, want corrected original", v, res)
	}
	if p.Corrected != 1 {
		t.Errorf("Corrected = %d", p.Corrected)
	}
	// Read-repair: second read is clean.
	_, res = p.Read(0)
	if res != bits.ECCClean {
		t.Errorf("after repair: %v, want clean", res)
	}
}

func TestCheckBitFlipCorrected(t *testing.T) {
	p := New("test", 8)
	p.Write(1, 42)
	p.FlipBit(1, 64+3)
	v, res := p.Read(1)
	if res != bits.ECCCorrected || v != 42 {
		t.Errorf("Read = %d,%v", v, res)
	}
}

func TestDoubleBitFlipUncorrectable(t *testing.T) {
	p := New("test", 8)
	p.Write(2, 0xffff)
	p.FlipBit(2, 5)
	p.FlipBit(2, 40)
	_, res := p.Read(2)
	if res != bits.ECCUncorrectable {
		t.Fatalf("result %v, want uncorrectable", res)
	}
	if p.Uncorrectable != 1 {
		t.Errorf("Uncorrectable = %d", p.Uncorrectable)
	}
}

func TestScrubStep(t *testing.T) {
	p := New("test", 4)
	p.Write(0, 7)
	p.FlipBit(0, 0)
	if res := p.ScrubStep(0); res != bits.ECCCorrected {
		t.Errorf("scrub = %v", res)
	}
	if res := p.ScrubStep(0); res != bits.ECCClean {
		t.Errorf("post-scrub = %v", res)
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := New("test", 4)
	p.Write(0, 1)
	p.Write(1, 2)
	snap := p.Snapshot()
	p.Write(0, 99)
	p.FlipBit(1, 3)
	p.Restore(snap)
	if v, res := p.Read(0); v != 1 || res != bits.ECCClean {
		t.Errorf("entry 0 = %d,%v", v, res)
	}
	if v, res := p.Read(1); v != 2 || res != bits.ECCClean {
		t.Errorf("entry 1 = %d,%v", v, res)
	}
}

func TestTotalBits(t *testing.T) {
	p := New("test", 10)
	if p.TotalBits() != 720 {
		t.Errorf("TotalBits = %d, want 720", p.TotalBits())
	}
}

func TestFlipBitRangePanics(t *testing.T) {
	p := New("test", 2)
	for _, b := range []int{-1, 72, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for bit %d", b)
				}
			}()
			p.FlipBit(0, b)
		}()
	}
}

func TestResetCounters(t *testing.T) {
	p := New("test", 2)
	p.Write(0, 1)
	p.FlipBit(0, 1)
	p.Read(0)
	p.ResetCounters()
	if p.Corrected != 0 || p.Uncorrectable != 0 {
		t.Error("counters not reset")
	}
}

// Property: any single flip anywhere is corrected and data survives.
func TestQuickAnySingleFlipCorrected(t *testing.T) {
	p := New("q", 32)
	rng := rand.New(rand.NewPCG(42, 43))
	for trial := 0; trial < 2000; trial++ {
		e := rng.IntN(32)
		d := rng.Uint64()
		b := rng.IntN(72)
		p.Write(e, d)
		p.FlipBit(e, b)
		v, res := p.Read(e)
		if res != bits.ECCCorrected || v != d {
			t.Fatalf("entry %d bit %d: %#x,%v want corrected %#x", e, b, v, res, d)
		}
	}
}

// TestDeltaRestoreMatchesSnapshot: a mutation through any public primitive
// marks its entry, so a snapshot against the baseline (a delta image)
// captures it and restoring one reverts it. (What the store does with the
// marks is internal/dirty's test.)
func TestDeltaRestoreMatchesSnapshot(t *testing.T) {
	p := New("t", 100)
	p.Write(1, 0x11)
	p.SetBaseline()
	if !p.store.HasBaseline() {
		t.Fatal("baseline not installed")
	}
	ckA := p.Snapshot()
	// Advance through every mutation primitive and checkpoint.
	p.Write(1, 0x22)
	p.FlipBit(7, 3)
	p.FlipBit(7, 3) // flip back: entry still marked dirty, value clean
	p.Write(64, 0x33)
	ckB := p.Snapshot()
	wantB := slices.Clone(p.Cells())
	for e := 0; e < p.Entries(); e++ {
		p.Write(e, 0xee)
	}
	p.Restore(ckB)
	if !slices.Equal(p.Cells(), wantB) {
		t.Fatal("delta restore to B does not match snapshot")
	}
	p.Restore(ckA)
	if v, _ := p.Read(1); v != 0x11 {
		t.Fatalf("cross-restore to baseline: [1] = %#x", v)
	}
}

func TestDeltaTracksReadRepair(t *testing.T) {
	// A corrected read rewrites the cell in place; the entry must be
	// tracked so a later delta restore reverts the repair too.
	p := New("t", 16)
	p.SetBaseline()
	p.FlipBit(2, 5)
	ck := p.Snapshot()
	want := slices.Clone(p.Cells())
	if _, res := p.Read(2); res != bits.ECCCorrected {
		t.Fatal("expected corrected read")
	}
	p.Restore(ck)
	if !slices.Equal(p.Cells(), want) {
		t.Fatal("delta restore did not revert the read-repair")
	}
}

func TestAdoptBaseline(t *testing.T) {
	src := New("t", 32)
	src.Write(4, 0xaa)
	src.SetBaseline()
	src.Write(5, 0xbb)
	ck := src.Snapshot()

	p := New("t", 32)
	p.AdoptBaseline(src.Baseline())
	if v, _ := p.Read(4); v != 0xaa {
		t.Fatalf("adopted baseline [4] = %#x", v)
	}
	p.Restore(ck)
	if !slices.Equal(p.Cells(), src.Cells()) {
		t.Fatal("clone after delta restore does not match source")
	}
}

// TestStruckFlag: only FlipBit makes an array unclean; Write and read-repair
// leave it clean; an image or a baseline records whether a cell held an
// invalid codeword when it was captured, and restoring or adopting one
// installs that. A clean array decodes clean at every entry, which is what
// lets Read skip the decode.
func TestStruckFlag(t *testing.T) {
	allValid := func(p *Protected) bool {
		for _, w := range p.Cells() {
			if _, res := bits.DecodeSECDED(w); res != bits.ECCClean {
				return false
			}
		}
		return true
	}
	p := New("t", 24)
	p.Write(3, 0xabc)
	p.SetBaseline()
	clean := p.Snapshot()
	if !p.Clean() || p.Baseline().struck {
		t.Fatal("a written array is not clean")
	}

	p.FlipBit(3, 7)
	if p.Clean() {
		t.Fatal("a struck array is clean")
	}
	struck := p.Snapshot()
	if v, res := p.Read(3); v != 0xabc || res != bits.ECCCorrected || p.Clean() {
		t.Fatalf("read-repair: %#x %v clean %v, want the data corrected and the flag held", v, res, p.Clean())
	}
	// All cells are valid again: an image taken now records that.
	repaired := p.Snapshot()

	p.Restore(clean)
	if !p.Clean() {
		t.Error("restoring a clean image left the flag set")
	}
	p.Restore(struck)
	if p.Clean() || allValid(p) {
		t.Error("restoring an image taken after a strike lost the strike")
	}
	if v, res := p.Read(3); v != 0xabc || res != bits.ECCCorrected {
		t.Errorf("read after restoring the strike: %#x %v", v, res)
	}
	p.RestoreFull(repaired)
	if !p.Clean() || !allValid(p) {
		t.Error("an image captured once every cell was repaired is not clean")
	}

	p.FlipBit(10, 70)
	p.SetBaseline()
	q := New("t", 24)
	q.AdoptBaseline(p.Baseline())
	if q.Clean() {
		t.Error("adopting a baseline with a struck cell made a clean array")
	}
	if _, res := q.Read(10); res != bits.ECCCorrected {
		t.Errorf("the adopted strike read %v, want corrected", res)
	}
}

// TestStruckCount: a Struck counts exactly the attached arrays that are not
// clean, through strikes, restores, full restores and adopted baselines, and
// an array attached struck counts from the start.
func TestStruckCount(t *testing.T) {
	var s Struck
	a, b := New("a", 16), New("b", 16)
	a.SetBaseline()
	clean := a.Snapshot()
	b.FlipBit(2, 5)
	b.SetBaseline()
	struck := b.Snapshot()
	a.Attach(&s)
	b.Attach(&s)
	check := func(what string) {
		t.Helper()
		want := 0
		for _, p := range []*Protected{a, b} {
			if !p.Clean() {
				want++
			}
		}
		if s.n != want || s.Clean() != (want == 0) {
			t.Fatalf("%s: Struck counts %d (clean %v), %d arrays are struck", what, s.n, s.Clean(), want)
		}
	}
	check("attached")
	a.FlipBit(1, 70)
	a.FlipBit(3, 0) // a second strike of a struck array counts once
	check("a struck")
	b.Restore(struck)
	check("b restored struck")
	a.Restore(clean)
	check("a restored clean")
	b.RestoreFull(b.Snapshot())
	check("b restored full")
	b.AdoptBaseline(a.Baseline())
	check("b adopted a clean baseline")
	a.AdoptBaseline(b.Baseline())
	a.FlipBit(0, 0)
	b.FlipBit(0, 0)
	a.Restore(clean)
	check("one of two restored")
	b.AdoptBaseline(a.Baseline())
	check("both clean")
	defer func() {
		if recover() == nil {
			t.Error("attaching an array twice did not panic")
		}
	}()
	a.Attach(&s)
}
