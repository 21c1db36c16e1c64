package latch

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func buildTestDB() (*DB, Reg, Array) {
	db := NewDB()
	pc := db.Register("IFU", Func, "ifu.pc", 48)
	gpr := db.RegisterArray("FXU", RegFile, "fxu.gpr", 32, 64)
	db.Register("PRV", Mode, "prv.mode0", 17)
	db.RegisterArray("LSU", Func, "lsu.stq.addr", 16, 50)
	db.Register("PRV", GPTR, "prv.gptr", 64)
	db.Freeze()
	return db, pc, gpr
}

func TestTotalBits(t *testing.T) {
	db, _, _ := buildTestDB()
	want := 48 + 32*64 + 17 + 16*50 + 64
	if got := db.TotalBits(); got != want {
		t.Errorf("TotalBits = %d, want %d", got, want)
	}
}

func TestRegGetSetMasksWidth(t *testing.T) {
	_, pc, _ := buildTestDB()
	pc.Set(^uint64(0))
	if got := pc.Get(); got != (1<<48)-1 {
		t.Errorf("Get = %#x, want 48-bit mask", got)
	}
	if pc.Width() != 48 {
		t.Errorf("Width = %d", pc.Width())
	}
}

func TestRegBits(t *testing.T) {
	_, pc, _ := buildTestDB()
	pc.SetBit(5, true)
	if !pc.GetBit(5) || pc.Get() != 1<<5 {
		t.Error("SetBit/GetBit broken")
	}
	pc.SetBit(5, false)
	if pc.Get() != 0 {
		t.Error("clear failed")
	}
}

func TestArrayEntries(t *testing.T) {
	_, _, gpr := buildTestDB()
	if gpr.Len() != 32 {
		t.Fatalf("Len = %d", gpr.Len())
	}
	gpr.Entry(3).Set(111)
	gpr.Entry(4).Set(222)
	if gpr.Entry(3).Get() != 111 || gpr.Entry(4).Get() != 222 {
		t.Error("adjacent entries interfere")
	}
}

func TestArrayEntryOutOfRangePanics(t *testing.T) {
	_, _, gpr := buildTestDB()
	defer func() {
		if recover() == nil {
			t.Error("no panic on out-of-range entry")
		}
	}()
	gpr.Entry(32)
}

func TestDuplicateNamePanics(t *testing.T) {
	db := NewDB()
	db.Register("IFU", Func, "x", 8)
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate group name")
		}
	}()
	db.Register("IFU", Func, "x", 8)
}

func TestRegisterAfterFreezePanics(t *testing.T) {
	db := NewDB()
	db.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("no panic on register after freeze")
		}
	}()
	db.Register("IFU", Func, "late", 1)
}

func TestBadWidthPanics(t *testing.T) {
	db := NewDB()
	for _, w := range []int{0, 65, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for width %d", w)
				}
			}()
			db.Register("IFU", Func, "w", w)
		}()
	}
}

func TestLocateRoundTrip(t *testing.T) {
	db, _, _ := buildTestDB()
	// First bit of the GPR group is logical bit 48.
	g, e, b := db.Locate(48)
	if g.Name != "fxu.gpr" || e != 0 || b != 0 {
		t.Errorf("Locate(48) = %s[%d].%d", g.Name, e, b)
	}
	// Bit 48 + 64*2 + 7 is entry 2, bit 7.
	g, e, b = db.Locate(48 + 64*2 + 7)
	if g.Name != "fxu.gpr" || e != 2 || b != 7 {
		t.Errorf("Locate = %s[%d].%d, want fxu.gpr[2].7", g.Name, e, b)
	}
	// Last bit belongs to the last group.
	g, _, _ = db.Locate(db.TotalBits() - 1)
	if g.Name != "prv.gptr" {
		t.Errorf("last bit in %s, want prv.gptr", g.Name)
	}
}

func TestPeekPokeFlip(t *testing.T) {
	db, _, gpr := buildTestDB()
	bit := 48 + 64*5 + 13 // gpr[5] bit 13
	if db.Peek(bit) {
		t.Fatal("fresh bit set")
	}
	db.Poke(bit, true)
	if gpr.Entry(5).Get() != 1<<13 {
		t.Errorf("Poke not visible through handle: %#x", gpr.Entry(5).Get())
	}
	if db.Flip(bit) {
		t.Error("Flip of set bit should return false")
	}
	if gpr.Entry(5).Get() != 0 {
		t.Error("Flip not visible through handle")
	}
}

func TestSnapshotRestore(t *testing.T) {
	db, pc, gpr := buildTestDB()
	pc.Set(0x1234)
	gpr.Entry(7).Set(777)
	snap := db.Snapshot()
	pc.Set(0)
	gpr.Entry(7).Set(0)
	db.Flip(0)
	db.Restore(snap)
	if pc.Get() != 0x1234 || gpr.Entry(7).Get() != 777 {
		t.Error("restore did not recover state")
	}
	if db.Peek(0) {
		t.Error("flipped bit survived restore")
	}
}

func TestRestoreSizeMismatchPanics(t *testing.T) {
	db, _, _ := buildTestDB()
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad snapshot size")
		}
	}()
	other := NewDB()
	other.Register("IFU", Func, "ifu.pc", 48)
	db.Restore(other.Snapshot())
}

func TestCountBitsAndFilters(t *testing.T) {
	db, _, _ := buildTestDB()
	if got := db.CountBits(nil); got != db.TotalBits() {
		t.Errorf("CountBits(nil) = %d", got)
	}
	if got := db.CountBits(ByUnit("FXU")); got != 32*64 {
		t.Errorf("FXU bits = %d, want 2048", got)
	}
	if got := db.CountBits(ByType(Mode)); got != 17 {
		t.Errorf("Mode bits = %d, want 17", got)
	}
	if got := db.CountBits(ByType(GPTR)); got != 64 {
		t.Errorf("GPTR bits = %d, want 64", got)
	}
}

func TestUnits(t *testing.T) {
	db, _, _ := buildTestDB()
	units := db.Units()
	want := []string{"IFU", "FXU", "PRV", "LSU"}
	if len(units) != len(want) {
		t.Fatalf("Units = %v", units)
	}
	for i := range want {
		if units[i] != want[i] {
			t.Fatalf("Units = %v, want %v", units, want)
		}
	}
}

func TestGroupByName(t *testing.T) {
	db, _, _ := buildTestDB()
	g, ok := db.GroupByName("lsu.stq.addr")
	if !ok || g.Entries != 16 || g.Width != 50 {
		t.Errorf("GroupByName = %+v, %v", g, ok)
	}
	if _, ok := db.GroupByName("nope"); ok {
		t.Error("found nonexistent group")
	}
}

func TestSampleBitsUniqueAndInFilter(t *testing.T) {
	db, _, _ := buildTestDB()
	rng := rand.New(rand.NewPCG(1, 2))
	bits := db.SampleBits(rng, 100, ByUnit("FXU"))
	if len(bits) != 100 {
		t.Fatalf("got %d bits", len(bits))
	}
	seen := make(map[int]bool)
	for _, b := range bits {
		if seen[b] {
			t.Fatalf("duplicate bit %d", b)
		}
		seen[b] = true
		g, _, _ := db.Locate(b)
		if g.Unit != "FXU" {
			t.Fatalf("bit %d in unit %s", b, g.Unit)
		}
	}
}

func TestSampleBitsExhaustive(t *testing.T) {
	db, _, _ := buildTestDB()
	rng := rand.New(rand.NewPCG(3, 4))
	bits := db.SampleBits(rng, 17, ByType(Mode))
	if len(bits) != 17 {
		t.Fatalf("got %d", len(bits))
	}
	seen := make(map[int]bool)
	for _, b := range bits {
		seen[b] = true
	}
	if len(seen) != 17 {
		t.Error("exhaustive sample has duplicates")
	}
}

func TestSampleBitsTooManyPanics(t *testing.T) {
	db, _, _ := buildTestDB()
	rng := rand.New(rand.NewPCG(5, 6))
	defer func() {
		if recover() == nil {
			t.Error("no panic on oversample")
		}
	}()
	db.SampleBits(rng, 18, ByType(Mode))
}

// Property: sampling is unbiased enough that every group gets hit when we
// sample a large fraction, and all indices are valid.
func TestQuickSampleValidity(t *testing.T) {
	db, _, _ := buildTestDB()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		n := 1 + rng.IntN(db.TotalBits())
		bits := db.SampleBits(rng, n, nil)
		if len(bits) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, b := range bits {
			if b < 0 || b >= db.TotalBits() || seen[b] {
				return false
			}
			seen[b] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Poke then Peek round-trips on random bits.
func TestQuickPeekPoke(t *testing.T) {
	db, _, _ := buildTestDB()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 12))
		bit := rng.IntN(db.TotalBits())
		v := rng.IntN(2) == 1
		db.Poke(bit, v)
		return db.Peek(bit) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegFieldAccessors(t *testing.T) {
	db := NewDB()
	r := db.Register("IFU", Mode, "f", 64)
	db.Freeze()
	r.SetField(8, 16, 0xABCD)
	if got := r.Field(8, 16); got != 0xABCD {
		t.Errorf("Field = %#x", got)
	}
	if got := r.Get(); got != 0xABCD<<8 {
		t.Errorf("Get = %#x", got)
	}
	// Neighbouring bits untouched.
	r.SetField(0, 8, 0xFF)
	r.SetField(8, 16, 0x1234)
	if r.Field(0, 8) != 0xFF || r.Field(8, 16) != 0x1234 {
		t.Error("SetField clobbered neighbours")
	}
	// Oversized writes are masked.
	r.SetField(60, 4, 0xFF)
	if r.Field(60, 4) != 0xF {
		t.Errorf("Field(60,4) = %#x", r.Field(60, 4))
	}
}

func TestQuickFieldRoundTrip(t *testing.T) {
	db := NewDB()
	r := db.Register("IFU", Func, "q", 64)
	db.Freeze()
	f := func(v uint64, lo8, w8 uint8) bool {
		lo := int(lo8 % 60)
		w := int(w8%(64-uint8(lo))) + 1
		r.SetField(lo, w, v)
		mask := uint64(1)<<uint(w) - 1
		return r.Field(lo, w) == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeltaRestoreMatchesSnapshot: a write through any of the public write
// primitives marks its word, so a delta captures it and a delta restore
// reverts it. (What the store does with the marks is internal/dirty's test.)
func TestDeltaRestoreMatchesSnapshot(t *testing.T) {
	db, pc, gpr := buildTestDB()
	pc.Set(0x1234)
	db.SetBaseline()
	if !db.HasBaseline() {
		t.Fatal("baseline not installed")
	}
	ckA := db.CaptureDelta()
	// Advance through every write primitive and checkpoint.
	pc.Set(0x5678)
	gpr.Entry(3).Set(99)
	gpr.Entry(4).SetBit(7, true)
	gpr.Entry(5).SetField(8, 4, 0xf)
	db.Poke(0, true)
	db.Flip(60)
	ckB := db.CaptureDelta()
	wantB := slices.Clone(db.Cells)
	// Dirty more state, then delta-restore B and cross-restore A.
	for i := 0; i < gpr.Len(); i++ {
		gpr.Entry(i).Set(uint64(i) * 3)
	}
	db.RestoreDelta(ckB)
	if !slices.Equal(db.Cells, wantB) {
		t.Fatal("delta restore to B does not match snapshot")
	}
	db.RestoreDelta(ckA)
	if pc.Get() != 0x1234 || gpr.Entry(3).Get() != 0 || gpr.Entry(4).Get() != 0 || gpr.Entry(5).Get() != 0 || db.Peek(60) {
		t.Fatal("cross-checkpoint delta restore to baseline diverged")
	}
}

func TestDeltaRestoreAfterFullRestore(t *testing.T) {
	// A full Restore conservatively dirties every word; the next delta
	// restore must still be exact.
	db, pc, _ := buildTestDB()
	blank := db.Snapshot()
	db.SetBaseline()
	pc.Set(0xabc)
	ck := db.CaptureDelta()
	want := slices.Clone(db.Cells)
	db.Restore(blank)
	db.RestoreDelta(ck)
	if !slices.Equal(db.Cells, want) {
		t.Fatal("delta restore after full Restore diverged")
	}
}

func TestAdoptBaseline(t *testing.T) {
	src, pc, _ := buildTestDB()
	pc.Set(0x77)
	src.SetBaseline()
	pc.Set(0x88)
	ck := src.CaptureDelta()

	db, pc2, _ := buildTestDB()
	db.AdoptBaseline(src.Baseline())
	if pc2.Get() != 0x77 {
		t.Fatalf("adopted baseline pc = %#x", pc2.Get())
	}
	db.RestoreDelta(ck)
	if !slices.Equal(db.Cells, src.Cells) {
		t.Fatal("clone after delta restore does not match source")
	}
}

// A handle made before later registrations re-allocate the storage slice
// must still reach the live word afterwards.
func TestHandleSurvivesLaterRegistration(t *testing.T) {
	db := NewDB()
	first := db.Register("IFU", Func, "first", 12)
	first.Set(0xabc)
	for i := 0; i < 64; i++ {
		db.RegisterArray("FXU", RegFile, fmt.Sprintf("grow%d", i), 64, 64)
	}
	db.Freeze()
	if first.Get() != 0xabc {
		t.Fatalf("handle lost its value across re-allocation: %#x", first.Get())
	}
	first.Set(0x123)
	if !db.Peek(0) || db.Peek(2) {
		t.Error("write through an early handle missed the live storage")
	}
}

// A BitRef stays bound to its bit: a held value can be re-forced through it
// after the word is overwritten or restored, and its writes are tracked for
// delta restore like any other.
func TestBitRefReforce(t *testing.T) {
	db, _, gpr := buildTestDB()
	db.SetBaseline()
	clean := db.CaptureDelta()
	ref := db.BitRef(48 + 64*5 + 13) // gpr[5] bit 13
	if !ref.Flip() || !ref.Get() || gpr.Entry(5).Get() != 1<<13 {
		t.Fatal("Flip through a BitRef not visible through the handle")
	}
	gpr.Entry(5).Set(0xff) // the logic overwrites the word
	if ref.Get() {
		t.Fatal("BitRef reads a stale value")
	}
	ref.Set(true)
	if gpr.Entry(5).Get() != 0xff|1<<13 {
		t.Errorf("re-force disturbed the other bits: %#x", gpr.Entry(5).Get())
	}
	db.RestoreDelta(clean)
	if ref.Get() || gpr.Entry(5).Get() != 0 {
		t.Error("BitRef write escaped dirty tracking")
	}
}

var sinkReg uint64

// BenchmarkRegGetSet times the latch access pair the model's next-state
// logic is made of: read one array entry, write another, through handles.
func BenchmarkRegGetSet(b *testing.B) {
	db, pc, gpr := buildTestDB()
	db.SetBaseline()
	for i := 0; i < b.N; i++ {
		v := gpr.Entry(i & 31).Get()
		gpr.Entry((i + 1) & 31).Set(v + uint64(i))
		pc.Set(pc.Get() + 4)
	}
	sinkReg = pc.Get()
}
