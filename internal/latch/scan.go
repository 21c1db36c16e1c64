package latch

import "sfi/internal/dirty"

// Scan is a read-only handle to one entry of a latch group that the model
// reads but only scan writes: the configuration the scan chains load at
// power-on (MODE and GPTR rings, clock and checker enables) and the
// pervasive state guarding it. It has Get, GetBit and Field and no Set, so
// "no cycle writes scan state" holds by construction, as "nothing reads this
// latch" does for WriteOnly: the contents change only through DB.LoadScan,
// a flip or a restore, and each of those moves the database's scan
// generation (DB.ScanGen). A value derived from scan-only contents may be
// kept for as long as the generation stands still.
type Scan struct{ r Reg }

// Get reads the latch value.
func (s Scan) Get() uint64 { return s.r.Get() }

// GetBit reads one bit of the latch.
func (s Scan) GetBit(i int) bool { return s.r.GetBit(i) }

// Field reads the width-bit field starting at bit lo.
func (s Scan) Field(lo, width int) uint64 { return s.r.Field(lo, width) }

// ScanArray is the read-only handle to a whole scan-only group.
type ScanArray struct{ a Array }

// Entry returns the handle for entry i.
func (s ScanArray) Entry(i int) Scan { return Scan{s.a.Entry(i)} }

// RegisterScan adds a scan-only latch group of entries × width bits and
// returns its read-only handle.
func (db *DB) RegisterScan(unit string, kind Type, name string, entries, width int) ScanArray {
	a := db.RegisterArray(unit, kind, name, entries, width)
	a.g.Scan = true
	return ScanArray{a}
}

// LoadScan writes v into a scan-only latch, as the scan chains do, and moves
// the scan generation.
func (db *DB) LoadScan(s Scan, v uint64) {
	if s.r.db != db {
		panic("latch: LoadScan through another database's handle")
	}
	s.r.Set(v)
	db.gen++
}

// ScanGen returns the scan generation: a count moved by every write that can
// change what a Scan handle reads — a scan load, a bit flip (Flip, Poke, a
// BitRef's Flip or Set), a restore, an adopted baseline and a Fill. While it
// stands still, so do the scan-only latches.
func (db *DB) ScanGen() uint64 { return db.gen }

// The store's methods that rewrite contents wholesale, each moving the scan
// generation: they may rewrite scan-only words too.

// Fill sets every latch word to v.
func (db *DB) Fill(v uint64) {
	db.Store.Fill(v)
	db.gen++
}

// Restore rewrites the latches to img's contents, through RestoreDelta or
// RestoreFull as dirty.Store.Restore chooses.
func (db *DB) Restore(img *dirty.Image[uint64]) {
	if d := img.DeltaOn(db.Baseline()); d != nil {
		db.RestoreDelta(d)
		return
	}
	db.RestoreFull(img)
}

// RestoreFull rebuilds all of img (see dirty.Store.RestoreFull).
func (db *DB) RestoreFull(img *dirty.Image[uint64]) {
	db.Store.RestoreFull(img)
	db.gen++
}

// RestoreDelta rewrites the latches to the state d captured (see
// dirty.Store.RestoreDelta).
func (db *DB) RestoreDelta(d *dirty.Delta[uint64]) {
	db.Store.RestoreDelta(d)
	db.gen++
}

// AdoptBaseline shares b and resets the latches to it (see
// dirty.Store.AdoptBaseline).
func (db *DB) AdoptBaseline(b *dirty.Baseline[uint64]) {
	db.Store.AdoptBaseline(b)
	db.gen++
}
