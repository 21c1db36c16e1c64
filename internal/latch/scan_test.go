package latch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestScanCannotWrite is the type half of "no cycle writes scan state": the
// methods of Scan and ScanArray are exactly the readers Get, GetBit, Field
// and Entry, and neither type has a field another package could reach, so
// model code holding one has no expression that writes the group.
func TestScanCannotWrite(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "scan.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string]bool{"Get": true, "GetBit": true, "Field": true, "Entry": true}
	methods := 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv == nil {
				return false
			}
			recv, _ := n.Recv.List[0].Type.(*ast.Ident)
			if recv == nil || recv.Name != "Scan" && recv.Name != "ScanArray" {
				return false
			}
			methods++
			if !readers[n.Name.Name] {
				t.Errorf("%s.%s: a scan handle may only read", recv.Name, n.Name.Name)
			}
		case *ast.TypeSpec:
			st, ok := n.Type.(*ast.StructType)
			if !ok || n.Name.Name != "Scan" && n.Name.Name != "ScanArray" {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						t.Errorf("%s.%s is exported: it hands out a writable handle", n.Name.Name, name.Name)
					}
				}
			}
		}
		return true
	})
	if methods != 4 {
		t.Errorf("found %d methods on Scan and ScanArray, want Get, GetBit, Field and Entry", methods)
	}
}

// TestScanGenMoves holds DB.ScanGen to its contract: every write that can
// change a scan-only word moves the generation, and the model's own writes —
// through Reg and Tracked handles, neither of which reaches a scan
// group — do not.
func TestScanGenMoves(t *testing.T) {
	db := NewDB()
	mode := db.RegisterScanArray("PRV", Mode, "prv.mode", 2, 16)
	pc := db.Register("PRV", Func, "prv.pc", 64)
	gpr := db.RegisterTracked("PRV", RegFile, "prv.gpr", 4, 64, AllBits)
	db.Freeze()
	if g, _ := db.GroupByName("prv.mode"); !g.Scan || g.ReadMask(1) != 0xffff || g.Entries != 2 {
		t.Fatalf("RegisterScanArray made %+v", g)
	}
	if db.ScanGen() == 0 {
		t.Fatal("a new database is at generation 0, where a zero-valued view claims to be current")
	}
	const bit = 16 // mode[1] bit 0: the mode group is registered first
	db.SetBaseline()
	img := db.Snapshot()
	for _, w := range []struct {
		name  string
		write func()
		moves bool
	}{
		{"LoadScan", func() { db.LoadScan(mode.Entry(1), 0xa5) }, true},
		{"Flip", func() { db.Flip(bit) }, true},
		{"Poke", func() { db.Poke(bit, true) }, true},
		{"BitRef.Set", func() { db.BitRef(bit).Set(false) }, true},
		{"Restore", func() { db.Restore(img) }, true},
		{"RestoreFull", func() { db.RestoreFull(img) }, true},
		{"RestoreDelta", func() { db.RestoreDelta(db.CaptureDelta()) }, true},
		{"AdoptBaseline", func() { db.AdoptBaseline(db.Baseline()) }, true},
		{"Fill", func() { db.Fill(0) }, true},
		{"Reg.Set", func() { pc.Set(pc.Get() + 1) }, false},
		{"Tracked.Set", func() { gpr.Set(2, gpr.Get(2)+1) }, false},
	} {
		before := db.ScanGen()
		w.write()
		if moved := db.ScanGen() != before; moved != w.moves {
			t.Errorf("%s: generation moved %v, want %v", w.name, moved, w.moves)
		}
	}
	db.LoadScan(mode.Entry(0), 0x1ff5a)
	if mode.Entry(0).Get() != 0xff5a || mode.Entry(0).Field(4, 8) != 0xf5 || !mode.Entry(0).GetBit(1) {
		t.Errorf("LoadScan stored %#x, want the 16-bit 0xff5a", mode.Entry(0).Get())
	}

	other := NewDB()
	defer func() {
		if recover() == nil {
			t.Error("LoadScan through another database's handle did not panic")
		}
	}()
	other.LoadScan(mode.Entry(0), 1)
}

// TestReadSets is the latch half of the per-bit never-read proof: a handle
// returns exactly the bits its group's read set holds. Over a database of
// scan, tracked, plain and idle groups with random contents, flipping a bit
// outside the read set changes no handle's Get, GetBit or Field, and
// flipping one inside it changes some handle's Get. LoadScan and
// Tracked.Set write the read set and zero beside it.
func TestReadSets(t *testing.T) {
	db := NewDB()
	gptr := db.RegisterScan("IFU", GPTR, "ifu.gptr", 2, 64, 0xfff)
	recov := db.RegisterScan("PRV", Mode, "prv.mode.recovery", 1, 8, 1)
	clock := db.RegisterScan("PRV", Mode, "prv.mode.clock", 1, 8, AllBits)
	par := db.RegisterScanArray("PRV", Func, "prv.ring.par", 4, 1)
	ctl := db.RegisterTracked("LSU", Func, "lsu.erat.ctl", 8, 4, 1)
	gpr := db.RegisterTracked("FXU", RegFile, "fxu.gpr", 4, 64, AllBits)
	pc := db.Register("IFU", Func, "ifu.pc", 48)
	db.RegisterIdle("PRV", Func, "prv.trace", 3, 48)
	db.Freeze()
	if g, _ := db.GroupByName("prv.trace"); !g.Idle || g.Bits() != 3*48 {
		t.Fatalf("RegisterIdle made %+v", g)
	}
	for _, c := range []struct {
		group string
		masks []uint64 // ReadMask of each entry
	}{
		{"ifu.gptr", []uint64{0xfff, 0}},
		{"prv.mode.recovery", []uint64{1}},
		{"prv.mode.clock", []uint64{0xff}},
		{"prv.ring.par", []uint64{1, 1, 1, 1}},
		{"lsu.erat.ctl", []uint64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"fxu.gpr", []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}},
		{"ifu.pc", []uint64{1<<48 - 1}},
		{"prv.trace", []uint64{0, 0, 0}},
	} {
		g, _ := db.GroupByName(c.group)
		for e, want := range c.masks {
			if got := g.ReadMask(e); got != want {
				t.Errorf("%s entry %d: read set %#x, want %#x", c.group, e, got, want)
			}
		}
	}

	scans := []Scan{gptr, recov, clock}
	for i := 0; i < par.a.n; i++ {
		scans = append(scans, par.Entry(i))
	}
	// reads is everything model code holding these handles can learn.
	reads := func() (out []uint64) {
		for _, s := range scans {
			out = append(out, s.Get())
			for i := 0; i < 64; i++ {
				out = append(out, uint64(b2u(s.GetBit(i))))
				for w := 1; i+w <= 64; w++ {
					out = append(out, s.Field(i, w))
				}
			}
		}
		for _, tr := range []Tracked{ctl, gpr} {
			for i := 0; i < tr.Len(); i++ {
				out = append(out, tr.Get(i))
			}
		}
		return append(out, pc.Get())
	}
	rng := rand.New(rand.NewPCG(35, 1))
	for w := range db.Cells {
		db.Cells[w] = rng.Uint64()
	}
	before := reads()
	for bit := 0; bit < db.TotalBits(); bit++ {
		g, e, b := db.Locate(bit)
		db.Flip(bit)
		changed := !slices.Equal(reads(), before)
		db.Flip(bit)
		if changed == g.NeverRead(e, b) {
			t.Errorf("%s entry %d bit %d: never read %v, but a flip changed what the handles read: %v", g.Name, e, b, g.NeverRead(e, b), changed)
		}
	}

	db.LoadScan(gptr, 0xabc00f)
	if db.Cells[0] != 0xf {
		t.Errorf("LoadScan stored %#x, want the read set's 0xf", db.Cells[0])
	}
	ctl.Set(2, 0xf)
	if g, _ := db.GroupByName("lsu.erat.ctl"); db.Cells[g.physOff+2] != 1 {
		t.Errorf("Tracked.Set stored %#x, want the read set's one bit", db.Cells[g.physOff+2])
	}
}

func b2u(b bool) int {
	if b {
		return 1
	}
	return 0
}
