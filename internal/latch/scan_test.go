package latch

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// through Reg, Tracked and WriteOnly handles, none of which reaches a scan
// group — do not.
func TestScanGenMoves(t *testing.T) {
	db := NewDB()
	mode := db.RegisterScan("PRV", Mode, "prv.mode", 2, 16)
	pc := db.Register("PRV", Func, "prv.pc", 64)
	gpr := db.RegisterTracked("PRV", RegFile, "prv.gpr", 4, 64)
	perf := db.RegisterWriteOnly("PRV", Func, "prv.perf", 1, 64)
	db.Freeze()
	if g, _ := db.GroupByName("prv.mode"); !g.Scan || g.NeverRead() || g.Entries != 2 {
		t.Fatalf("RegisterScan made %+v", g)
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
		{"WriteOnly.Add", func() { perf.Add(0, 1) }, false},
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
