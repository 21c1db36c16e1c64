package latch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// access is one logged access, as Accesses yields it.
type access struct {
	cycle uint64
	def   bool
}

func accesses(l *AccessLog, g *Group, e int) []access {
	var out []access
	for c, def := range l.Accesses(g, e) {
		out = append(out, access{c, def})
	}
	return out
}

// TestTrackedLog drives a tracked handle through a recording and reads the
// log back: every Get and Set lands under its word with the clock's value, in
// order; nothing is logged before Record or after StopRecording; LiveAt
// answers for a flip made after any cycle; and the handle reads, writes,
// masks and dirty-tracks like the generic ones.
func TestTrackedLog(t *testing.T) {
	build := func() (*DB, Tracked, Tracked) {
		db := NewDB()
		db.Register("IFU", Func, "ifu.pc", 48)
		bht := db.RegisterTracked("IFU", Func, "ifu.bht", 16, 2, AllBits)
		db.RegisterArray("FXU", RegFile, "fxu.gpr.par", 32, 1)
		gpr := db.RegisterTracked("FXU", RegFile, "fxu.gpr", 32, 64, AllBits)
		db.Freeze()
		return db, bht, gpr
	}
	db, bht, gpr := build()
	if g, _ := db.GroupByName("fxu.gpr"); !g.Tracked || g.NeverRead(31, 63) || g.trackOff != 16 {
		t.Fatalf("RegisterTracked made %+v", g)
	}
	if g, _ := db.GroupByName("fxu.gpr.par"); g.Tracked {
		t.Fatalf("RegisterArray made %+v", g)
	}
	if bht.Len() != 16 || gpr.Len() != 32 {
		t.Errorf("Len = %d, %d", bht.Len(), gpr.Len())
	}
	db.SetBaseline()
	clean := db.CaptureDelta()

	clock := uint64(100)
	gpr.Set(3, 7) // before the recording: not logged
	db.Record(&clock)
	clock = 101
	gpr.Get(3)
	clock = 104
	bht.Set(15, 0xff) // 2 bits wide
	gpr.Get(3)
	gpr.Set(3, 9) // read, then overwritten, in one cycle
	clock = 110
	gpr.Set(4, 1)
	clock = 111
	gpr.Get(4)
	log := db.StopRecording()
	clock = 120
	gpr.Get(5) // after it: not logged

	if bht.Get(15) != 3 || gpr.Get(3) != 9 || gpr.Get(4) != 1 {
		t.Errorf("contents %d %d %d, want 3 9 1", bht.Get(15), gpr.Get(3), gpr.Get(4))
	}
	g, _ := db.GroupByName("fxu.gpr")
	bg, _ := db.GroupByName("ifu.bht")
	if got, want := accesses(log, g, 3), []access{{101, false}, {104, false}, {104, true}}; !slices.Equal(got, want) {
		t.Errorf("gpr[3] log %v, want %v", got, want)
	}
	if got, want := accesses(log, bg, 15), []access{{104, true}}; !slices.Equal(got, want) {
		t.Errorf("bht[15] log %v, want %v", got, want)
	}
	if got := accesses(log, g, 5); len(got) != 0 {
		t.Errorf("gpr[5] log %v, want none", got)
	}
	for _, c := range []struct {
		g     *Group
		e     int
		after uint64
		want  uint64
	}{
		{g, 3, 99, 101}, // a flip made before the recording's first cycle
		{g, 3, 100, 101},
		{g, 3, 101, 104}, // after the read at 101 the next access is the read at 104
		{g, 3, 103, 104},
		{g, 3, 104, Never}, // nothing later
		{g, 4, 100, Never}, // overwritten at 110 before the read at 111
		{g, 4, 109, Never},
		{g, 4, 110, 111},
		{g, 4, 111, Never},
		{g, 5, 100, Never}, // never accessed
		{bg, 15, 100, Never},
	} {
		if got := log.LiveAt(c.g, c.e, c.after); got != c.want {
			t.Errorf("LiveAt(%s[%d], after %d) = %d, want %d", c.g.Name, c.e, c.after, got, c.want)
		}
	}

	// A database built from the same registrations is indexed by the same log.
	db2, _, _ := build()
	g2, _ := db2.GroupByName("fxu.gpr")
	if got := log.LiveAt(g2, 4, 110); got != 111 {
		t.Errorf("LiveAt through a second database = %d, want 111", got)
	}

	db.RestoreDelta(clean)
	if !slices.Equal(db.Cells, make([]uint64, len(db.Cells))) {
		t.Errorf("a tracked write escaped dirty tracking: %v", db.Cells)
	}
}

// TestTrackedIsGetSetLen is the type half of the def-use proof: Tracked has
// no field another package could reach and no method a model can call but
// the logged whole-word Get and Set and the entry count, so model code
// holding one has no access to the group that a recording does not see.
func TestTrackedIsGetSetLen(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "tracked.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var methods []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv == nil {
				return false
			}
			if recv, _ := n.Recv.List[0].Type.(*ast.Ident); recv != nil && recv.Name == "Tracked" && n.Name.IsExported() {
				methods = append(methods, n.Name.Name)
			}
		case *ast.TypeSpec:
			st, ok := n.Type.(*ast.StructType)
			if !ok || n.Name.Name != "Tracked" {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						t.Errorf("Tracked.%s is exported: it hands out an unlogged handle", name.Name)
					}
				}
			}
		}
		return true
	})
	slices.Sort(methods)
	if want := []string{"Get", "Len", "Set"}; !slices.Equal(methods, want) {
		t.Errorf("Tracked exports methods %v, want %v", methods, want)
	}
}

// BenchmarkTrackedGetSet is BenchmarkRegGetSet through tracked handles with
// no recording running: what the hook costs the model's hot path.
func BenchmarkTrackedGetSet(b *testing.B) {
	db := NewDB()
	pc := db.Register("IFU", Func, "ifu.pc", 48)
	gpr := db.RegisterTracked("FXU", RegFile, "fxu.gpr", 32, 64, AllBits)
	db.Freeze()
	db.SetBaseline()
	for i := 0; i < b.N; i++ {
		v := gpr.Get(i & 31)
		gpr.Set((i+1)&31, v+uint64(i))
		pc.Set(pc.Get() + 4)
	}
	sinkReg = pc.Get()
}
