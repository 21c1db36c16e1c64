package proc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sfi/internal/latch"
)

// deadHandles returns, as "struct.field", every latch-handle field of a unit
// state struct (a struct type named *State) that the files reference nowhere
// but as the target of a plain assignment — its registration. Such a group is
// one the model can neither read nor write, and belongs in RegisterIdle,
// where the type system says so.
//
// The resolution is syntactic: an expression names a unit's state when it is
// a selector of one of Core's *State fields (c.lsu), a method receiver of a
// *State type, or a local defined from either (lsu := &c.lsu).
func deadHandles(files []*ast.File) []string {
	handles := map[string]map[string]bool{} // struct -> latch-handle fields
	unitOf := map[string]string{}           // Core field -> its *State struct
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if id, ok := fld.Type.(*ast.Ident); ok && ts.Name.Name == "Core" && strings.HasSuffix(id.Name, "State") {
						unitOf[name.Name] = id.Name
					}
					if !isLatchType(fld.Type) || !strings.HasSuffix(ts.Name.Name, "State") {
						continue
					}
					if handles[ts.Name.Name] == nil {
						handles[ts.Name.Name] = map[string]bool{}
					}
					handles[ts.Name.Name][name.Name] = false
				}
			}
			return true
		})
	}

	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			local := map[string]string{} // identifier -> *State struct
			stateOf := func(e ast.Expr) string {
				if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e = u.X
				}
				switch e := e.(type) {
				case *ast.SelectorExpr:
					return unitOf[e.Sel.Name]
				case *ast.Ident:
					return local[e.Name]
				}
				return ""
			}
			if fn.Recv != nil && len(fn.Recv.List[0].Names) == 1 {
				t := fn.Recv.List[0].Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				if id, ok := t.(*ast.Ident); ok && handles[id.Name] != nil {
					local[fn.Recv.List[0].Names[0].Name] = id.Name
				}
			}
			registered := map[ast.Expr]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, lhs := range as.Lhs {
					if as.Tok == token.ASSIGN {
						registered[lhs] = true
					} else if id, ok := lhs.(*ast.Ident); ok && len(as.Rhs) == len(as.Lhs) {
						if s := stateOf(as.Rhs[i]); s != "" {
							local[id.Name] = s
						}
					}
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || registered[sel] {
					return true
				}
				if fields := handles[stateOf(sel.X)]; fields != nil {
					if _, isHandle := fields[sel.Sel.Name]; isHandle {
						fields[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for st, fields := range handles {
		for f, used := range fields {
			if !used {
				dead = append(dead, st+"."+f)
			}
		}
	}
	slices.Sort(dead)
	return dead
}

// isLatchType reports whether a field type is latch.<something>.
func isLatchType(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "latch"
}

// TestNoDeadLatchHandles is the inventory half of the never-read proof: a
// latch group the model holds a handle to is one some model code touches.
// A handle referenced only by its registration — thirteen of them sat in the
// inventory before this test, three of those the periphery's — keeps its group
// out of RegisterIdle, so every flip there is clocked through a whole run for
// nothing.
func TestNoDeadLatchHandles(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["proc"].Files {
		files = append(files, f)
	}
	if dead := deadHandles(files); len(dead) != 0 {
		t.Errorf("latch handles referenced only by their registration (register them with RegisterIdle): %v", dead)
	}

	// The lint itself, on a model with one handle of each kind.
	src := `package proc
type Core struct{ lsu lsuState; prv prvState }
type lsuState struct{ ea, pf, perf latch.Reg; n int }
type prvState struct{ fir, abist latch.Array }
func (c *Core) build() {
	c.lsu.ea = db.Register("ea")
	c.lsu.pf = db.Register("pf")
	c.lsu.perf = db.Register("perf")
	c.prv.fir = db.RegisterArray("fir")
	c.prv.abist = db.RegisterArray("abist")
}
func (c *Core) cycle() { lsu := &c.lsu; lsu.perf.Set(lsu.ea.Get()) }
func (p *prvState) set() { p.fir.Entry(0).Set(1) }
`
	f, err := parser.ParseFile(fset, "model.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dead, want := deadHandles([]*ast.File{f}), []string{"lsuState.pf", "prvState.abist"}; !slices.Equal(dead, want) {
		t.Errorf("lint found %v in the sample model, want %v", dead, want)
	}
}

// walkHandles walks everything a built Core can reach and calls visit for
// every latch handle on the way: its path, its type (Reg, Array, Tracked,
// Scan or ScanArray) and
// the group holding its first storage word. The database itself reaches
// every word; it is the harness's way in, not the model's, and is not
// walked.
func walkHandles(t *testing.T, c *Core, visit func(path, handle string, g *latch.Group, h reflect.Value)) {
	var groupOf []*latch.Group // storage word -> group: one word per entry, registration order
	for _, g := range c.DB().Groups() {
		for e := 0; e < g.Entries; e++ {
			groupOf = append(groupOf, g)
		}
	}
	word := map[reflect.Type]func(reflect.Value) int64{
		reflect.TypeOf(latch.Reg{}):       func(v reflect.Value) int64 { return v.FieldByName("w").Int() },
		reflect.TypeOf(latch.Array{}):     func(v reflect.Value) int64 { return v.FieldByName("off").Int() },
		reflect.TypeOf(latch.Tracked{}):   func(v reflect.Value) int64 { return v.FieldByName("lo").Int() },
		reflect.TypeOf(latch.Scan{}):      func(v reflect.Value) int64 { return v.FieldByName("r").FieldByName("w").Int() },
		reflect.TypeOf(latch.ScanArray{}): func(v reflect.Value) int64 { return v.FieldByName("a").FieldByName("off").Int() },
	}
	dbType := reflect.TypeOf((*latch.DB)(nil))
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Type() == dbType {
			return
		}
		if w, ok := word[v.Type()]; ok {
			visit(path, v.Type().Name(), groupOf[w(v)], v)
			return
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				return
			}
			if v.Kind() == reflect.Pointer {
				if seen[v.Pointer()] {
					return
				}
				seen[v.Pointer()] = true
			}
			walk(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Func:
			if !v.IsNil() {
				t.Errorf("%s: a func value could close over a handle the walk cannot see", path)
			}
		}
	}
	walk(reflect.ValueOf(c), "Core")
}

// TestTrackedGroupsOnlyThroughTrackedHandles is the reach half of the def-use
// proof: walking everything a built Core can reach, the storage words of a
// tracked group sit behind exactly one handle, a latch.Tracked, and behind no
// Reg, Array or scan handle that would read or write them without
// the access log seeing it.
func TestTrackedGroupsOnlyThroughTrackedHandles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableNest = true
	c := New(cfg)

	handles := map[string]int{} // tracked group -> Tracked handles reaching it
	walkHandles(t, c, func(path, handle string, g *latch.Group, h reflect.Value) {
		switch {
		case handle == "Tracked":
			if !g.Tracked || int(h.FieldByName("hi").Int()-h.FieldByName("lo").Int()) != g.Entries {
				t.Errorf("%s: a tracked handle over %s, which is not a tracked group", path, g.Name)
			}
			handles[g.Name]++
		case g.Tracked:
			t.Errorf("%s: an untracked handle (%s) to tracked group %s", path, handle, g.Name)
		}
	})

	want := []string{"fpu.fpr", "fxu.gpr", "ifu.bht", "lsu.erat.ctl", "lsu.erat.ppn", "lsu.erat.vpn", "lsu.stq.addr", "lsu.stq.data"}
	var tracked []string
	for _, g := range c.DB().Groups() {
		if g.Tracked {
			tracked = append(tracked, g.Name)
			if handles[g.Name] != 1 {
				t.Errorf("tracked group %s is behind %d tracked handles, want 1", g.Name, handles[g.Name])
			}
		}
	}
	slices.Sort(tracked)
	if !slices.Equal(tracked, want) {
		t.Errorf("tracked groups %v, want %v", tracked, want)
	}
}

// TestScanOnlyGroups is the reach half of "no cycle writes scan state", which
// the cached scan view stands on: every MODE and GPTR group is idle or a
// scan group, and walking everything a built Core can reach, a scan group's
// words sit behind latch.Scan and latch.ScanArray handles alone — neither
// has a method that writes — and behind no Reg, Array or Tracked handle. So
// the only writes that reach one are the
// database's scan load, flips and restores, all of which move the scan
// generation.
func TestScanOnlyGroups(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableNest = true
	c := New(cfg)

	var scan []string
	for _, g := range c.DB().Groups() {
		if (g.Kind == latch.Mode || g.Kind == latch.GPTR) && !g.Idle && !g.Scan {
			t.Errorf("%s group %s is read and written by the model: register it with RegisterScan or RegisterIdle", g.Kind, g.Name)
		}
		if g.Scan {
			scan = append(scan, g.Name)
		}
	}
	slices.Sort(scan)
	want := []string{
		"fpu.gptr", "fpu.mode", "fxu.gptr", "fxu.mode", "idu.gptr", "idu.mode", "ifu.gptr", "ifu.mode",
		"lsu.gptr", "lsu.mode", "nest.gptr", "nest.mode", "prv.gptr", "prv.mode.checker", "prv.mode.clock",
		"prv.mode.hanglim", "prv.mode.recovery", "prv.mode.spare", "prv.ring.par", "prv.scan.ctl", "prv.scan.par",
		"rut.gptr", "rut.mode",
	}
	if !slices.Equal(scan, want) {
		t.Errorf("scan groups %v, want %v", scan, want)
	}

	reached := map[string]bool{}
	walkHandles(t, c, func(path, handle string, g *latch.Group, _ reflect.Value) {
		scanHandle := handle == "Scan" || handle == "ScanArray"
		switch {
		case scanHandle && !g.Scan:
			t.Errorf("%s: a scan handle over %s, which is not a scan group", path, g.Name)
		case !scanHandle && g.Scan:
			t.Errorf("%s: a writable handle (%s) to scan group %s", path, handle, g.Name)
		}
		reached[g.Name] = reached[g.Name] || scanHandle
	})
	for _, name := range scan {
		if !reached[name] {
			t.Errorf("scan group %s is behind no scan handle: register it with RegisterIdle", name)
		}
	}
}

// TestHandlesReadOnlyTheirReadSets is the reach half of the per-bit
// never-read proof, which lets p6lite skip clocking a flip of a bit outside
// its group's read set: walking everything a built Core can reach, every
// Scan, ScanArray and Tracked handle returns only bits inside the read set of
// each entry it reaches, and every Reg or Array is over entries whose every
// bit is in the read set.
func TestHandlesReadOnlyTheirReadSets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableNest = true
	c := New(cfg)
	first := map[*latch.Group]int64{} // storage word of entry 0
	var w int64
	for _, g := range c.DB().Groups() {
		first[g] = w
		w += int64(g.Entries)
	}
	walkHandles(t, c, func(path, handle string, g *latch.Group, h reflect.Value) {
		var lo, n int64 // storage words [lo, lo+n)
		var read uint64 // the bits the handle returns of each
		switch handle {
		case "Scan":
			r := h.FieldByName("r")
			lo, n, read = r.FieldByName("w").Int(), 1, r.FieldByName("mask").Uint()
		case "ScanArray":
			a := h.FieldByName("a")
			lo, n, read = a.FieldByName("off").Int(), a.FieldByName("n").Int(), a.FieldByName("mask").Uint()
		case "Tracked":
			lo, read = h.FieldByName("lo").Int(), h.FieldByName("mask").Uint()
			n = h.FieldByName("hi").Int() - lo
		case "Reg":
			lo, n, read = h.FieldByName("w").Int(), 1, h.FieldByName("mask").Uint()
		case "Array":
			lo, n, read = h.FieldByName("off").Int(), h.FieldByName("n").Int(), h.FieldByName("mask").Uint()
		}
		for e := lo - first[g]; e < lo-first[g]+n; e++ {
			if extra := read &^ g.ReadMask(int(e)); extra != 0 {
				t.Errorf("%s: a %s handle reads bits %#x of %s entry %d, outside its read set %#x", path, handle, extra, g.Name, e, g.ReadMask(int(e)))
			}
		}
	})
}
