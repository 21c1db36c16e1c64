package proc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
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
type lsuState struct{ ea, pf latch.Reg; perf latch.WriteOnly; n int }
type prvState struct{ fir, abist latch.Array }
func (c *Core) build() {
	c.lsu.ea = db.Register("ea")
	c.lsu.pf = db.Register("pf")
	c.lsu.perf = db.RegisterWriteOnly("perf")
	c.prv.fir = db.RegisterArray("fir")
	c.prv.abist = db.RegisterArray("abist")
}
func (c *Core) cycle() { lsu := &c.lsu; lsu.perf.Add(0, lsu.ea.Get()) }
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
