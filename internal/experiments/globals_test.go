package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestNoMutablePackageState keeps per-run configuration in RunKnobs: in
// the packages a run's configuration flows through, a package-level var
// may only be a read-only table or an error sentinel. The test fails on
// any such var that is assigned outside its declaration, has its
// address taken, or is of a sync / sync/atomic type — the three shapes
// a process-wide setter needs.
func TestNoMutablePackageState(t *testing.T) {
	for _, dir := range []string{".", "../core", "../metrics", "../cliflags"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			var files []*ast.File
			for _, f := range pkg.Files {
				files = append(files, f)
			}
			for _, v := range mutableGlobals(fset, files) {
				t.Errorf("%s: %s", dir, v)
			}
		}
	}
}

// TestMutableGlobalsChecker mutates a clean package the way the deleted
// setters were written and demands that each mutation is caught — and
// that the shapes the tree legitimately uses are not.
func TestMutableGlobalsChecker(t *testing.T) {
	const clean = `package p
import ("errors"; "sync")
var table = []int{1, 2, 3}
var ErrGone = errors.New("gone")
func read() int { return table[0] + len(ErrGone.Error()) }
func shadow() { table := []int{4}; table[0] = 5; var mu sync.Mutex; mu.Lock() }
`
	cases := []struct {
		name, extra, want string
	}{
		{"clean", "", ""},
		{"setter", "var defaultCritPath bool\nfunc SetCritPath(on bool) { defaultCritPath = on }", "defaultCritPath is assigned"},
		{"element write", "func poke() { table[1] = 9 }", "table is assigned"},
		{"field write", "var cfg struct{ n int }\nfunc set() { cfg.n = 1 }", "cfg is assigned"},
		{"increment", "var calls int\nfunc hit() { calls++ }", "calls is assigned"},
		{"range into", "var last int\nfunc scan() { for _, last = range table {} }", "last is assigned"},
		{"address", "var seen int\nfunc ptr() *int { return &seen }", "seen has its address taken"},
		{"mutex", "var mu sync.Mutex", "mu is of type sync.Mutex"},
		{"atomic value", "var n = atomic.Int64{}", "n is of type atomic.Int64"},
		{"mutex pointer", "var mu = &sync.RWMutex{}", "mu is of type sync.RWMutex"},
	}
	for _, c := range cases {
		fset := token.NewFileSet()
		// Two files, so the mutation also exercises cross-file resolution.
		a, err := parser.ParseFile(fset, "a.go", clean, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parser.ParseFile(fset, "b.go", "package p\nimport (\"sync\"; \"sync/atomic\")\nvar _ sync.Once\nvar _ atomic.Bool\n"+c.extra, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := strings.Join(mutableGlobals(fset, []*ast.File{a, b}), "\n")
		if c.want == "" && got != "" {
			t.Errorf("%s: flagged clean code:\n%s", c.name, got)
		}
		if c.want != "" && !strings.Contains(got, c.want) {
			t.Errorf("%s: want a violation containing %q, got %q", c.name, c.want, got)
		}
	}
}

// mutableGlobals reports every package-level var of the given files
// (one package) that is written outside its declaration, has its address
// taken, or is declared with a sync or sync/atomic type. It works on
// syntax alone: an identifier refers to a package-level var when the
// parser resolved it to that declaration, or left it unresolved (the
// declaration is in another file) and a var of that name exists.
func mutableGlobals(fset *token.FileSet, files []*ast.File) []string {
	specs := map[*ast.ValueSpec]bool{}
	names := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs := s.(*ast.ValueSpec)
				specs[vs] = true
				for i, n := range vs.Names {
					if n.Name == "_" {
						continue
					}
					names[n.Name] = true
					typ := vs.Type
					if typ == nil && i < len(vs.Values) {
						typ = literalType(vs.Values[i])
					}
					if st := syncType(typ); st != "" {
						out = append(out, fmt.Sprintf("%s: package-level var %s is of type %s",
							fset.Position(n.Pos()), n.Name, st))
					}
				}
			}
		}
	}
	// global returns the package-level var an lvalue or operand is
	// rooted at ("" when it is rooted at anything else).
	global := func(e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				if x.Obj != nil {
					if vs, ok := x.Obj.Decl.(*ast.ValueSpec); ok && specs[vs] {
						return x.Name
					}
					return ""
				}
				if names[x.Name] {
					return x.Name
				}
				return ""
			default:
				return ""
			}
		}
	}
	flag := func(pos token.Pos, e ast.Expr, what string) {
		if name := global(e); name != "" {
			out = append(out, fmt.Sprintf("%s: package-level var %s %s", fset.Position(pos), name, what))
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok != token.DEFINE {
						for _, l := range s.Lhs {
							flag(s.Pos(), l, "is assigned outside its declaration")
						}
					}
				case *ast.IncDecStmt:
					flag(s.Pos(), s.X, "is assigned outside its declaration")
				case *ast.RangeStmt:
					if s.Tok == token.ASSIGN {
						for _, l := range []ast.Expr{s.Key, s.Value} {
							if l != nil {
								flag(s.Pos(), l, "is assigned outside its declaration")
							}
						}
					}
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						flag(s.Pos(), s.X, "has its address taken")
					}
				}
				return true
			})
		}
	}
	sort.Strings(out)
	return out
}

// literalType returns the type expression of a composite literal,
// through & — what an untyped `var x = sync.Mutex{}` declares.
func literalType(e ast.Expr) ast.Expr {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if cl, ok := e.(*ast.CompositeLit); ok {
		return cl.Type
	}
	return nil
}

// syncType names typ when it is (a pointer to) a sync or sync/atomic
// type, and returns "" otherwise.
func syncType(typ ast.Expr) string {
	if st, ok := typ.(*ast.StarExpr); ok {
		typ = st.X
	}
	sel, ok := typ.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sync" || pkg.Name == "atomic") {
		return pkg.Name + "." + sel.Sel.Name
	}
	return ""
}
