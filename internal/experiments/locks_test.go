package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptLocks is every sync or sync/atomic value left in the packages a
// clock runs, with the reason it stays. A Clock and everything built on it
// is confined to the goroutine that calls Wait, so nothing there needs a
// lock against another process of the same run; what remains crosses
// clocks or is reached by the host while a run is in flight. DESIGN.md
// "Timing architecture" prints this table and TestLockInventory compares
// the two.
var keptLocks = map[string]string{
	"vclock.totalEvents":           "process-wide event count; clocks of parallel sweep points and of the daemon's workers add to it at once",
	"ioreq.Pipeline.built":         "builds the stage chain once; `vol`'s default pipeline is one value shared by the procs of every clock in the process",
	"model.History.mu":             "an estimator's history outlives a clock: a caller may feed one estimator from runs on several goroutines",
	"model.Estimator.mu":           "as `History.mu`: the feedback state is the caller's, not a clock's",
	"metrics.Registry.mu":          "nil on a clock-bound registry; the daemon's wall-clock registry is updated by workers while `/metricz` reads it",
	"experiments.RunParallel.next": "work-stealing index of the sweep's worker goroutines, each running its own clock",
	"experiments.RunParallel.wg":   "joins those workers",
}

// TestLockInventory fails on any sync.* or atomic.* field, variable or
// parameter under internal/ (the campaign service aside, which is
// goroutines by design) that keptLocks does not excuse, on an excuse
// nothing needs any more, and on a DESIGN.md table that says otherwise.
func TestLockInventory(t *testing.T) {
	found := map[string]token.Position{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "campaign" || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for name, pos := range syncDecls(fset, pkg.Name, f) {
					found[name] = pos
				}
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, pos := range found {
		if keptLocks[name] == "" {
			t.Errorf("%s: %s is a lock or atomic under a clock with no entry in keptLocks", pos, name)
		}
	}
	for name := range keptLocks {
		if _, ok := found[name]; !ok {
			t.Errorf("keptLocks excuses %s, which no longer exists", name)
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for name, why := range keptLocks {
		want = append(want, fmt.Sprintf("| `%s` | %s |", name, why))
	}
	sort.Strings(want)
	const header = "| Kept under a clock | Why it stays |\n|---|---|\n"
	_, rest, ok := strings.Cut(string(design), header)
	if !ok {
		t.Fatalf("DESIGN.md has no table headed %q", header)
	}
	table, _, _ := strings.Cut(rest, "\n\n")
	got := strings.Split(table, "\n")
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("DESIGN.md's lock table and keptLocks differ.\nDESIGN.md:\n%s\nkeptLocks:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// syncDecls names every declaration in f whose type is a sync or
// sync/atomic type: pkg.Type.field, pkg.var, pkg.Func.local or
// pkg.Func.param.
func syncDecls(fset *token.FileSet, pkg string, f *ast.File) map[string]token.Position {
	out := map[string]token.Position{}
	add := func(owner string, id *ast.Ident, typ ast.Expr) {
		if syncType(typ) == "" {
			return
		}
		name := pkg + "."
		if owner != "" {
			name += owner + "."
		}
		out[name+id.Name] = fset.Position(id.Pos())
	}
	walk := func(owner string, root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				for _, id := range x.Names {
					add(owner, id, x.Type)
				}
				if len(x.Names) == 0 && syncType(x.Type) != "" { // embedded
					add(owner, ast.NewIdent(syncType(x.Type)), x.Type)
				}
			case *ast.ValueSpec:
				for i, id := range x.Names {
					typ := x.Type
					if typ == nil && i < len(x.Values) {
						typ = literalType(x.Values[i])
					}
					add(owner, id, typ)
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
					for i, l := range x.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							add(owner, id, literalType(x.Rhs[i]))
						}
					}
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			walk(d.Name.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					walk(ts.Name.Name, ts)
				} else {
					walk("", s)
				}
			}
		}
	}
	return out
}
