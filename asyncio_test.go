// Facade tests: exercise the public API surface end to end, the way a
// downstream user would.
package asyncio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
	"time"

	"asyncio"
)

// TestFacadeExportsAreUsed keeps the facade to its measured traffic:
// every name asyncio.go exports is mentioned as asyncio.<Name> by an
// example or by a test in this file. A re-export nothing uses is an API
// promise nothing checks; reach it through the internal package instead.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	users, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(users) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	used := map[string]bool{}
	for _, path := range append(users, "asyncio_test.go") {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "asyncio" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	facade, err := parser.ParseFile(fset, "asyncio.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := 0
	check := func(id *ast.Ident) {
		if !id.IsExported() {
			return
		}
		exported++
		if !used[id.Name] {
			t.Errorf("asyncio.%s is exported and no example or facade test uses it", id.Name)
		}
	}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				check(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					check(spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						check(id)
					}
				}
			}
		}
	}
	if exported == 0 {
		t.Fatal("asyncio.go exports nothing: the parse went wrong")
	}
}

func TestFacadeStorageRoundtrip(t *testing.T) {
	store := asyncio.NewMemStore()
	f, err := asyncio.CreateFile(store)
	if err != nil {
		t.Fatal(err)
	}
	space, err := asyncio.NewSimpleSpace(100)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Root().CreateDataset(nil, "x", asyncio.F64, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i)
	}
	if err := ds.Write(nil, nil, asyncio.Float64sToBytes(in)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	f2, err := asyncio.OpenFile(store)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := f2.Root().OpenDataset(nil, "x")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 800)
	if err := ds2.Read(nil, nil, out); err != nil {
		t.Fatal(err)
	}
	got := asyncio.BytesToFloat64s(out)
	if got[42] != 42 {
		t.Fatalf("roundtrip[42] = %v", got[42])
	}
}

func TestFacadeAsyncConnector(t *testing.T) {
	clk := asyncio.NewClock()
	eng := asyncio.NewTaskEngine(clk)
	copied := int64(0)
	conn := asyncio.NewAsyncConnector(eng, "user", asyncio.AsyncOptions{
		Copy: asyncio.CopyFunc(func(p *asyncio.Proc, n int64) {
			copied += n
			if p != nil {
				p.Sleep(time.Millisecond)
			}
		}),
		Materialize: true,
	})
	f, err := conn.Create(asyncio.Props{}, asyncio.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	clk.Go("user", func(p *asyncio.Proc) {
		defer close(done)
		pr := asyncio.Props{Proc: p, Set: asyncio.NewEventSet()}
		space, _ := asyncio.NewSimpleSpace(64)
		ds, err := f.Root().CreateDataset(pr, "d", asyncio.U8, space, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := ds.Write(pr, nil, make([]byte, 64)); err != nil {
			t.Error(err)
		}
		if err := f.Close(pr); err != nil {
			t.Error(err)
		}
		conn.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	<-done
	if copied != 64 {
		t.Fatalf("copy model saw %d bytes, want 64", copied)
	}
}

func TestFacadeRunApp(t *testing.T) {
	clk := asyncio.NewClock()
	sys := asyncio.Summit(clk, 1)
	rep, err := asyncio.RunApp(sys, asyncio.RunConfig{
		Workload:   "facade-demo",
		Iterations: 4,
		Mode:       asyncio.Adaptive,
	}, asyncio.Hooks{
		Compute: func(ctx *asyncio.RankCtx, iter int) error {
			ctx.P.Sleep(10 * time.Second)
			return nil
		},
		IO: func(ctx *asyncio.RankCtx, iter int, mode asyncio.IOMode) (int64, error) {
			if mode == asyncio.Sync {
				ctx.Sys.PFS.WriteData(ctx.P, 32<<20)
			} else {
				ctx.Sys.MemcpyModel(ctx.Rank)(ctx.P, 32<<20)
			}
			return 32 << 20, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Run.Records) != 4 {
		t.Fatalf("records = %d", len(rep.Run.Records))
	}
	if rep.Run.System != "summit" {
		t.Fatalf("system = %s", rep.Run.System)
	}
}

func TestFacadeSystemsAndScales(t *testing.T) {
	clk := asyncio.NewClock()
	cori := asyncio.CoriHaswell(clk, 2, asyncio.WithContention(1, 2))
	if cori.Size() != 64 {
		t.Fatalf("size = %d", cori.Size())
	}
	if f := cori.PFS.ContentionFactor(); f <= 0 || f > 1 {
		t.Fatalf("contention = %v", f)
	}
	if len(asyncio.ReducedScale().SummitNodes) == 0 {
		t.Fatal("reduced scale empty")
	}
	full := asyncio.FullScale()
	if full.SummitNodes[len(full.SummitNodes)-1] != 2048 {
		t.Fatalf("full scale must reach the paper's 2048 Summit nodes, got %v", full.SummitNodes)
	}
	if len(asyncio.Experiments()) < 19 {
		t.Fatalf("registry too small: %d", len(asyncio.Experiments()))
	}
}

func TestFacadeEstimator(t *testing.T) {
	est := asyncio.NewEstimator()
	for i := 0; i < 3; i++ {
		est.ObserveComp(10 * time.Second)
		est.ObserveSyncIO(1<<30, 64, 2*time.Second)
		est.ObserveOverhead(1<<30, 64, 200*time.Millisecond)
	}
	ee, ok := est.EstimateEpoch(1<<30, 64)
	if !ok {
		t.Fatal("estimator not ready")
	}
	if ee.Better() != asyncio.Async {
		t.Fatalf("Better = %v", ee.Better())
	}
}
