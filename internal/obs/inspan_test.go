package obs

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInSpanEndsOnEveryPath(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name    string
		fn      func(context.Context, *Span) error
		wantErr error
		panics  bool
	}{
		{"nil", func(context.Context, *Span) error { return nil }, nil, false},
		{"error", func(context.Context, *Span) error { return errBoom }, errBoom, false},
		{"panic", func(context.Context, *Span) error { panic("boom") }, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			tr := NewTracer(reg)
			ctx := WithTracer(context.Background(), tr)
			var err error
			recovered := func() (r interface{}) {
				defer func() { r = recover() }()
				err = InSpan(ctx, "stage", func(ctx context.Context, sp *Span) error {
					sp.SetAttr("k", 1)
					return tc.fn(ctx, sp)
				})
				return nil
			}()
			if (recovered != nil) != tc.panics {
				t.Errorf("recovered %v, want panic %v", recovered, tc.panics)
			}
			if err != tc.wantErr {
				t.Errorf("err = %v, want %v unchanged", err, tc.wantErr)
			}
			roots := tr.Snapshot()
			if len(roots) != 1 || roots[0].Name != "stage" || roots[0].InFlight {
				t.Fatalf("roots = %+v, want one ended stage span", roots)
			}
			if a := roots[0].Attrs; len(a) != 1 || a[0].Key != "k" {
				t.Errorf("attrs = %+v", a)
			}
			if n := StageDuration.In(reg, "stage").Count(); n != 1 {
				t.Errorf("stage histogram count = %d, want 1", n)
			}
		})
	}
}

func TestInSpanNests(t *testing.T) {
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	err := InSpan(ctx, "outer", func(ctx context.Context, _ *Span) error {
		return InSpan(ctx, "inner", func(context.Context, *Span) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := tr.Snapshot()
	if len(roots) != 1 || len(roots[0].Children) != 1 || roots[0].Children[0].Name != "inner" {
		t.Fatalf("roots = %+v, want outer > inner", roots)
	}
}

func TestInSpanWithoutTracer(t *testing.T) {
	ran := false
	err := InSpan(context.Background(), "untracked", func(ctx context.Context, sp *Span) error {
		ran = true
		if sp != nil {
			t.Error("span without tracer should be nil")
		}
		sp.SetAttr("k", 1) // nil-safe
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("InSpan = %v, ran %v", err, ran)
	}
}

// TestInSpanAllocs pins that the scoped form costs no more than the
// StartSpan + End pair it replaced: fn does not escape, so a capturing
// closure stays on the stack.
func TestInSpanAllocs(t *testing.T) {
	ctx := WithTracer(context.Background(), NewTracer(NewRegistry()))
	n := 0
	scoped := testing.AllocsPerRun(200, func() {
		_ = InSpan(ctx, "stage", func(_ context.Context, sp *Span) error {
			n++
			sp.SetAttr("n", 1)
			return nil
		})
	})
	manual := testing.AllocsPerRun(200, func() {
		_, sp := StartSpan(ctx, "stage")
		n++
		sp.SetAttr("n", 1)
		sp.End()
	})
	t.Logf("InSpan %.1f allocs/call, StartSpan+End %.1f", scoped, manual)
	if scoped > manual {
		t.Errorf("InSpan allocates %.1f per call, StartSpan+End %.1f", scoped, manual)
	}
}

// walkMainModule parses every non-test Go file of the main module and
// passes each to visit. Nested modules (their own go.mod, such as the
// benchmark harness) and testdata fixtures are not part of the main
// module's build, so they are skipped.
func walkMainModule(t *testing.T, visit func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		visit(path, fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("checked only %d files under %s; is the module root right?", checked, root)
	}
}

// TestNoStartSpanOutsideObs keeps every span in the main module scoped:
// a non-test file outside this package that names StartSpan could leave
// a span open on some path.
func TestNoStartSpanOutsideObs(t *testing.T) {
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	walkMainModule(t, func(path string, fset *token.FileSet, f *ast.File) {
		if dir, _ := filepath.Abs(filepath.Dir(path)); dir == self {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "StartSpan" {
				t.Errorf("%s: references StartSpan; open spans with obs.InSpan", fset.Position(id.Pos()))
			}
			return true
		})
	})
}

// TestMetricFamiliesOnlyDeclaredInObs keeps families.go the one place a
// flare_* family is spelled: no non-test file registers a series by
// name, and none outside families.go holds a flare_ string literal —
// readers of a scrape name a family by its declaration's Name.
func TestMetricFamiliesOnlyDeclaredInObs(t *testing.T) {
	decls, err := filepath.Abs("families.go")
	if err != nil {
		t.Fatal(err)
	}
	walkMainModule(t, func(path string, fset *token.FileSet, f *ast.File) {
		abs, _ := filepath.Abs(path)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Counter" || sel.Sel.Name == "Histogram") {
					t.Errorf("%s: registers a series by name; resolve it through a family declared in obs", fset.Position(n.Pos()))
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && abs != decls && strings.Contains(n.Value, "flare_") {
					t.Errorf("%s: spells a metric name %s; use the obs family's Name", fset.Position(n.Pos()), n.Value)
				}
			}
			return true
		})
	})
}
