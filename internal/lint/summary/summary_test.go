package summary_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"runtime"
	"sync"
	"testing"

	"flare/internal/lint/analysis"
	"flare/internal/lint/load"
	"flare/internal/lint/summary"
)

func checkSrc(t *testing.T, src string) *analysis.Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing test source: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: stdImporter(t, fset), Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking test source: %v", err)
	}
	return &analysis.Pass{
		Analyzer:  &analysis.Analyzer{Name: "test"},
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
	}
}

var (
	stdOnce sync.Once
	stdMap  map[string]string
	stdErr  error
)

func stdImporter(t *testing.T, fset *token.FileSet) types.Importer {
	t.Helper()
	stdOnce.Do(func() {
		stdMap, stdErr = load.ExportData("", "time")
	})
	if stdErr != nil {
		t.Fatalf("resolving stdlib export data: %v", stdErr)
	}
	return load.NewExportImporter(fset, stdMap)
}

const src = `package p

import "time"

func sendOn(ch chan int) { ch <- 1 }

func wrapsSend(ch chan int) { sendOn(ch) }

func sleeps() { time.Sleep(time.Second) }

func spawns(ch chan int) {
	go func() { <-ch }()
}

func rangesChan(ch chan int) {
	for range ch {
	}
}

func mutualA(n int) {
	if n > 0 {
		mutualB(n - 1)
	}
}

func mutualB(n int) {
	time.Sleep(time.Millisecond)
	mutualA(n)
}
`

func summaries(t *testing.T) (*analysis.Pass, *summary.Set) {
	t.Helper()
	pass := checkSrc(t, src)
	return pass, summary.For(pass)
}

func funcByName(t *testing.T, set *summary.Set, name string) *summary.FuncSummary {
	t.Helper()
	for _, n := range set.Graph.Nodes() {
		if n.Func.Name() == name {
			s := set.Of(n.Func)
			if s == nil {
				t.Fatalf("no summary for %s", name)
			}
			return s
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func blocksWith(s *summary.FuncSummary, what string) *summary.BlockSite {
	for i := range s.Blocks {
		if s.Blocks[i].What == what {
			return &s.Blocks[i]
		}
	}
	return nil
}

func TestBlocking(t *testing.T) {
	_, set := summaries(t)

	if b := blocksWith(funcByName(t, set, "sendOn"), "channel send"); b == nil || b.Via != nil {
		t.Errorf("sendOn: want direct channel-send block, got %+v", funcByName(t, set, "sendOn").Blocks)
	}
	if b := blocksWith(funcByName(t, set, "wrapsSend"), "channel send"); b == nil || b.Via == nil || b.Via.Name() != "sendOn" {
		t.Errorf("wrapsSend: want channel-send block via sendOn, got %+v", funcByName(t, set, "wrapsSend").Blocks)
	}
	if blocksWith(funcByName(t, set, "sleeps"), "time.Sleep") == nil {
		t.Error("sleeps: time.Sleep not recorded as blocking")
	}
	if blocksWith(funcByName(t, set, "rangesChan"), "channel range") == nil {
		t.Error("rangesChan: channel range not recorded as blocking")
	}
	if got := funcByName(t, set, "spawns").Blocks; len(got) != 0 {
		t.Errorf("spawns: go-literal receive leaked into caller blocks: %+v", got)
	}
}

func TestMutualRecursionUnion(t *testing.T) {
	_, set := summaries(t)

	// mutualB sleeps; the SCC union must surface that in mutualA too.
	for _, name := range []string{"mutualA", "mutualB"} {
		if blocksWith(funcByName(t, set, name), "time.Sleep") == nil {
			t.Errorf("%s: time.Sleep not visible through the recursion SCC", name)
		}
	}
}
