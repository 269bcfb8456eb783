// Package linttest runs an analyzer over fixture packages and checks
// its diagnostics against `// want "regex"` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest. Fixtures live in a
// GOPATH-shaped tree: <testdata>/src/<importpath>/*.go. Stdlib imports
// resolve through the toolchain's export data; fixture-to-fixture
// imports resolve within the tree.
//
// An expectation normally applies to its own line; `// want+N` and
// `// want-N` shift it N lines down or up, for diagnostics on lines
// that have no room for a trailing comment (closing braces, lines
// already carrying a directive under test).
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flare/internal/lint/analysis"
	"flare/internal/lint/load"
)

// TB is the subset of testing.TB the fixture runner needs. It exists so
// the runner's failure behaviour is itself testable: a test can hand
// RunWith a fake reporter and assert that an unmatched expectation
// fails loudly instead of being silently dropped. A fake's Fatalf must
// not return (panic is fine), matching testing.T semantics.
type TB interface {
	Helper()
	Errorf(format string, args ...interface{})
	Fatalf(format string, args ...interface{})
}

// stdExports lazily resolves export data for the stdlib packages
// fixtures may import. Shared across all Run calls in a test binary.
var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdErr     error
)

// stdPackages is the stdlib surface fixtures are allowed to import.
// Extend the list when a new fixture needs more.
var stdPackages = []string{"context", "time"}

func stdlib(t TB) map[string]string {
	stdOnce.Do(func() {
		stdExports, stdErr = load.ExportData("", stdPackages...)
	})
	if stdErr != nil {
		t.Fatalf("linttest: resolving stdlib export data: %v", stdErr)
	}
	return stdExports
}

// fixtureImporter resolves fixture-tree imports first, stdlib second.
type fixtureImporter struct {
	t       TB
	srcRoot string
	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*fixturePkg
}

type fixturePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, err := im.load(path); err == nil {
		return p.types, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return im.std.Import(path)
}

// load parses and type-checks one fixture package by import path.
func (im *fixtureImporter) load(path string) (*fixturePkg, error) {
	if p, ok := im.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(im.srcRoot, filepath.FromSlash(path))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return nil, os.ErrNotExist
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(im.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("linttest: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: im, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(path, im.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("linttest: type-checking fixture %s: %w", path, err)
	}
	p := &fixturePkg{files: files, types: tpkg, info: info}
	im.cache[path] = p
	return p, nil
}

// Run applies a to each fixture package under testdata/src and verifies
// the diagnostics against // want expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	RunWith(t, testdata, a, pkgs...)
}

// RunWith is Run with an explicit reporter, so the runner's own failure
// modes can be tested.
func RunWith(t TB, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	im := &fixtureImporter{
		t:       t,
		srcRoot: filepath.Join(testdata, "src"),
		fset:    fset,
		std:     load.NewExportImporter(fset, stdlib(t)),
		cache:   make(map[string]*fixturePkg),
	}
	for _, pkg := range pkgs {
		runOne(t, fset, im, a, pkg)
	}
}

func runOne(t TB, fset *token.FileSet, im *fixtureImporter, a *analysis.Analyzer, pkg string) {
	t.Helper()
	fp, err := im.load(pkg)
	if err != nil {
		t.Fatalf("linttest: loading fixture %s: %v", pkg, err)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     fp.files,
		Pkg:       fp.types,
		TypesInfo: fp.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("linttest: %s on %s: %v", a.Name, pkg, err)
	}

	wants := collectWants(t, fset, fp.files)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
		if !consumeWant(wants, key, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	leftoverKeys := make([]string, 0, len(wants))
	for k := range wants {
		leftoverKeys = append(leftoverKeys, k)
	}
	sort.Strings(leftoverKeys)
	for _, k := range leftoverKeys {
		for _, re := range wants[k] {
			t.Errorf("%s (%s): expected diagnostic matching %q, got none", k, pkg, re)
		}
	}
}

// wantRe matches the expectation marker: `want`, optionally followed by
// a signed line offset, followed by at least one space and the
// expectation string literals.
var wantRe = regexp.MustCompile(`^want([+-]\d+)?[ \t]+(.*)$`)

// collectWants extracts `// want "re" "re" ...` expectations keyed by
// "file:line", honouring `want+N` / `want-N` line offsets.
func collectWants(t TB, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := wantRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				line := posn.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s: bad want offset %q: %v", posn, m[1], err)
					}
					line += off
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), line)
				for _, lit := range splitStringLits(t, posn.String(), m[2]) {
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, lit, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// splitStringLits parses a sequence of Go string literals ("..." or
// `...`) separated by spaces.
func splitStringLits(t TB, at, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				t.Fatalf("%s: unterminated want string in %q", at, s)
			}
			var err error
			lit, err = strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want string %q: %v", at, s[:end+1], err)
			}
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want raw string in %q", at, s)
			}
			lit = s[1 : 1+end]
			s = s[end+2:]
		default:
			t.Fatalf("%s: want expectations must be string literals, got %q", at, s)
		}
		out = append(out, lit)
		s = strings.TrimSpace(s)
	}
	return out
}

func consumeWant(wants map[string][]*regexp.Regexp, key, msg string) bool {
	for i, re := range wants[key] {
		if re.MatchString(msg) {
			wants[key] = append(wants[key][:i], wants[key][i+1:]...)
			if len(wants[key]) == 0 {
				delete(wants, key)
			}
			return true
		}
	}
	return false
}
