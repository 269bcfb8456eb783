// Package load type-checks the packages of a Go module for analysis,
// without importing golang.org/x/tools. It shells out to `go list
// -export -deps -json` so the toolchain does build-constraint
// filtering and dependency compilation, then parses only the target
// packages' sources and resolves their imports through the compiler
// export data the toolchain just produced. This is the same division
// of labour as x/tools' unitchecker: the go command owns loading, the
// analyzer owns syntax and types of one package at a time.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns in the module rooted
// at dir. Test files are not loaded: flarelint gates production
// sources; _test.go files may use time.Now freely.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := goList(dir, append([]string{"-export", "-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(all)) // import path -> export file
	for _, p := range all {
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			if exp, ok := exports[to]; ok {
				exports[from] = exp
			} else if other, ok := findExport(all, to); ok {
				exports[from] = other
			}
		}
	}

	fset := token.NewFileSet()
	imp := NewExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		p, err := check(fset, imp, t.ImportPath, t.Dir, absFiles(t.Dir, t.GoFiles))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

func findExport(all []listPkg, path string) (string, bool) {
	for _, p := range all {
		if p.ImportPath == path && p.Export != "" {
			return p.Export, true
		}
	}
	return "", false
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}

// check parses and type-checks one package.
func check(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: parsing %s: %w", name, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      fset,
		Files:     syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// NewExportImporter returns a types.Importer resolving import paths via
// compiler export data files (as produced by `go list -export`).
func NewExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(exp)
	})
}

// ExportData returns the import-path→export-file map for pkgs and all
// their dependencies, resolved by the toolchain from dir (any directory
// inside a module). linttest uses this to give fixture packages real
// stdlib types without type-checking the standard library from source.
func ExportData(dir string, pkgs ...string) (map[string]string, error) {
	all, err := goList(dir, append([]string{"-export", "-deps"}, pkgs...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(all))
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// goList runs `go list -json` with args in dir and decodes the stream.
func goList(dir string, args []string) ([]listPkg, error) {
	fields := "Dir,ImportPath,Export,Standard,GoFiles,ImportMap,Error"
	cmd := exec.Command("go", append([]string{"list", "-json=" + fields}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s",
			strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
