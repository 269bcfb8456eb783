// Package detrand forbids nondeterminism sources in FLARE's
// determinism-critical packages.
//
// The pipeline's golden tests (byte-identical output for any worker
// count, replay under fault injection) only mean something if every
// random draw and every ordering decision is a pure function of (spec,
// seed). detrand machine-checks the inputs side: in the packages that
// feed golden output, wall-clock reads (time.Now, time.Since) and the
// process-global math/rand generator are forbidden, and explicitly
// seeded generators must not derive their seed from the clock.
//
// Genuine exceptions (none exist today) are allowlisted per line with
// the generic
//
//	//lint:exempt detrand <reason>
//
// where the reason is mandatory — it is the audit trail for why the
// nondeterminism cannot leak into golden output.
package detrand

import (
	"go/ast"
	"go/types"
	"path"

	"flare/internal/lint/analysis"
	"flare/internal/lint/summary"
)

// CriticalPackages are the package base names (last import-path
// element) the analyzer applies to. They are exactly the packages whose
// output PRs 2–4 pinned with golden tests.
var CriticalPackages = map[string]bool{
	"kmeans":   true,
	"pca":      true,
	"linalg":   true,
	"hcluster": true,
	"replayer": true,
	"dcsim":    true,
	"fault":    true,
	"scenario": true,
	"profiler": true,
	"core":     true,
}

var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	URL:  "https://github.com/flare-project/flare/blob/main/DESIGN.md#detrand",
	Doc: "forbid time.Now/time.Since, the global math/rand generator, and " +
		"clock-derived seeds in determinism-critical packages",
	Run: run,
}

// randConstructors are the math/rand and math/rand/v2 package-level
// functions that are allowed because they build an explicitly seeded
// generator; their seed arguments are still checked for clock taint.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !CriticalPackages[path.Base(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					if !pass.Exempted(call.Pos()) {
						pass.Reportf(call.Pos(),
							"time.%s in determinism-critical package %s: derive timing from the simulation clock or seed, or annotate //lint:exempt detrand <reason>",
							fn.Name(), pass.Pkg.Path())
					}
				}
			case "math/rand", "math/rand/v2":
				if isMethod(fn) {
					return true // draws from an explicitly seeded *rand.Rand
				}
				if !randConstructors[fn.Name()] {
					if !pass.Exempted(call.Pos()) {
						pass.Reportf(call.Pos(),
							"global %s.%s in determinism-critical package %s: use a *rand.Rand derived from a parameter or struct seed, or annotate //lint:exempt detrand <reason>",
							fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
					}
					return true
				}
				if tainted, site := clockTainted(pass, call); tainted {
					if !pass.Exempted(call.Pos()) {
						pass.Reportf(site.Pos(),
							"%s.%s seeded from the clock: seeds must derive from a parameter or struct seed, or annotate //lint:exempt detrand <reason>",
							fn.Pkg().Path(), fn.Name())
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// calleeFunc resolves the called function, or nil for indirect calls.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// clockTainted reports whether any argument of the seeded-generator
// construction transitively calls into package time — time.Now().
// UnixNano() being the canonical offender — either literally in the
// argument expression or through an in-package helper whose summary
// says it reads the clock. The helper case is what the summary engine
// buys: an exempted clock read is exempt at its own site, but a seed
// derived from it is still a seed derived from the clock.
func clockTainted(pass *analysis.Pass, call *ast.CallExpr) (bool, ast.Node) {
	for _, arg := range call.Args {
		var bad ast.Node
		ast.Inspect(arg, func(n ast.Node) bool {
			if bad != nil {
				return false
			}
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, inner)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				bad = inner
				return false
			}
			if fn.Pkg() == pass.Pkg {
				if s := summary.For(pass).Of(fn); s != nil && s.CallsClock {
					bad = inner
					return false
				}
			}
			return true
		})
		if bad != nil {
			return true, bad
		}
	}
	return false, nil
}
