// Package ctxflow enforces context propagation in FLARE's
// concurrency-critical packages (server, cluster, loadgen, obs). A
// function that receives a context.Context owns a cancellation scope;
// three ways of dropping it are flagged:
//
//   - minting a fresh root with context.Background() or context.TODO()
//     while a ctx parameter is in scope — the new subtree outlives the
//     caller's deadline and cancellation;
//
//   - passing Background/TODO into a retry policy
//     (flare/internal/retry.Bound.Do): retry loops are exactly where
//     an RPC or store call must stay cancellable, or a dead follower
//     keeps a reconnect loop spinning forever;
//
//   - sleeping with time.Sleep while holding a ctx — Sleep cannot be
//     interrupted; a timer select on ctx.Done() can;
//
// plus the silent variant: accepting a ctx, never consulting it, and
// then blocking (per the summary engine). That signature is a promise
// of cancellability the body does not keep.
//
// Every finding gates: there is no suppression directive. A detached
// root whose lifetime really is the process belongs in a function that
// takes no ctx.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"flare/internal/lint/analysis"
	"flare/internal/lint/callgraph"
	"flare/internal/lint/summary"
)

// MonitoredPackages are the package base names the analyzer applies to.
var MonitoredPackages = map[string]bool{
	"server":  true,
	"cluster": true,
	"loadgen": true,
	"obs":     true,
	"ctxpkg":  true, // linttest fixture
}

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag dropped context propagation: fresh context.Background() roots, " +
		"uncancellable sleeps, and retry calls that discard the caller's ctx",
	URL: "https://github.com/flare-project/flare/blob/main/DESIGN.md#ctxflow",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !MonitoredPackages[path.Base(pass.Pkg.Path())] {
		return nil, nil
	}
	set := summary.For(pass)
	for _, n := range set.Graph.Nodes() {
		checkFunc(pass, set, n.Decl)
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, set *summary.Set, decl *ast.FuncDecl) {
	ctxParam := contextParam(pass, decl)
	fired := false
	ctxUsed := false

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ctxParam != nil && pass.TypesInfo.Uses[id] == ctxParam {
			ctxUsed = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callgraph.Callee(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case isFreshRoot(fn):
			if ctxParam != nil {
				fired = true
				pass.ReportRangef(call, "context.%s() inside a function that already receives ctx: "+
					"the fresh root escapes the caller's deadline and cancellation — pass ctx through",
					fn.Name())
			}
		case isRetryDo(fn):
			if root := freshRootArg(pass, call); root != nil {
				fired = true
				pass.ReportRangef(root, "retry path runs on a fresh context root: a cancelled caller "+
					"cannot stop the retries — thread the surrounding ctx into %s.Do", recvName(fn))
			}
		case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
			if ctxParam != nil {
				fired = true
				pass.ReportRangef(call, "time.Sleep ignores ctx cancellation: "+
					"select on a timer and ctx.Done() instead")
			}
		}
		return true
	})

	// The silent variant: a ctx parameter that is never consulted in a
	// function that blocks. (Skip when a specific finding already
	// explains what went wrong, and skip blank `_` params — the
	// signature is honest about ignoring it.)
	if ctxParam != nil && !ctxUsed && !fired && ctxParam.Name() != "_" {
		if s := set.Of(funcOf(pass, decl)); s != nil && len(s.Blocks) > 0 {
			b := s.Blocks[0]
			what := b.What
			if b.Via != nil {
				what += " via " + b.Via.Name()
			}
			pass.Report(analysis.Diagnostic{
				Pos: ctxParam.Pos(), End: ctxParam.Pos() + token.Pos(len(ctxParam.Name())),
				Analyzer: pass.Analyzer.Name,
				Message: "ctx accepted but never consulted while the function blocks (" + what +
					"): honour cancellation or drop the parameter",
				Related: []analysis.RelatedInformation{
					{Pos: b.Pos, End: b.End, Message: "blocks here"},
				},
			})
		}
	}
}

// contextParam returns the first parameter of type context.Context.
func contextParam(pass *analysis.Pass, decl *ast.FuncDecl) *types.Var {
	fn := funcOf(pass, decl)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isContextType(p.Type()) {
			return p
		}
	}
	return nil
}

func funcOf(pass *analysis.Pass, decl *ast.FuncDecl) *types.Func {
	fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	return fn
}

func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

func isFreshRoot(fn *types.Func) bool {
	return fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO")
}

// isRetryDo matches (*flare/internal/retry.Bound).Do and any future
// sibling with the same shape.
func isRetryDo(fn *types.Func) bool {
	return fn.Pkg().Path() == "flare/internal/retry" && fn.Name() == "Do"
}

// freshRootArg returns the argument expression that is a direct
// context.Background()/TODO() call, or nil.
func freshRootArg(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	for _, arg := range call.Args {
		inner, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			continue
		}
		if fn := callgraph.Callee(pass, inner); fn != nil && fn.Pkg() != nil && isFreshRoot(fn) {
			return arg
		}
	}
	return nil
}

func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return fn.Name()
}
