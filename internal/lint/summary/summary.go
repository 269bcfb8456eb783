// Package summary computes the one interprocedural fact ctxflow needs:
// whether a function can block (channel operations, time.Sleep, net
// I/O, store/metricdb fsync paths), and where. Facts are computed
// bottom-up over the SCC condensation of the package call graph (see
// callgraph.SCCs), so a caller's summary folds in everything its
// in-package callees do, with mutual recursion handled by unioning
// facts across each component.
//
// Everything here is an over-approximation by design: a summary that
// claims too much produces a finding a human reviews; one that claims
// too little silently waives an invariant.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"flare/internal/lint/analysis"
	"flare/internal/lint/callgraph"
)

// maxBlockSites bounds the blocking-site list per function: one is
// enough to prove the fact, a handful keeps diagnostics informative.
const maxBlockSites = 8

// BlockSite is one reason a function can block. Pos/End locate the
// root operation (possibly in a callee); Via is the immediate
// in-package callee the block is reached through, nil when direct.
type BlockSite struct {
	Pos, End token.Pos
	What     string // "channel send", "time.Sleep", "net call", ...
	Via      *types.Func
}

// FuncSummary is the transitive effect summary of one function.
type FuncSummary struct {
	Func *types.Func
	Decl *ast.FuncDecl

	// Blocks lists why the function can block, bounded at
	// maxBlockSites. Operations inside go-launched literals are
	// excluded: they block the spawned goroutine, not the caller.
	Blocks []BlockSite

	// calls lists the in-package callees invoked synchronously (not
	// from a go-launched literal), deduplicated, in source order.
	calls []*types.Func
}

// Set holds the summaries of one package.
type Set struct {
	Graph  *callgraph.Graph
	byFunc map[*types.Func]*FuncSummary
}

// Of returns the summary for fn, or nil if fn is not declared with a
// body in this package.
func (s *Set) Of(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	return s.byFunc[fn]
}

// For computes the summary set of the pass's package.
func For(pass *analysis.Pass) *Set {
	g := callgraph.Build(pass)
	set := &Set{Graph: g, byFunc: make(map[*types.Func]*FuncSummary, len(g.Nodes()))}
	for _, n := range g.Nodes() {
		set.byFunc[n.Func] = direct(pass, n)
	}
	for _, scc := range g.SCCs() {
		inSCC := make(map[*types.Func]bool, len(scc))
		for _, n := range scc {
			inSCC[n.Func] = true
		}
		// Fold already-finalized (out-of-component) callee summaries
		// into each member.
		for _, n := range scc {
			s := set.byFunc[n.Func]
			for _, fn := range s.calls {
				// Bodiless callees (interface methods declared in this
				// package) have no summary of their own.
				if cs := set.byFunc[fn]; cs != nil && !inSCC[fn] {
					s.mergeCallee(cs, fn)
				}
			}
		}
		// Mutual recursion: every member of a multi-node component
		// reaches every other member, so union the component's facts
		// across all members.
		if len(scc) > 1 {
			u := &FuncSummary{}
			for _, n := range scc {
				u.mergeCallee(set.byFunc[n.Func], n.Func)
			}
			for _, n := range scc {
				set.byFunc[n.Func].mergeCallee(u, n.Func)
			}
		}
	}
	return set
}

// mergeCallee folds the facts of callee c, called as fn, into s.
func (s *FuncSummary) mergeCallee(c *FuncSummary, fn *types.Func) {
	for _, b := range c.Blocks {
		via := b.Via
		if via == nil {
			via = fn
		}
		s.addBlock(BlockSite{Pos: b.Pos, End: b.End, What: b.What, Via: via})
	}
}

func (s *FuncSummary) addBlock(b BlockSite) {
	if len(s.Blocks) >= maxBlockSites {
		return
	}
	for _, have := range s.Blocks {
		if have.Pos == b.Pos && have.What == b.What {
			return
		}
	}
	s.Blocks = append(s.Blocks, b)
}

// direct extracts the intra-function facts of one declaration.
func direct(pass *analysis.Pass, n *callgraph.Node) *FuncSummary {
	s := &FuncSummary{Func: n.Func, Decl: n.Decl}

	// Literals launched by `go` run concurrently: their blocking
	// belongs to the spawned goroutine, not this function.
	goLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if g, ok := m.(*ast.GoStmt); ok {
			if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits[fl] = true
			}
		}
		return true
	})

	var stack []ast.Node
	inGo := 0
	seenCall := make(map[*types.Func]bool)
	selComm := make(map[ast.Node]bool)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if m == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if fl, ok := top.(*ast.FuncLit); ok && goLits[fl] {
				inGo--
			}
			return true
		}
		stack = append(stack, m)
		if fl, ok := m.(*ast.FuncLit); ok && goLits[fl] {
			inGo++
		}
		if sel, ok := m.(*ast.SelectStmt); ok {
			markSelectComms(sel, selComm)
		}
		if inGo > 0 || goLaunched(stack, m) {
			return true
		}
		if what, at, ok := blockingOp(pass, m); ok && !selComm[m] {
			s.addBlock(BlockSite{Pos: at.Pos(), End: at.End(), What: what})
		}
		// In-package callee: remember the edge for bottom-up propagation.
		if call, ok := m.(*ast.CallExpr); ok {
			if fn := callgraph.Callee(pass, call); fn != nil && fn.Pkg() == pass.Pkg && !seenCall[fn] {
				seenCall[fn] = true
				s.calls = append(s.calls, fn)
			}
		}
		return true
	})
	return s
}

// goLaunched reports whether m is the call expression of a go
// statement, given the walker's node stack (m on top, parent beneath).
// Such a call runs on the new goroutine, not in the enclosing frame —
// but its arguments, nested deeper in the tree, still evaluate
// synchronously and are not exempted by this check.
func goLaunched(stack []ast.Node, m ast.Node) bool {
	call, ok := m.(*ast.CallExpr)
	if !ok || len(stack) < 2 {
		return false
	}
	g, ok := stack[len(stack)-2].(*ast.GoStmt)
	return ok && g.Call == call
}

// markSelectComms records the channel operations appearing as sel's
// comm clauses into skip. Those sends and receives block (or not) as
// part of the select itself — with a default they never block at all —
// so they are not reported on their own.
func markSelectComms(sel *ast.SelectStmt, skip map[ast.Node]bool) {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				skip[n] = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					skip[n] = true
				}
			}
			return true
		})
	}
}

// blockingOp classifies one AST node as a potentially blocking
// operation: channel sends/receives/ranges, default-less selects, and
// calls into the blocking catalogue (time.Sleep, net dialing and
// round-trips, fsync, subprocess waits, WaitGroup.Wait, store/metricdb
// journal paths). at is the node to report (usually n itself).
// sync.Cond.Wait is deliberately excluded: it releases its mutex while
// parked and wakes on the owner's own Signal/Broadcast.
func blockingOp(pass *analysis.Pass, n ast.Node) (what string, at ast.Node, ok bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", n, true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", n, true
		}
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			return "select", n, true
		}
	case *ast.RangeStmt:
		if isChanExpr(pass, n.X) {
			return "channel range", n.X, true
		}
	case *ast.CallExpr:
		return callBlocks(pass, n)
	}
	return "", nil, false
}

// callBlocks classifies a call against the blocking catalogue.
func callBlocks(pass *analysis.Pass, call *ast.CallExpr) (string, ast.Node, bool) {
	fn := callgraph.Callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", nil, false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", call, true
		}
	case "net", "net/http", "net/rpc":
		return fn.Pkg().Path() + " call", call, true
	case "os":
		if fn.Name() == "Sync" && isMethod(fn) {
			return "fsync", call, true
		}
	case "os/exec":
		switch fn.Name() {
		case "Run", "Wait", "Output", "CombinedOutput":
			return "subprocess wait", call, true
		}
	case "sync":
		if fn.Name() == "Wait" && isMethod(fn) && recvNamed(fn) == "WaitGroup" {
			return "WaitGroup.Wait", call, true
		}
	case "flare/internal/store", "flare/internal/metricdb":
		if !cheapStoreCalls[fn.Name()] {
			return "store call (fsync path)", call, true
		}
	}
	return "", nil, false
}

// cheapStoreCalls are store/metricdb entry points that never touch the
// journal or fsync.
var cheapStoreCalls = map[string]bool{
	"Len": true, "Name": true, "Columns": true, "Stats": true, "String": true,
	"Tables": true, "Rows": true, "Schema": true,
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// recvNamed returns the named type of fn's receiver (pointer-stripped).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChanExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
