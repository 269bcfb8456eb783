// Package callgraph builds the package-level static call graph the
// summary engine runs over: one node per function or method declared
// with a body in the analyzed package, one edge per direct call between
// them. Calls into other packages are deliberately absent — they are
// leaf facts the summary layer classifies from signatures and import
// paths alone — which keeps the graph buildable from a single
// type-checked package, exactly what the loader hands us.
//
// Function literals do not get nodes of their own: a literal's body is
// attributed to the function that lexically contains it. That is a
// deliberate over-approximation (a stored callback may never run) that
// errs on the side of recording effects, which is the right polarity
// for the blocking summary: a summary that claims too much produces a
// finding a human reviews, a summary that claims too little silently
// waives an invariant.
package callgraph

import (
	"go/ast"
	"go/types"

	"flare/internal/lint/analysis"
)

// Node is one declared function or method.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl

	// Calls lists the in-package functions this one calls directly
	// (including from nested function literals), deduplicated, in
	// first-call source order.
	Calls []*Node
}

// Graph is the call graph of one package.
type Graph struct {
	nodes map[*types.Func]*Node
	order []*Node // declaration order across files
}

// Build constructs the graph for the pass's package.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{nodes: make(map[*types.Func]*Node)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Func: fn, Decl: fd}
			g.nodes[fn] = n
			g.order = append(g.order, n)
		}
	}
	for _, n := range g.order {
		seen := make(map[*Node]bool)
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := Callee(pass, call)
			if callee == nil {
				return true
			}
			if target, ok := g.nodes[callee]; ok && !seen[target] {
				seen[target] = true
				n.Calls = append(n.Calls, target)
			}
			return true
		})
	}
	return g
}

// Callee resolves the statically-called function of a call expression,
// or nil for indirect calls (function values, interface methods whose
// concrete target is unknown).
func Callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
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

// Nodes returns every node in declaration order.
func (g *Graph) Nodes() []*Node { return g.order }

// SCCs returns the strongly-connected components of the graph in
// bottom-up order: every component appears after all components it
// calls into, so a single pass over the result can fold callee
// summaries into callers, with mutual recursion handled by unioning
// facts across each component. (Tarjan's algorithm emits components in
// exactly this reverse-topological order of the condensation.)
func (g *Graph) SCCs() [][]*Node {
	t := &tarjan{
		index:   make(map[*Node]int),
		lowlink: make(map[*Node]int),
		onstack: make(map[*Node]bool),
	}
	for _, n := range g.order {
		if _, visited := t.index[n]; !visited {
			t.strongconnect(n)
		}
	}
	return t.sccs
}

type tarjan struct {
	next    int
	index   map[*Node]int
	lowlink map[*Node]int
	onstack map[*Node]bool
	stack   []*Node
	sccs    [][]*Node
}

func (t *tarjan) strongconnect(n *Node) {
	t.index[n] = t.next
	t.lowlink[n] = t.next
	t.next++
	t.stack = append(t.stack, n)
	t.onstack[n] = true

	for _, m := range n.Calls {
		if _, visited := t.index[m]; !visited {
			t.strongconnect(m)
			if t.lowlink[m] < t.lowlink[n] {
				t.lowlink[n] = t.lowlink[m]
			}
		} else if t.onstack[m] && t.index[m] < t.lowlink[n] {
			t.lowlink[n] = t.index[m]
		}
	}

	if t.lowlink[n] == t.index[n] {
		var scc []*Node
		for {
			top := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.onstack[top] = false
			scc = append(scc, top)
			if top == n {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}
