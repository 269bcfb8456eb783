// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough Analyzer/Pass/Diagnostic
// surface for FLARE's invariant checkers to be written in the upstream
// idiom. The API mirrors x/tools deliberately — if the sandbox ever
// gains the real module, each analyzer ports by changing one import —
// but the implementation is pure stdlib so the main flare module keeps
// an empty require block.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags
	// (lowercase identifier, e.g. "ctxflow").
	Name string

	// Doc is the help text: first line is a one-sentence summary.
	Doc string

	// URL documents the invariant the analyzer enforces. It rides
	// along in -json output and becomes the SARIF rule helpUri so CI
	// annotations link back to the rationale.
	URL string

	// Run applies the analyzer to one package. The result value
	// mirrors x/tools' signature; FLARE's driver ignores it.
	Run func(*Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install this.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position. End, when valid,
// closes the half-open span [Pos, End) the finding covers — SARIF and
// editor annotations want the full range, not just a point.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // token.NoPos when the finding is a point
	Message  string
	Analyzer string // filled by the driver helpers
	Related  []RelatedInformation
}

// RelatedInformation is a secondary location attached to a diagnostic —
// ctxflow uses it to point at where a function that ignores its ctx
// blocks.
type RelatedInformation struct {
	Pos     token.Pos
	End     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ReportRangef reports a formatted diagnostic spanning node n.
func (p *Pass) ReportRangef(n ast.Node, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: n.Pos(), End: n.End(),
		Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}
