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
	"strings"
	"unicode"
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

	// Run applies the analyzer to one package. It may return a
	// result value for driver-level cross-package checks (see
	// metricname's duplicate-registration pass).
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

	// comments caches per-file comment maps for directive lookup.
	comments map[*ast.File]ast.CommentMap
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

// ExemptDirective is the generic suppression directive name: a line
// (or the line above it) carrying
//
//	//lint:exempt <analyzer> <reason>
//
// silences that analyzer's findings on the annotated line. Both fields
// are mandatory: the analyzer name scopes the suppression so one
// directive cannot blanket-silence unrelated checks, and the reason is
// the audit trail that keeps drive-by suppressions out of review.
const ExemptDirective = "exempt"

// Exempted reports whether the line containing pos — or the line
// immediately above it — carries a generic exempt directive naming this
// pass's analyzer, with a reason.
func (p *Pass) Exempted(pos token.Pos) bool {
	posn := p.Fset.Position(pos)
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename != posn.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				cl := p.Fset.Position(c.Pos()).Line
				if cl != posn.Line && cl != posn.Line-1 {
					continue
				}
				if name, reason, ok := ParseExempt(c.Text); ok && name == p.Analyzer.Name && reason != "" {
					return true
				}
			}
		}
	}
	return false
}

// ParseExempt parses `//lint:exempt <analyzer> <reason>` comment text,
// returning the named analyzer and the (possibly empty) reason. ok is
// true when the comment is an exempt directive at all — callers must
// still require a non-empty reason before honouring it.
func ParseExempt(text string) (analyzer, reason string, ok bool) {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	rest, found := strings.CutPrefix(text, "lint:"+ExemptDirective)
	if !found || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false // e.g. lint:exempted — a different word
	}
	rest = strings.TrimSpace(rest)
	if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
		analyzer, reason = rest[:i], strings.TrimSpace(rest[i:])
	} else {
		analyzer = rest
	}
	if analyzer == "" {
		return "", "", false // `//lint:exempt` names nothing
	}
	return analyzer, reason, true
}
