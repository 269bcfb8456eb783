// Package lint assembles FLARE's invariant analyzer into a runnable
// suite. The tools/flarelint command (its own module, so this one stays
// dependency-free) is a thin wrapper over Run; tests drive the same
// code against the repository itself.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"flare/internal/lint/analysis"
	"flare/internal/lint/ctxflow"
	"flare/internal/lint/load"
)

// Suite returns FLARE's analyzers: the summary-driven
// context-propagation check alone. Spans need no analyzer, because
// obs.InSpan ends every span it opens; metric names need none, because
// every family is declared once in obs.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{ctxflow.Analyzer}
}

// Finding is one diagnostic with resolved source positions, the
// JSON-stable shape `flarelint -json` emits. End, when present, closes
// the half-open span the finding covers; URL links the invariant's
// documentation; Related carries secondary locations (ctxflow's
// blocking site behind an ignored ctx).
type Finding struct {
	Analyzer string           `json:"analyzer"`
	URL      string           `json:"url,omitempty"`
	Position Position         `json:"position"`
	End      *Position        `json:"end,omitempty"`
	Message  string           `json:"message"`
	Related  []RelatedFinding `json:"related,omitempty"`
}

// RelatedFinding is a secondary location attached to a finding.
type RelatedFinding struct {
	Position Position  `json:"position"`
	End      *Position `json:"end,omitempty"`
	Message  string    `json:"message"`
}

// Position is a resolved file position.
type Position struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

func (f Finding) String() string {
	if f.Position.File == "" {
		return fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		f.Position.File, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
}

// Run loads the packages matching patterns in the module rooted at dir
// and applies the analyzers to each, returning findings sorted by
// position.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	pkgs, err := load.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// runPackage applies the analyzers to one loaded package, returning
// position-resolved findings.
func runPackage(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		ana := a
		pass.Report = func(d analysis.Diagnostic) {
			findings = append(findings, toFinding(pkg.Fset, ana, d))
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	return findings, nil
}

func toFinding(fset *token.FileSet, a *analysis.Analyzer, d analysis.Diagnostic) Finding {
	f := Finding{Analyzer: a.Name, URL: a.URL, Message: d.Message}
	f.Position, f.End = resolveSpan(fset, d.Pos, d.End)
	for _, r := range d.Related {
		rf := RelatedFinding{Message: r.Message}
		rf.Position, rf.End = resolveSpan(fset, r.Pos, r.End)
		f.Related = append(f.Related, rf)
	}
	return f
}

// resolveSpan resolves a [pos, end) token span to file positions; end
// comes back nil when invalid or equal to the start.
func resolveSpan(fset *token.FileSet, pos, end token.Pos) (Position, *Position) {
	var p Position
	if !pos.IsValid() {
		return p, nil
	}
	posn := fset.Position(pos)
	p = Position{File: posn.Filename, Line: posn.Line, Column: posn.Column}
	if !end.IsValid() || end <= pos {
		return p, nil
	}
	endn := fset.Position(end)
	return p, &Position{File: endn.Filename, Line: endn.Line, Column: endn.Column}
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Position.File != b.Position.File {
			return a.Position.File < b.Position.File
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
