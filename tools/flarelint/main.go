// Command flarelint machine-checks FLARE's observability and context
// propagation invariants (see DESIGN.md "Static analysis & enforced
// invariants") with three analyzers: metricname, spanend, and the
// summary-driven ctxflow.
//
//	flarelint [-dir moduleroot] [-json] [-sarif file] [packages...]
//
// loads the named package patterns (default ./...) via the go
// toolchain and prints one line per finding, exiting 1 when anything
// is found: every finding gates. -json writes machine-readable
// diagnostics to stdout (one JSON array) while the human-readable lines
// go to stderr. -sarif writes a SARIF 2.1.0 log ("-" for stdout) for
// GitHub code scanning. metricname's cross-package
// duplicate-registration check runs over the whole load at once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"flare/internal/lint"
	"flare/internal/lint/analysis"
	"flare/internal/lint/sarif"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("flarelint", flag.ExitOnError)
	var (
		dir      = fs.String("dir", ".", "module root to analyze")
		jsonOut  = fs.Bool("json", false, "write findings as JSON to stdout")
		sarifOut = fs.String("sarif", "", "write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	)
	analyzers := lint.Suite()
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: flarelint [flags] [package patterns]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	findings, err := lint.Run(*dir, fs.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flarelint:", err)
		return 2
	}
	root, err := filepath.Abs(*dir)
	if err != nil {
		root = *dir
	}

	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "flarelint:", err)
			return 2
		}
	}
	if *sarifOut != "" {
		if err := emitSARIF(*sarifOut, analyzers, findings, root); err != nil {
			fmt.Fprintln(os.Stderr, "flarelint:", err)
			return 2
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "flarelint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// emitSARIF writes the findings as a SARIF 2.1.0 log.
// A failed Close is a failed write: the log may be truncated.
func emitSARIF(path string, analyzers []*analysis.Analyzer, findings []lint.Finding, root string) error {
	log := sarif.Convert(analyzers, findings, root)
	if path == "-" {
		return writeJSON(os.Stdout, log)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, log); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
