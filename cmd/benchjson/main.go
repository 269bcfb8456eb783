// Command benchjson converts `go test -bench` output into a
// machine-readable JSON map so stage-level timings can be diffed by
// tooling (CI, benchstat-style dashboards) instead of eyeballing text.
//
// It understands the two shapes `make bench-stages` produces:
//
//   - the benchmark's own ns/op, keyed by benchmark name, and
//   - custom stage metrics like `11.08 analyze.kmeans-ms`, converted to
//     ns/op and keyed by stage name.
//
// Usage:
//
//	benchjson -in results/bench-stages.txt -out results/BENCH_stages.json
//
// With -in/-out omitted it reads stdin and writes stdout.
//
// Parsing lives in internal/impact, whose two-tree runner (flare-impact)
// also compares reports; this command is the thin CLI over the parser.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"flare/internal/impact"
)

func main() {
	in := flag.String("in", "", "benchmark output to parse (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := impact.ParseBench(r)
	if err != nil {
		fatal(err)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
