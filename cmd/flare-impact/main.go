// Command flare-impact judges the impact of a change. Three modes:
//
// Two-tree mode compares a base build tree against a head build tree —
// golden determinism checks in each, the bench suite in each with
// re-runs to separate noise from real regressions, a flaky-test sweep
// over the head tree — and emits one pass/fail verdict document:
//
//	flare-impact -base /tmp/base-tree -head . -reruns 2 -flaky-count 3 \
//	    -out results/impact.json
//
// Stream mode feeds an existing `go test -json` stream through the
// flaky detector alone (the nightly flaky hunt pipes into this),
// failing on newly-flaky tests relative to a committed baseline:
//
//	go test -count=10 -json ./... | flare-impact -flaky-stream \
//	    -flaky-baseline results/flaky-baseline.json
//
// Bench-parse mode converts `go test -bench` output into the JSON stage
// report (benchmark ns/op plus custom `-ms` stage metrics as ns/op) that
// `make bench-stages` commits:
//
//	flare-impact -bench-parse -in results/bench-stages.txt \
//	    -out results/BENCH_stages.json
//
// Exit codes: 0 verdict pass, 1 runner error, 2 verdict fail.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"flare/internal/impact"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flare-impact:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	base := flag.String("base", "", "baseline build tree (module root)")
	head := flag.String("head", "", "candidate build tree (module root)")
	tolerance := flag.Float64("tolerance", 25, "percent slowdown allowed before a timing is a regression")
	reruns := flag.Int("reruns", 1, "extra min-merged bench rounds per tree when regressions are flagged")
	flakyCount := flag.Int("flaky-count", 0, "run `go test -count=N -json` over the head tree's packages and detect flaky tests (0: skip)")
	flakyPkgs := flag.String("flaky-pkgs", "./...", "space-separated package patterns for the flaky sweep")
	baselinePath := flag.String("flaky-baseline", "", "known-flaky baseline JSON; only NEWLY flaky tests fail the verdict")
	benchCmd := flag.String("bench-cmd", "", "override the bench command (space-separated argv)")
	goldenCmd := flag.String("golden-cmd", "", "override the golden determinism command (space-separated argv)")
	out := flag.String("out", "", "write the verdict, flaky or bench-parse JSON to this file (a verdict or flaky text digest always prints to stdout)")
	stream := flag.Bool("flaky-stream", false, "read a `go test -json` stream and run only the flaky detector")
	benchParse := flag.Bool("bench-parse", false, "parse `go test -bench` output into the JSON stage report (written to -out, default stdout)")
	in := flag.String("in", "", "with -flaky-stream or -bench-parse: input file to read (default stdin)")
	flag.Parse()

	if *benchParse {
		return runBenchParse(*in, *out)
	}

	var baseline *impact.Baseline
	if *baselinePath != "" {
		var err error
		if baseline, err = impact.LoadBaseline(*baselinePath); err != nil {
			return 1, err
		}
	}

	if *stream {
		return runStream(*in, *out, baseline)
	}

	if *base == "" || *head == "" {
		return 1, errors.New("two-tree mode needs -base and -head (or use -flaky-stream)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := impact.RunnerOptions{
		BaseDir:       *base,
		HeadDir:       *head,
		TolerancePct:  *tolerance,
		Reruns:        *reruns,
		FlakyCount:    *flakyCount,
		FlakyPackages: strings.Fields(*flakyPkgs),
		Baseline:      baseline,
		Log:           os.Stderr,
	}
	if *benchCmd != "" {
		opts.BenchCmd = strings.Fields(*benchCmd)
	}
	if *goldenCmd != "" {
		opts.GoldenCmd = strings.Fields(*goldenCmd)
	}
	verdict, err := impact.RunImpact(ctx, opts)
	if err != nil {
		return 1, err
	}
	verdict.WriteText(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, verdict.WriteJSON); err != nil {
			return 1, err
		}
	}
	if !verdict.Pass {
		return 2, errors.New("verdict: FAIL")
	}
	return 0, nil
}

// openIn opens path for reading, or stdin when path is empty.
func openIn(path string) (io.ReadCloser, error) {
	if path == "" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// runBenchParse implements -bench-parse: bench text in, stage JSON out.
func runBenchParse(inPath, outPath string) (int, error) {
	r, err := openIn(inPath)
	if err != nil {
		return 1, err
	}
	defer r.Close()
	rep, err := impact.ParseBench(r)
	if err != nil {
		return 1, err
	}
	if outPath == "" {
		return 0, rep.WriteJSON(os.Stdout)
	}
	return 0, writeJSON(outPath, rep.WriteJSON)
}

// runStream implements -flaky-stream: detector only, no tree running.
func runStream(inPath, outPath string, baseline *impact.Baseline) (int, error) {
	r, err := openIn(inPath)
	if err != nil {
		return 1, err
	}
	defer r.Close()
	det := impact.NewFlakyDetector()
	if err := det.Consume(r); err != nil {
		return 1, err
	}
	rep := det.Report()
	rep.WriteText(os.Stdout)
	if outPath != "" {
		if err := writeJSON(outPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			return 1, err
		}
	}
	if newly := rep.NewlyFlaky(baseline); len(newly) > 0 {
		ids := make([]string, len(newly))
		for i, ts := range newly {
			ids[i] = ts.ID()
		}
		return 2, fmt.Errorf("newly flaky tests: %s", strings.Join(ids, ", "))
	}
	return 0, nil
}

func writeJSON(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
