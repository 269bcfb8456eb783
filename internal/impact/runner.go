// The two-tree impact runner: given a base and a head build tree, run
// the golden determinism checks and the bench suite in each, join the
// timings, re-run flagged stages to separate scheduler noise from real
// regressions, sweep the head tree's tests for flakiness, and fold
// everything into one verdict document. This is the judgement layer CI
// applies to every change: not "did it compile" but "is it still fast,
// still deterministic, and still trustworthy under repetition".
package impact

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// RunnerOptions configures RunImpact. Zero values get defaults suited
// to this repository's layout.
type RunnerOptions struct {
	// BaseDir and HeadDir are the two build trees (roots of the module).
	BaseDir, HeadDir string
	// BenchCmd produces `go test -bench` output on stdout when run from
	// a tree root. Default: defaultBenchCmds, run in order.
	BenchCmd []string
	// GoldenCmd runs the determinism checks; exit status is the verdict.
	// Default: every test named *Determinism* across the tree.
	GoldenCmd []string
	// TolerancePct is the allowed slowdown before a timing counts as a
	// regression; <= 0 uses 25.
	TolerancePct float64
	// Reruns is how many extra bench rounds each tree gets (min-merged)
	// when the first comparison flags regressions. 0 means judge the
	// first round as-is; negative disables reruns explicitly.
	Reruns int
	// FlakyCount > 0 runs `go test -count=N -json` over FlakyPackages in
	// the head tree and feeds it through the flaky detector. 0 skips the
	// sweep.
	FlakyCount int
	// FlakyPackages defaults to ["./..."].
	FlakyPackages []string
	// FlakyArgs appends extra `go test` arguments to the sweep (e.g.
	// "-run", "TestX" to focus it).
	FlakyArgs []string
	// Baseline, when set, suppresses known-flaky tests: only newly
	// flaky ones fail the verdict.
	Baseline *Baseline
	// Env is appended to the inherited environment for every command.
	Env []string
	// Log receives progress lines and command stderr; nil discards.
	Log io.Writer
}

// defaultBenchCmds are the bench commands a tree runs when BenchCmd is
// unset: the per-stage pipeline benchmark at a short benchtime, and one
// cold /api/estimate (replay, journal, encoding) at a fixed count large
// enough to average out scheduler noise.
var defaultBenchCmds = [][]string{
	{"go", "test", "-run", "^$", "-bench", "BenchmarkPipelineStages", "-benchtime", "1x", "."},
	{"go", "test", "-run", "^$", "-bench", "BenchmarkEstimateCold$", "-benchtime", "500x", "./internal/server"},
}

func (o *RunnerOptions) withDefaults() RunnerOptions {
	opts := *o
	if len(opts.GoldenCmd) == 0 {
		opts.GoldenCmd = []string{"go", "test", "-run", "Determinism", "./..."}
	}
	if opts.TolerancePct <= 0 {
		opts.TolerancePct = 25
	}
	if len(opts.FlakyPackages) == 0 {
		opts.FlakyPackages = []string{"./..."}
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	return opts
}

// runCmd executes argv in dir, returning stdout; stderr goes to the
// progress log so build noise stays out of parsed output.
func runCmd(ctx context.Context, dir string, argv []string, env []string, log io.Writer) (string, error) {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = log
	err := cmd.Run()
	return out.String(), err
}

// tailLines keeps the last n lines of s.
func tailLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// RunImpact executes the full two-tree judgement. An error return means
// the runner itself could not do its job (bad tree, unparseable bench
// output); a failing verdict is NOT an error — inspect Verdict.Pass.
func RunImpact(ctx context.Context, o RunnerOptions) (*Verdict, error) {
	opts := o.withDefaults()
	if opts.BaseDir == "" || opts.HeadDir == "" {
		return nil, fmt.Errorf("impact: both BaseDir and HeadDir are required")
	}
	v := &Verdict{
		BaseDir:      opts.BaseDir,
		HeadDir:      opts.HeadDir,
		TolerancePct: opts.TolerancePct,
	}

	// Golden determinism checks, both trees. These run first: a tree
	// that cannot reproduce its own outputs makes its timings moot.
	for _, tree := range []struct{ name, dir string }{
		{"base", opts.BaseDir}, {"head", opts.HeadDir},
	} {
		fmt.Fprintf(opts.Log, "impact: golden checks in %s (%s)\n", tree.name, tree.dir)
		out, err := runCmd(ctx, tree.dir, opts.GoldenCmd, opts.Env, opts.Log)
		gr := GoldenResult{Tree: tree.name, Dir: tree.dir, Pass: err == nil}
		if err != nil {
			gr.Detail = tailLines(out, 30)
			if gr.Detail == "" {
				gr.Detail = err.Error()
			}
		}
		v.Golden = append(v.Golden, gr)
	}

	// Bench round one, both trees.
	benchCmds := defaultBenchCmds
	if len(opts.BenchCmd) > 0 {
		benchCmds = [][]string{opts.BenchCmd}
	}
	benchTree := func(dir string) (*BenchReport, error) {
		var all strings.Builder
		for _, argv := range benchCmds {
			out, err := runCmd(ctx, dir, argv, opts.Env, opts.Log)
			if err != nil {
				return nil, fmt.Errorf("impact: bench in %s: %w (output tail: %s)",
					dir, err, tailLines(out, 10))
			}
			all.WriteString(out)
		}
		return ParseBench(strings.NewReader(all.String()))
	}
	fmt.Fprintf(opts.Log, "impact: bench round 1 in base\n")
	baseRep, err := benchTree(opts.BaseDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(opts.Log, "impact: bench round 1 in head\n")
	headRep, err := benchTree(opts.HeadDir)
	if err != nil {
		return nil, err
	}
	v.Bench = CompareBench(baseRep, headRep, opts.TolerancePct)

	// Noise separation: regressions buy each tree extra rounds, and the
	// per-key minimum across rounds is what gets re-judged.
	if len(v.Bench.Regressed()) > 0 && opts.Reruns > 0 {
		for i := 0; i < opts.Reruns; i++ {
			fmt.Fprintf(opts.Log, "impact: regression flagged; bench re-run %d/%d\n",
				i+1, opts.Reruns)
			rep, err := benchTree(opts.BaseDir)
			if err != nil {
				return nil, err
			}
			baseRep = MinMerge(baseRep, rep)
			if rep, err = benchTree(opts.HeadDir); err != nil {
				return nil, err
			}
			headRep = MinMerge(headRep, rep)
		}
		v.Bench = CompareBench(baseRep, headRep, opts.TolerancePct)
		v.BenchReruns = opts.Reruns
	}

	// Flaky sweep over the head tree.
	if opts.FlakyCount > 0 {
		args := []string{"go", "test", "-count", strconv.Itoa(opts.FlakyCount), "-json"}
		args = append(args, opts.FlakyArgs...)
		args = append(args, opts.FlakyPackages...)
		fmt.Fprintf(opts.Log, "impact: flaky sweep in head: %s\n", strings.Join(args, " "))
		// Test failures exit nonzero by design — the stream still holds
		// every event, and the detector is the judge, not the exit code.
		out, _ := runCmd(ctx, opts.HeadDir, args, opts.Env, opts.Log)
		det := NewFlakyDetector()
		if err := det.Consume(strings.NewReader(out)); err != nil {
			return nil, fmt.Errorf("impact: parsing flaky sweep: %w", err)
		}
		v.Flaky = det.Report()
		v.NewlyFlaky = v.Flaky.NewlyFlaky(opts.Baseline)
	}

	v.judge()
	return v, nil
}
