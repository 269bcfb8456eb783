package impact

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeToyTree generates a minimal Go module whose benchmark cost is a
// deterministic sleep (stable across runs, so self-comparison is quiet)
// and whose flaky fixture fails on every odd run of the process-local
// counter file — deliberately flaky, detectably so.
func writeToyTree(t *testing.T, sleepMs int) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module toymod\n\ngo 1.22\n",
		"toymod.go": `package toymod

func Sum(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}
`,
		"toymod_test.go": fmt.Sprintf(`package toymod

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSumDeterminism(t *testing.T) {
	if Sum(100) != 4950 {
		t.Fatal("Sum is not deterministic")
	}
}

func BenchmarkSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		time.Sleep(%d * time.Millisecond)
		Sum(1000)
	}
	b.ReportMetric(12.5, "toy.stage-ms")
}

// TestFlakyFixture is deliberately flaky when TOYMOD_FLAKY_DIR is set:
// a counter file persists across the -count repetitions, and odd counts
// fail. Without the env var it is stable (skipped).
func TestFlakyFixture(t *testing.T) {
	dir := os.Getenv("TOYMOD_FLAKY_DIR")
	if dir == "" {
		t.Skip("flaky fixture disarmed")
	}
	path := dir + "/counter"
	n := 0
	if b, err := os.ReadFile(path); err == nil {
		n, _ = strconv.Atoi(strings.TrimSpace(string(b)))
	}
	n++
	if err := os.WriteFile(path, []byte(fmt.Sprint(n)), 0o644); err != nil {
		t.Fatal(err)
	}
	if n%%2 == 1 {
		t.Fatalf("deliberate flake on odd run %%d", n)
	}
}
`, sleepMs),
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// toyOptions times BenchmarkSum over 20 iterations (about 0.1 s at 5 ms
// each), not one: a single 5 ms sleep can read tens of percent slow when
// other work shares the CPU, past the 25 % tolerance, while jitter spread
// over 20 sleeps stays a small share of the total.
func toyOptions(base, head string) RunnerOptions {
	return RunnerOptions{
		BaseDir:   base,
		HeadDir:   head,
		BenchCmd:  []string{"go", "test", "-run", "^$", "-bench", "BenchmarkSum", "-benchtime", "20x", "."},
		GoldenCmd: []string{"go", "test", "-count=1", "-run", "TestSumDeterminism", "."},
	}
}

// TestRunImpactSelfCompareClean is the acceptance loop: a tree compared
// against itself yields a clean passing verdict.
func TestRunImpactSelfCompareClean(t *testing.T) {
	tree := writeToyTree(t, 5)
	opts := toyOptions(tree, tree)
	opts.Reruns = 2 // absorb scheduler noise if round one jitters
	v, err := RunImpact(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		v.WriteText(os.Stderr)
		t.Fatal("self-compare verdict failed")
	}
	for _, g := range v.Golden {
		if !g.Pass {
			t.Errorf("golden %s failed: %s", g.Tree, g.Detail)
		}
	}
	if v.Bench == nil || len(v.Bench.Rows) == 0 {
		t.Fatal("verdict has no bench rows")
	}
	var sawStage bool
	for _, r := range v.Bench.Rows {
		if r.Kind == "stage" && r.Name == "toy.stage" {
			sawStage = true
		}
	}
	if !sawStage {
		t.Error("custom -ms stage metric missing from comparison")
	}
}

// TestRunImpactDetectsRegression plants a real slowdown in head (5ms →
// 15ms per op) and expects the verdict to hold it even after the
// noise-separation reruns — a real regression survives min-merging.
func TestRunImpactDetectsRegression(t *testing.T) {
	base := writeToyTree(t, 5)
	head := writeToyTree(t, 15)
	opts := toyOptions(base, head)
	opts.Reruns = 1
	v, err := RunImpact(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("tripled benchmark cost passed the verdict")
	}
	if v.BenchReruns != 1 {
		t.Errorf("reruns = %d, want 1 (noise separation must have re-run)", v.BenchReruns)
	}
	rows := v.Bench.Regressed()
	if len(rows) == 0 {
		t.Fatal("no regression rows despite slowdown")
	}
	// Benchmark names carry a -GOMAXPROCS suffix; match the prefix.
	var found bool
	for _, r := range rows {
		if strings.HasPrefix(r.Name, "BenchmarkSum") {
			found = true
		}
	}
	if !found {
		t.Errorf("regressed rows do not include BenchmarkSum: %+v", rows)
	}
}

// TestRunImpactFlagsFlakyFixture proves the end-to-end flaky pipeline:
// `go test -count=4 -json` over the deliberately flaky fixture, parsed
// by the detector, failing the verdict as newly flaky — and passing
// once the baseline lists it.
func TestRunImpactFlagsFlakyFixture(t *testing.T) {
	tree := writeToyTree(t, 5)
	counterDir := t.TempDir()
	opts := toyOptions(tree, tree)
	opts.Reruns = 2
	opts.FlakyCount = 4
	opts.FlakyArgs = []string{"-run", "TestFlakyFixture"}
	opts.FlakyPackages = []string{"."}
	opts.Env = []string{"TOYMOD_FLAKY_DIR=" + counterDir}
	v, err := RunImpact(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("deliberately flaky fixture passed the verdict")
	}
	if len(v.NewlyFlaky) != 1 || v.NewlyFlaky[0].Test != "TestFlakyFixture" {
		t.Fatalf("newly flaky = %+v, want exactly TestFlakyFixture", v.NewlyFlaky)
	}
	ts := v.NewlyFlaky[0]
	if ts.Runs != 4 || ts.Fails != 2 || ts.Passes != 2 {
		t.Errorf("fixture runs/fails/passes = %d/%d/%d, want 4/2/2", ts.Runs, ts.Fails, ts.Passes)
	}

	// Known in the baseline: no longer NEWLY flaky, verdict passes.
	if err := os.Remove(filepath.Join(counterDir, "counter")); err != nil {
		t.Fatal(err)
	}
	opts.Baseline = &Baseline{Flaky: []string{ts.ID()}}
	v, err = RunImpact(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		v.WriteText(os.Stderr)
		t.Fatal("baselined flake still failed the verdict")
	}
}
