package impact

import (
	"reflect"
	"strings"
	"testing"
)

func reports() (base, head *BenchReport) {
	base = &BenchReport{
		Benchmarks: map[string]float64{
			"BenchmarkSteady-8":  1000,
			"BenchmarkSlower-8":  1000,
			"BenchmarkFaster-8":  1000,
			"BenchmarkRemoved-8": 1000,
		},
		Stages: map[string]float64{"analyze.kmeans": 5e6},
	}
	head = &BenchReport{
		Benchmarks: map[string]float64{
			"BenchmarkSteady-8": 1100, // +10%: within tolerance
			"BenchmarkSlower-8": 1400, // +40%: regression
			"BenchmarkFaster-8": 500,  // -50%: improvement
			"BenchmarkAdded-8":  42,
		},
		Stages: map[string]float64{"analyze.kmeans": 5e6},
	}
	return base, head
}

func findRow(t *testing.T, cmp *BenchComparison, name string) BenchRow {
	t.Helper()
	for _, r := range cmp.Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("row %q missing from comparison", name)
	return BenchRow{}
}

func TestCompareClassifiesRows(t *testing.T) {
	base, head := reports()
	cmp := CompareBench(base, head, 25)
	if cmp.Regressions != 1 {
		t.Errorf("regressions = %d, want 1", cmp.Regressions)
	}
	for name, want := range map[string]string{
		"BenchmarkSteady-8":  "ok",
		"BenchmarkSlower-8":  "regression",
		"BenchmarkFaster-8":  "improved",
		"BenchmarkAdded-8":   "added",
		"BenchmarkRemoved-8": "removed",
		"analyze.kmeans":     "ok",
	} {
		if got := findRow(t, cmp, name).Status; got != want {
			t.Errorf("%s status = %q, want %q", name, got, want)
		}
	}
	if r := findRow(t, cmp, "BenchmarkSlower-8"); r.DeltaPct < 39 || r.DeltaPct > 41 {
		t.Errorf("BenchmarkSlower-8 delta = %v, want ~40", r.DeltaPct)
	}
	if got := len(cmp.Regressed()); got != 1 {
		t.Errorf("Regressed() returned %d rows, want 1", got)
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	base := &BenchReport{Benchmarks: map[string]float64{"BenchmarkX": 100}, Stages: map[string]float64{}}
	head := &BenchReport{Benchmarks: map[string]float64{"BenchmarkX": 125}, Stages: map[string]float64{}}
	if cmp := CompareBench(base, head, 25); cmp.Regressions != 0 {
		t.Errorf("exactly +25%% counted as regression with 25%% tolerance")
	}
	head.Benchmarks["BenchmarkX"] = 126
	if cmp := CompareBench(base, head, 25); cmp.Regressions != 1 {
		t.Errorf("+26%% not counted as regression with 25%% tolerance")
	}
}

func TestWriteTableMentionsRegression(t *testing.T) {
	base, head := reports()
	var sb strings.Builder
	CompareBench(base, head, 25).WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"BenchmarkSlower-8", "regression", "regressions: 1", "tolerance: +25%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestParseBench(t *testing.T) {
	rep, err := ParseBench(strings.NewReader(`
goos: linux
BenchmarkPipelineStages-8   3   123456789 ns/op   11.08 analyze.kmeans-ms   2.5 profile.collect-ms
BenchmarkVectorGet-8   1000000   52.5 ns/op
some unrelated line
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Benchmarks["BenchmarkPipelineStages"]; got != 123456789 {
		t.Errorf("pipeline ns/op = %v", got)
	}
	if got := rep.Benchmarks["BenchmarkVectorGet"]; got != 52.5 {
		t.Errorf("vector ns/op = %v", got)
	}
	if got := rep.Stages["analyze.kmeans"]; got != 11.08e6 {
		t.Errorf("kmeans stage ns = %v", got)
	}
	if got := rep.Stages["profile.collect"]; got != 2.5e6 {
		t.Errorf("collect stage ns = %v", got)
	}
	if _, err := ParseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input did not error")
	}
}

// TestParseBenchStableKeys checks that one run's keys and stage values do
// not depend on the host: the GOMAXPROCS suffix is dropped (names
// without one, or with a non-numeric tail, are kept), and a stage's
// milliseconds become whole nanoseconds with no float residue.
func TestParseBenchStableKeys(t *testing.T) {
	rep, err := ParseBench(strings.NewReader(`
BenchmarkEvaluateSolo-2   1000   2023.5 ns/op   2.023 solo.eval-ms   2.002 solo.other-ms
BenchmarkEstimateCold   500   300000 ns/op
BenchmarkSub/case-a-16   10   7 ns/op
BenchmarkTrailingDash-   10   9 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkEvaluateSolo":  2023.5,
		"BenchmarkEstimateCold":  300000,
		"BenchmarkSub/case-a":    7,
		"BenchmarkTrailingDash-": 9,
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Errorf("benchmarks = %v, want %v", rep.Benchmarks, want)
	}
	// 2.023 * 1e6 and 2.002 * 1e6 are 2023000.0000000002 and
	// 2001999.9999999998 in float64.
	if got := rep.Stages["solo.eval"]; got != 2023000 {
		t.Errorf("solo.eval = %v, want 2023000", got)
	}
	if got := rep.Stages["solo.other"]; got != 2002000 {
		t.Errorf("solo.other = %v, want 2002000", got)
	}
}

func TestMinMerge(t *testing.T) {
	a := &BenchReport{
		Benchmarks: map[string]float64{"BenchmarkX": 100, "BenchmarkOnlyA": 7},
		Stages:     map[string]float64{"s": 50},
	}
	b := &BenchReport{
		Benchmarks: map[string]float64{"BenchmarkX": 80, "BenchmarkOnlyB": 9},
		Stages:     map[string]float64{"s": 60},
	}
	m := MinMerge(a, b, nil)
	if got := m.Benchmarks["BenchmarkX"]; got != 80 {
		t.Errorf("merged BenchmarkX = %v, want 80 (min)", got)
	}
	if got := m.Stages["s"]; got != 50 {
		t.Errorf("merged stage = %v, want 50 (min)", got)
	}
	if m.Benchmarks["BenchmarkOnlyA"] != 7 || m.Benchmarks["BenchmarkOnlyB"] != 9 {
		t.Error("keys present in only one report were dropped")
	}
}
