package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// tinyConfig shrinks every size so a run takes about a second. A 2-day
// trace with 4 representatives is far from the paper's accuracy, so the
// error gate is opened wide.
func tinyConfig(t *testing.T, wl string, seed int64, trace bool) config {
	return config{
		Workload: wl, Seed: seed, Seconds: 200 * time.Millisecond, Trace: trace, Dir: t.TempDir(),
		Days: 2, Clusters: 4, Warmup: 20 * time.Millisecond, ProbeTicks: 4, MaxErrorPP: 100,
		Decompose: 6, LayerReps: 1, JournalOps: 5, AllocOps: 10, ObsOps: 100,
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return endToEnd, perLayer
}

func metricNames(rep *report) []string {
	var names []string
	for _, m := range rep.Metrics {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

func TestSameSeedSameScheduleNoFailures(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			var prints []uint64
			for i := 0; i < 2; i++ {
				rep, err := run(tinyConfig(t, wl, 7, false))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("run %d: correct=%t failed=%d attempted=%d\n%v", i, rep.Correct, rep.Failed, rep.Attempted, rep.Lines)
				}
				if got := metricNames(rep); !slices.Equal(got, endToEnd) {
					t.Fatalf("metrics %v, BENCHMARK.json end_to_end %v", got, endToEnd)
				}
				prints = append(prints, rep.Fingerprint)
			}
			if prints[0] != prints[1] {
				t.Fatalf("same seed, different schedules: %016x vs %016x", prints[0], prints[1])
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	_, perLayer := benchmarkNames(t)
	rep, err := run(tinyConfig(t, workloadTick, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run failed: %v", rep.Lines)
	}
	if got := metricNames(rep); !slices.Equal(got, perLayer) {
		t.Fatalf("metrics %v, BENCHMARK.json per_layer %v", got, perLayer)
	}
}

func TestSeedShapesSchedule(t *testing.T) {
	for _, wl := range workloads {
		a := buildSchedule(tinyConfig(t, wl, 1, false), 27, 100).fingerprint()
		b := buildSchedule(tinyConfig(t, wl, 2, false), 27, 100).fingerprint()
		if a == b {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", wl)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 3, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 30, 3: 20, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
}

// The reference kernel must not allocate: an allocating kernel would pay
// garbage-collector assists for the program's garbage, and the figures it
// scales would move with the program's allocation rate.
func TestReferenceKernelDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var c calibrator
	c.burst() // grows the reused buffers
	if n := testing.AllocsPerRun(100, func() { c.burst() }); n != 0 {
		t.Fatalf("a calibration burst allocates %v times", n)
	}
}

func TestCalScale(t *testing.T) {
	if got := calScale(nil); got != 1 {
		t.Errorf("calScale(nil) = %v, want 1", got)
	}
	// Bursts twice as slow as the reference halve the figures.
	if got := calScale([]float64{2 * calRefUs * 1e3, 3 * calRefUs * 1e3, calRefUs * 1e3}); got != 0.5 {
		t.Errorf("calScale = %v, want 0.5", got)
	}
}
