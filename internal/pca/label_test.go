package pca

import (
	"strings"
	"testing"

	"flare/internal/linalg"
	"flare/internal/metrics"
)

// labelFixture builds a model over two synthetic metrics with known
// structure: PC0 dominated by the "llc" machine metric, anti-weighted by
// the "frontend" HP metric.
func labelFixture(t *testing.T) (*Model, []string, *metrics.Catalog) {
	t.Helper()
	cat, err := metrics.NewCatalog([]metrics.Def{
		{Name: "LLC-MPKI-Machine", Level: metrics.LevelMachine, Source: metrics.SourcePerf,
			Tags: []string{"llc", "memory"}},
		{Name: "TD-Frontend-HP", Level: metrics.LevelHP, Source: metrics.SourceTopdown,
			Tags: []string{"frontend"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect anti-correlation: one PC explains everything, with opposite
	// signs on the two metrics.
	m := linalg.NewMatrix(50, 2)
	for i := 0; i < 50; i++ {
		v := float64(i%10) - 5
		m.Set(i, 0, v)
		m.Set(i, 1, -v)
	}
	mod, err := FitWorkers(m, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mod, []string{"LLC-MPKI-Machine", "TD-Frontend-HP"}, cat
}

func TestLabelComponents(t *testing.T) {
	mod, names, cat := labelFixture(t)
	labels, err := LabelComponents(mod, names, cat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != mod.NumPC {
		t.Fatalf("got %d labels, want %d", len(labels), mod.NumPC)
	}
	lbl := labels[0]
	if len(lbl.TopPositive) == 0 || len(lbl.TopNegative) == 0 {
		t.Fatalf("PC0 lacks signed contributors: %+v", lbl)
	}
	// One side must mention llc/memory, the other frontend.
	s := lbl.Interpretation
	if !strings.Contains(s, "llc") && !strings.Contains(s, "memory") {
		t.Errorf("interpretation %q does not mention llc/memory", s)
	}
	if !strings.Contains(s, "frontend") {
		t.Errorf("interpretation %q does not mention frontend", s)
	}
	// The two-level structure must surface.
	if !strings.Contains(s, "Machine") || !strings.Contains(s, "HP") {
		t.Errorf("interpretation %q does not name both levels", s)
	}
	if lbl.Explained < 0.9 {
		t.Errorf("PC0 explained = %v, want ~1 for perfectly correlated input", lbl.Explained)
	}
}

func TestLabelComponentsNameMismatch(t *testing.T) {
	mod, _, cat := labelFixture(t)
	if _, err := LabelComponents(mod, []string{"only-one"}, cat, 3); err == nil {
		t.Error("name-count mismatch did not error")
	}
}

func TestLabelComponentsDefaultTopN(t *testing.T) {
	mod, names, cat := labelFixture(t)
	labels, err := LabelComponents(mod, names, cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 {
		t.Fatal("no labels")
	}
	if len(labels[0].TopPositive) > 5 {
		t.Errorf("default topN produced %d contributors, want <= 5", len(labels[0].TopPositive))
	}
}

func TestLabelComponentsUnknownMetricTolerated(t *testing.T) {
	mod, _, cat := labelFixture(t)
	// Names not present in the catalog are skipped by the tag summary but
	// must not break labelling.
	labels, err := LabelComponents(mod, []string{"mystery-a", "mystery-b"}, cat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0].Interpretation == "" {
		t.Error("interpretation empty for unknown metrics")
	}
}
