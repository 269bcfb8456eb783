package server

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flare/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/span_tree.golden from the current span tree")

// renderSpanTree writes each root as indented "name key=value..." lines,
// children two spaces deeper. Start, duration and in-flight state are
// timing, not structure, so they are left out; request IDs carry the
// server's start time, so they render as a placeholder.
func renderSpanTree(b *strings.Builder, sp obs.SpanSnapshot, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(sp.Name)
	for _, a := range sp.Attrs {
		v := fmt.Sprint(a.Value)
		if a.Key == "request_id" {
			v = "<id>"
		}
		fmt.Fprintf(b, " %s=%s", a.Key, v)
	}
	b.WriteByte('\n')
	for _, c := range sp.Children {
		renderSpanTree(b, c, depth+1)
	}
}

// TestSpanTreeGolden pins every span's name, nesting, attribute keys,
// values and order across the estimate and tick paths: an all-job
// estimate, a per-job estimate, a cache-hit repeat of the first, and a
// re-measure tick, on a fresh registry and tracer.
func TestSpanTreeGolden(t *testing.T) {
	s, _ := newTickServer(t, 1)
	h := s.Handler()
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, nil)
	get(t, h, "/api/estimate?feature=feature1&job=WSC", http.StatusOK, nil)
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, nil)
	postTick(t, h, tickRequest{Changed: []int{1, 5}}, http.StatusOK, nil)

	var b strings.Builder
	for _, root := range s.Tracer().Snapshot() {
		renderSpanTree(&b, root, 0)
	}
	got := b.String()

	path := filepath.Join("testdata", "span_tree.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("span tree differs from %s (rerun with -update if intended):\n--- got\n%s--- want\n%s", path, got, want)
	}
}
