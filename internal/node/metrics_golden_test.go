package node

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"flare/internal/obs"
	"flare/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current /metrics surface")

// renderMetricsSurface reduces a /metrics exposition to its shape: every
// # HELP and # TYPE line, and every series' name and label set, sorted,
// without values. A histogram's _bucket series collapse to one line per
// label set naming its le bounds.
func renderMetricsSurface(t *testing.T, text string) string {
	t.Helper()
	var lines []string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "# HELP ") || strings.HasPrefix(l, "# TYPE ") {
			lines = append(lines, l)
		}
	}
	set, err := obs.ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string][]string{} // bucket series without le -> le values
	for name, series := range set {
		for labels := range series {
			if !strings.HasSuffix(name, "_bucket") {
				lines = append(lines, name+labels)
				continue
			}
			rest, le := splitLE(labels)
			bounds[name+rest] = append(bounds[name+rest], le)
		}
	}
	for series, les := range bounds {
		sort.Slice(les, func(i, j int) bool { return leValue(les[i]) < leValue(les[j]) })
		lines = append(lines, series+" le="+strings.Join(les, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// leValue parses a quoted le bound ("+Inf" included) for sorting.
func leValue(quoted string) float64 {
	v, _ := strconv.ParseFloat(strings.Trim(quoted, `"`), 64)
	return v
}

// splitLE removes the le label from a rendered label block, returning
// the remaining block and the le value.
func splitLE(labels string) (rest, le string) {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, kv := range strings.Split(inner, ",") {
		if v, ok := strings.CutPrefix(kv, "le="); ok {
			le = v
			continue
		}
		kept = append(kept, kv)
	}
	if len(kept) > 0 {
		rest = "{" + strings.Join(kept, ",") + "}"
	}
	return rest, le
}

// TestMetricsSurfaceGolden pins every family, HELP and TYPE line and
// series label set a store-backed node exposes at /metrics after a fixed
// script: a build traced under the node's tracer, an all-job and a
// per-job estimate, a cache-hit repeat, and one re-measure tick.
func TestMetricsSurfaceGolden(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := Open(Config{
		Registry:   reg,
		Dir:        t.TempDir(),
		Resilience: server.DefaultResilience(),
		Log:        io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			n.Close()
		}
	})
	ctx := obs.WithTracer(context.Background(), n.Tracer())
	b, err := NewBuild(ctx, testDays, testClusters, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Serve(ctx, b); err != nil {
		t.Fatal(err)
	}
	h := n.Server.Handler()
	for _, path := range []string{
		"/api/estimate?feature=feature1",
		"/api/estimate?feature=feature1&job=WSC",
		"/api/estimate?feature=feature1",
	} {
		if code, body := get(t, h, path); code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, code, body)
		}
	}
	tick, err := json.Marshal(map[string][]int{"changed": {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/tick", bytes.NewReader(tick)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/tick = %d %s", rec.Code, rec.Body.String())
	}
	// Closing drains the trace exporter and flushes the store, so every
	// series their background work resolves exists before the scrape.
	closed = true
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	code, text := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	got := renderMetricsSurface(t, text)

	path := filepath.Join("testdata", "metrics.golden")
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
		t.Errorf("/metrics surface differs from %s (rerun with -update if intended):\n--- got\n%s--- want\n%s", path, got, want)
	}
}
