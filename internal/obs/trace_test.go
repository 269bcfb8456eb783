package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "pipeline")
	root.SetAttr("scenarios", 448)
	cctx, child := StartSpan(ctx, "analyze")
	_, grand := StartSpan(cctx, "analyze.kmeans")
	grand.SetAttr("k", 18)
	grand.End()
	child.End()
	_, sib := StartSpan(ctx, "evaluate")
	sib.End()
	root.End()

	roots := tr.Snapshot()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	r := roots[0]
	if r.Name != "pipeline" || r.InFlight {
		t.Errorf("root = %+v", r)
	}
	if len(r.Attrs) != 1 || r.Attrs[0].Key != "scenarios" {
		t.Errorf("root attrs = %+v", r.Attrs)
	}
	if len(r.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(r.Children))
	}
	if r.Children[0].Name != "analyze" || r.Children[1].Name != "evaluate" {
		t.Errorf("child names = %s, %s", r.Children[0].Name, r.Children[1].Name)
	}
	k := r.Children[0].Children
	if len(k) != 1 || k[0].Name != "analyze.kmeans" {
		t.Fatalf("grandchildren = %+v", k)
	}
	if k[0].Attrs[0].Key != "k" || k[0].Attrs[0].Value != 18 {
		t.Errorf("kmeans attrs = %+v", k[0].Attrs)
	}
}

func TestSpanEndObservesStageHistogram(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "profile")
	s.End()
	s.End() // idempotent: must not double-observe

	h := reg.Histogram(StageHistogram, "", nil, "stage", "profile")
	if h.Count() != 1 {
		t.Errorf("stage histogram count = %d, want 1", h.Count())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `flare_stage_duration_seconds_count{stage="profile"} 1`) {
		t.Errorf("exposition missing stage series:\n%s", b.String())
	}
}

func TestNilSpanSafety(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "untracked")
	if s != nil {
		t.Fatal("span without tracer should be nil")
	}
	s.SetAttr("k", 1)
	s.End()
	if d := s.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	if n := s.Name(); n != "" {
		t.Errorf("nil span name = %q", n)
	}
	// Children of a nil span are also nil.
	_, c := StartSpan(ctx, "child")
	if c != nil {
		t.Error("child of untracked context should be nil")
	}
}

func TestTracerRetainsBoundedRoots(t *testing.T) {
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 40; i++ {
		_, s := StartSpan(ctx, "r")
		s.End()
	}
	if got := len(tr.Snapshot()); got != 32 {
		t.Errorf("retained roots = %d, want 32", got)
	}
}

func TestTracerRingEvictsOldestAndCounts(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	ctx := WithTracer(context.Background(), tr)
	const roots = DefaultTraceCapacity + 2
	for i := 0; i < roots; i++ {
		_, s := StartSpan(ctx, fmt.Sprintf("r%d", i))
		s.End()
	}
	snap := tr.Snapshot()
	if len(snap) != DefaultTraceCapacity {
		t.Fatalf("retained = %d, want %d", len(snap), DefaultTraceCapacity)
	}
	// Oldest first: r0 and r1 were evicted.
	for i, root := range snap {
		if want := fmt.Sprintf("r%d", i+2); root.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, root.Name, want)
		}
	}
	dropped := reg.Counter("flare_trace_dropped_total", "").Value()
	if dropped != 2 {
		t.Errorf("flare_trace_dropped_total = %d, want 2", dropped)
	}
}

// TestConcurrentRootRecording wraps the ring with concurrent root spans
// and snapshots; run with -race. Retention must never exceed capacity
// and every completed root beyond it must be counted as dropped.
func TestConcurrentRootRecording(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	ctx := WithTracer(context.Background(), tr)
	const workers, iters = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, s := StartSpan(ctx, "root")
				s.End()
				if n := len(tr.Snapshot()); n > DefaultTraceCapacity {
					t.Errorf("snapshot len %d exceeds capacity", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	dropped := reg.Counter("flare_trace_dropped_total", "").Value()
	if want := uint64(workers*iters - DefaultTraceCapacity); dropped != want {
		t.Errorf("dropped = %d, want %d", dropped, want)
	}
}

func TestSetAttrOverrides(t *testing.T) {
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "x")
	s.SetAttr("k", 1)
	s.SetAttr("k", 2)
	s.End()
	attrs := tr.Snapshot()[0].Attrs
	if len(attrs) != 1 || attrs[0].Value != 2 {
		t.Errorf("attrs = %+v", attrs)
	}
}

func TestWriteJSON(t *testing.T) {
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	sctx, s := StartSpan(ctx, "root")
	_, c := StartSpan(sctx, "child")
	c.End()
	s.End()
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"roots"`, `"name": "root"`, `"name": "child"`, `"duration_ms"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("trace JSON missing %q:\n%s", want, b.String())
		}
	}
}

// TestConcurrentSpans starts sibling spans from many goroutines under one
// root while snapshots run; run with -race.
func TestConcurrentSpans(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	ctx := WithTracer(context.Background(), tr)
	rctx, root := StartSpan(ctx, "root")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, s := StartSpan(rctx, "worker")
				s.SetAttr("i", i)
				_ = tr.Snapshot()
				s.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	snap := tr.Snapshot()
	if len(snap) != 1 || len(snap[0].Children) != 8*50 {
		t.Fatalf("root children = %d, want 400", len(snap[0].Children))
	}
	// Workers resolving the stage histogram concurrently share one series.
	if got := reg.Histogram(StageHistogram, "", nil, "stage", "worker").Count(); got != 8*50 {
		t.Errorf("worker stage count = %d, want 400", got)
	}
}
