package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// StageHistogram is the registry family every finished span observes its
// duration into, labelled by stage (= span name). This is what makes
// "pipeline stage timings" appear at /metrics without extra plumbing.
const StageHistogram = "flare_stage_duration_seconds"

// Span is one timed region of the pipeline. Spans form a tree: a span
// started from a context that already carries a span becomes its child.
// All methods are nil-safe, so instrumented code needs no tracer checks —
// without a Tracer in the context, StartSpan returns a nil span and the
// instrumentation costs two pointer lookups.
type Span struct {
	tracer *Tracer
	parent *Span

	mu       sync.Mutex
	name     string
	start    time.Time
	duration time.Duration
	attrs    []Attr
	children []*Span
	ended    bool
	// inline backs attrs until a span sets more than two attributes, so
	// the common span (a replay.scenario's cluster and scenario ID)
	// grows no slice.
	inline [2]Attr
}

// Attr is one span attribute, recorded in SetAttr order.
type Attr struct {
	Key   string      `json:"key"`
	Value interface{} `json:"value"`
}

// SetAttr records an attribute on the span (scenario count, cluster
// count, iterations, ...). Later values for the same key override.
func (s *Span) SetAttr(key string, value interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span, observes its duration into the tracer's stage
// histogram, and — for root spans — records the tree on the tracer.
// End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.duration = time.Since(s.start)
	name, d := s.name, s.duration
	s.mu.Unlock()

	if s.tracer != nil {
		s.tracer.stageHistogram(name).Observe(d.Seconds())
		if s.parent == nil {
			s.tracer.recordRoot(s)
		}
	}
}

// Duration returns the span's recorded duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duration
}

// Name returns the span name ("" for the nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SpanSnapshot is the JSON form of a span tree.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"duration_ms"`
	InFlight   bool           `json:"in_flight,omitempty"`
	Attrs      []Attr         `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies this span's tree (zero value for a nil span) — how a
// single request trace is rendered for durable export without touching
// the tracer's shared ring.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshot()
}

// snapshot copies the span tree under each node's lock.
func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	out := SpanSnapshot{
		Name:       s.name,
		Start:      s.start,
		DurationMs: float64(s.duration) / float64(time.Millisecond),
		InFlight:   !s.ended,
		Attrs:      append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if out.InFlight {
		out.DurationMs = float64(time.Since(out.Start)) / float64(time.Millisecond)
	}
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot())
	}
	return out
}

// DefaultTraceCapacity is how many root spans a Tracer retains.
const DefaultTraceCapacity = 32

// Tracer collects completed root spans into a fixed-capacity ring.
// Once the ring is full every new root evicts the oldest one; evictions
// are counted in flare_trace_dropped_total so operators can see when
// the live window is turning over faster than it is being read (the
// durable trace export, not this ring, is the history of record).
type Tracer struct {
	reg     *Registry
	dropped *Counter
	stages  sync.Map // span name -> *Histogram, resolved once per name

	mu   sync.Mutex
	ring []*Span // fixed ring storage, nil slots until first wrap
	head int     // index of the oldest retained root
	n    int     // retained count, <= len(ring)
}

// NewTracer returns a tracer observing stage durations into reg (which
// may be nil to record spans without histogram exposition). It retains
// the DefaultTraceCapacity most recent root spans.
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{reg: reg, ring: make([]*Span, DefaultTraceCapacity),
		dropped: reg.Counter("flare_trace_dropped_total",
			"completed root spans evicted from the tracer's bounded ring")}
}

// Registry returns the registry stage durations are observed into; nil
// for a nil tracer or one built without a registry.
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// stageHistogram returns the StageHistogram series for a span name,
// resolving it through the registry only the first time the name ends
// (on a nil registry, one detached histogram per name).
func (t *Tracer) stageHistogram(name string) *Histogram {
	if h, ok := t.stages.Load(name); ok {
		return h.(*Histogram)
	}
	h := t.reg.Histogram(StageHistogram,
		"duration of FLARE pipeline stages and server operations by span name",
		nil, "stage", name)
	t.stages.Store(name, h)
	return h
}

func (t *Tracer) recordRoot(s *Span) {
	t.mu.Lock()
	if t.n < len(t.ring) {
		t.ring[(t.head+t.n)%len(t.ring)] = s
		t.n++
		t.mu.Unlock()
		return
	}
	t.ring[t.head] = s
	t.head = (t.head + 1) % len(t.ring)
	t.mu.Unlock()
	t.dropped.Inc()
}

// Snapshot returns the retained root span trees, oldest first.
func (t *Tracer) Snapshot() []SpanSnapshot {
	t.mu.Lock()
	roots := make([]*Span, 0, t.n)
	for i := 0; i < t.n; i++ {
		roots = append(roots, t.ring[(t.head+i)%len(t.ring)])
	}
	t.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.snapshot())
	}
	return out
}

// traceDump is the file format written by WriteJSON (flare -trace-out).
type traceDump struct {
	Roots []SpanSnapshot `json:"roots"`
}

// WriteJSON writes the retained root spans as an indented JSON document
// with a top-level "roots" array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceDump{Roots: t.Snapshot()})
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context carrying the tracer; spans started from it
// (and its descendants) are recorded there.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan begins a span named name. If the context carries a span, the
// new span becomes its child; otherwise it is a root span on the
// context's tracer. Without a tracer the returned span is nil (and safe
// to use). The returned context carries the new span for further nesting.
//
//	ctx, span := obs.StartSpan(ctx, "analyze.kmeans")
//	defer span.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var tracer *Tracer
	if parent != nil {
		tracer = parent.tracer
	} else {
		tracer = TracerFrom(ctx)
		if tracer == nil {
			return ctx, nil
		}
	}
	s := &Span{tracer: tracer, parent: parent, name: name, start: time.Now()}
	s.attrs = s.inline[:0]
	if parent != nil {
		parent.addChild(s)
	}
	return context.WithValue(ctx, spanKey{}, s), s
}
