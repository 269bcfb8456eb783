package obs

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a deterministic strictly-increasing clock so golden
// log output is byte-identical run to run.
func fixedClock() func() time.Time {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := base.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}
}

func TestTextGolden(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LoggerOptions{Now: fixedClock()})
	l.Info("server started", KV("addr", ":8080"), KV("durable", true))
	l.Warn("slow request", KV("route", "/api/estimate"), KV("ms", 1250.5))
	l.Error("persist failed", KV("err", errors.New("wal: disk full")), KV("attempt", 3))

	want := "" +
		"ts=2026-08-07T12:00:00.000Z level=info msg=\"server started\" addr=:8080 durable=true\n" +
		"ts=2026-08-07T12:00:00.001Z level=warn msg=\"slow request\" route=/api/estimate ms=1250.5\n" +
		"ts=2026-08-07T12:00:00.002Z level=error msg=\"persist failed\" err=\"wal: disk full\" attempt=3\n"
	if got := b.String(); got != want {
		t.Errorf("text output mismatch:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestJSONGolden(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LoggerOptions{JSON: true, Now: fixedClock()})
	l.Info("trace exported", KV("id", "req-1"), KV("spans", 4), KV("dur", 250*time.Millisecond))

	want := `{"ts":"2026-08-07T12:00:00.000Z","level":"info","msg":"trace exported","id":"req-1","spans":4,"dur":"250ms"}` + "\n"
	if got := b.String(); got != want {
		t.Errorf("json output mismatch:\ngot:  %swant: %s", got, want)
	}
}

func TestLevelFiltering(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LoggerOptions{Level: LevelWarn, Now: fixedClock()})
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	out := b.String()
	if strings.Contains(out, "msg=d") || strings.Contains(out, "msg=i") {
		t.Errorf("filtered levels leaked:\n%s", out)
	}
	if !strings.Contains(out, "msg=w") || !strings.Contains(out, "msg=e") {
		t.Errorf("warn/error missing:\n%s", out)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Error("Enabled disagrees with level filter")
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", KV("k", 1))
	l.Warn("x")
	l.Error("x")
	if l.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
}

func TestLoggerCountsEvents(t *testing.T) {
	reg := NewRegistry()
	l := NewLogger(io.Discard, LoggerOptions{Level: LevelDebug, Registry: reg, Now: fixedClock()})
	l.Debug("d")
	l.Info("i")
	l.Info("i2")
	l.Error("e")
	for lv, want := range map[Level]uint64{LevelDebug: 1, LevelInfo: 2, LevelWarn: 0, LevelError: 1} {
		got := reg.Counter("flare_log_events_total", "", "level", lv.String()).Value()
		if got != want {
			t.Errorf("flare_log_events_total{level=%q} = %d, want %d", lv, got, want)
		}
	}
}

func TestLoggerHook(t *testing.T) {
	var events []Event
	l := NewLogger(io.Discard, LoggerOptions{
		Now:  fixedClock(),
		Hook: func(ev Event) { events = append(events, ev) },
	})
	l.Info("a", KV("k", "v"))
	l.Warn("b")
	if len(events) != 2 {
		t.Fatalf("hook events = %d, want 2", len(events))
	}
	if events[0].Msg != "a" || events[0].Level != LevelInfo ||
		len(events[0].Attrs) != 1 || events[0].Attrs[0].Key != "k" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Msg != "b" || events[1].Level != LevelWarn {
		t.Errorf("event 1 = %+v", events[1])
	}
}

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		ok   bool
	}{
		{"debug", LevelDebug, true},
		{"info", LevelInfo, true},
		{"", LevelInfo, true},
		{"WARN", LevelWarn, true},
		{"warning", LevelWarn, true},
		{"error", LevelError, true},
		{"fatal", LevelInfo, false},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestTextValueQuoting(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LoggerOptions{Now: fixedClock()})
	l.Info("q",
		KV("empty", ""),
		KV("eq", "a=b"),
		KV("nl", "a\nb"),
		KV("plain", "ok"),
		KV("stringer", time.Duration(1500)*time.Millisecond))
	out := b.String()
	for _, want := range []string{`empty=""`, `eq="a=b"`, `nl="a\nb"`, " plain=ok", "stringer=1.5s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONAttrsStayOrdered(t *testing.T) {
	// Attribute order must be call order, never map order: emit many keys
	// and assert their rendered positions.
	var b strings.Builder
	l := NewLogger(&b, LoggerOptions{JSON: true, Now: fixedClock()})
	attrs := make([]Attr, 10)
	for i := range attrs {
		attrs[i] = KV(fmt.Sprintf("k%02d", i), i)
	}
	l.Info("ordered", attrs...)
	out := b.String()
	last := -1
	for i := range attrs {
		pos := strings.Index(out, fmt.Sprintf(`"k%02d"`, i))
		if pos < 0 || pos < last {
			t.Fatalf("attr k%02d out of order (pos %d, prev %d):\n%s", i, pos, last, out)
		}
		last = pos
	}
}

// TestConcurrentLogging hammers one logger from many goroutines; run
// with -race. Every line must come out whole (no interleaving).
func TestConcurrentLogging(t *testing.T) {
	var b syncBuffer
	reg := NewRegistry()
	l := NewLogger(&b, LoggerOptions{Registry: reg, Now: fixedClock()})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("tick", KV("worker", w), KV("i", i))
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("lines = %d, want 400", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "ts=") || !strings.Contains(ln, "msg=tick") {
			t.Fatalf("mangled line: %q", ln)
		}
	}
	if got := reg.Counter("flare_log_events_total", "", "level", "info").Value(); got != 400 {
		t.Errorf("event count = %d, want 400", got)
	}
}

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func BenchmarkEventLog(b *testing.B) {
	l := NewLogger(io.Discard, LoggerOptions{Now: fixedClock()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Info("request complete",
			KV("route", "/api/estimate"), KV("code", 200), KV("ms", 12.5))
	}
}

func BenchmarkEventLogJSON(b *testing.B) {
	l := NewLogger(io.Discard, LoggerOptions{JSON: true, Now: fixedClock()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Info("request complete",
			KV("route", "/api/estimate"), KV("code", 200), KV("ms", 12.5))
	}
}

func BenchmarkEventLogDisabled(b *testing.B) {
	l := NewLogger(io.Discard, LoggerOptions{Level: LevelWarn})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Debug("suppressed", KV("route", "/api/estimate"), KV("code", 200))
	}
}
