// Structured, leveled logging for the serving layer. A Logger emits
// wide events — one line per occurrence with the context attached as
// key=value attributes — instead of interpolated prose, so the same
// record is greppable text for a human, machine-parseable JSON for
// tooling, and (via Hook) an exportable Event for durable storage.
//
// Design constraints, shared with the rest of obs:
//
//   - stdlib only, no allocation-heavy reflection on the hot path;
//   - every method is nil-receiver safe, so call sites need no logger
//     checks and a disabled logger costs one comparison;
//   - the clock is injected (LoggerOptions.Now), so golden tests of the
//     rendered output stay byte-identical run to run;
//   - attributes render in call order — never via a map — keeping the
//     output deterministic.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. The zero value is LevelInfo, so a
// zero-valued LoggerOptions gives a conventional production logger.
type Level int8

// Severities, least to most severe.
const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level as it renders in output.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l == LevelInfo:
		return "info"
	case l == LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to
// its Level, for CLI -log-level flags.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
	}
}

// Event is one emitted log record: what a Hook receives and what the
// server's durable event export journals.
type Event struct {
	Time  time.Time `json:"ts"`
	Level Level     `json:"-"`
	Msg   string    `json:"msg"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// KV builds one attribute. Attrs render in argument order.
func KV(key string, value interface{}) Attr { return Attr{Key: key, Value: value} }

// LoggerOptions tunes NewLogger. The zero value is a text logger at
// LevelInfo on the wall clock with no metrics or hook.
type LoggerOptions struct {
	// Level is the minimum severity emitted.
	Level Level
	// JSON switches the line format from key=value text to one JSON
	// object per line.
	JSON bool
	// Now is the clock stamped on events; nil means time.Now. Inject a
	// fixed clock to make rendered output byte-identical in tests.
	Now func() time.Time
	// Registry counts emitted events into flare_log_events_total{level};
	// nil records nothing.
	Registry *Registry
	// Hook, when non-nil, receives every emitted Event after the line is
	// written (the durable event-export tap). It runs on the caller's
	// goroutine and must not block.
	Hook func(Event)
}

// Logger is a leveled structured logger. A nil *Logger is valid and
// silently discards everything.
type Logger struct {
	mu     *sync.Mutex
	out    io.Writer
	level  Level
	json   bool
	now    func() time.Time
	hook   func(Event)
	counts map[Level]*Counter
}

// NewLogger builds a logger writing one event per line to w.
func NewLogger(w io.Writer, opts LoggerOptions) *Logger {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	l := &Logger{
		mu:    &sync.Mutex{},
		out:   w,
		level: opts.Level,
		json:  opts.JSON,
		now:   opts.Now,
		hook:  opts.Hook,
	}
	l.counts = make(map[Level]*Counter, 4)
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		l.counts[lv] = LogEvents.In(opts.Registry, lv.String())
	}
	return l
}

// Enabled reports whether events at lv would be emitted.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.level
}

// Debug emits a debug event.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.emit(LevelDebug, msg, attrs) }

// Info emits an info event.
func (l *Logger) Info(msg string, attrs ...Attr) { l.emit(LevelInfo, msg, attrs) }

// Warn emits a warning event.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.emit(LevelWarn, msg, attrs) }

// Error emits an error event.
func (l *Logger) Error(msg string, attrs ...Attr) { l.emit(LevelError, msg, attrs) }

func (l *Logger) emit(lv Level, msg string, attrs []Attr) {
	if !l.Enabled(lv) {
		return
	}
	ev := Event{Time: l.now(), Level: lv, Msg: msg}
	if len(attrs) > 0 {
		ev.Attrs = append([]Attr(nil), attrs...)
	}
	var buf []byte
	if l.json {
		buf = appendJSONEvent(nil, ev)
	} else {
		buf = appendTextEvent(nil, ev)
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	if l.out != nil {
		// A lost log line has no caller to report to; the next write
		// either works or the process is past caring.
		_, _ = l.out.Write(buf)
	}
	l.mu.Unlock()
	l.counts[lv].Inc()
	if l.hook != nil {
		l.hook(ev)
	}
}

// timeFormat keeps millisecond precision — enough to order events,
// short enough to scan — and renders injected test clocks verbatim.
const timeFormat = "2006-01-02T15:04:05.000Z07:00"

// appendTextEvent renders `ts=... level=... msg=... k=v ...`.
func appendTextEvent(buf []byte, ev Event) []byte {
	buf = append(buf, "ts="...)
	buf = ev.Time.AppendFormat(buf, timeFormat)
	buf = append(buf, " level="...)
	buf = append(buf, ev.Level.String()...)
	buf = append(buf, " msg="...)
	buf = appendTextValue(buf, ev.Msg)
	for _, a := range ev.Attrs {
		buf = append(buf, ' ')
		buf = append(buf, a.Key...)
		buf = append(buf, '=')
		buf = appendTextValue(buf, a.Value)
	}
	return buf
}

// appendTextValue renders one attribute value; strings are quoted only
// when they contain spaces, quotes, or control characters.
func appendTextValue(buf []byte, v interface{}) []byte {
	switch x := v.(type) {
	case string:
		if strings.ContainsAny(x, " \t\n\"=") || x == "" {
			return strconv.AppendQuote(buf, x)
		}
		return append(buf, x...)
	case error:
		return appendTextValue(buf, x.Error())
	case time.Duration:
		return append(buf, x.String()...)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	case float64:
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(buf, x)
	default:
		return appendTextValue(buf, fmt.Sprint(x))
	}
}

// appendJSONEvent renders one JSON object with attrs flattened in
// order after the reserved ts/level/msg keys.
func appendJSONEvent(buf []byte, ev Event) []byte {
	buf = append(buf, `{"ts":"`...)
	buf = ev.Time.AppendFormat(buf, timeFormat)
	buf = append(buf, `","level":"`...)
	buf = append(buf, ev.Level.String()...)
	buf = append(buf, `","msg":`...)
	buf = appendJSONValue(buf, ev.Msg)
	for _, a := range ev.Attrs {
		buf = append(buf, ',')
		buf = appendJSONValue(buf, a.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, a.Value)
	}
	return append(buf, '}')
}

func appendJSONValue(buf []byte, v interface{}) []byte {
	switch x := v.(type) {
	case error:
		v = x.Error()
	case time.Duration:
		v = x.String()
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(v))
	}
	return append(buf, b...)
}
