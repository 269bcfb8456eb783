package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one span of the traced run, recorded by the benchmark around
// a call into a layer. Times are nanoseconds since the log's start. Ops is
// the number of calls a loop span covers (0 means one).
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"request_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"`
}

func (r spanRec) dur() int64 { return r.End - r.Start }

// spanLog keeps the traced run's spans in memory until they are written
// out at the end. A nil *spanLog records nothing, which is how the
// untraced run uses the same code paths.
type spanLog struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

func (l *spanLog) since(t time.Time) int64 {
	if l == nil {
		return 0
	}
	return int64(t.Sub(l.t0))
}

func (l *spanLog) add(recs ...spanRec) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, recs...)
	l.mu.Unlock()
}

// child returns an empty log on l's clock whose IDs continue l's. l must
// record nothing until the child is merged back.
func (l *spanLog) child() *spanLog {
	c := &spanLog{t0: l.t0}
	c.next.Store(l.next.Load())
	return c
}

// merge appends a child's spans to l, and l's IDs continue after its.
func (l *spanLog) merge(c *spanLog) {
	l.next.Store(c.next.Load())
	l.add(c.spans...)
}

// timed runs fn inside a new span and records it.
func (l *spanLog) timed(name string, parent int64, req string, fn func() error) error {
	id := l.newID()
	start := time.Now()
	err := fn()
	end := time.Now()
	l.add(spanRec{ID: id, Parent: parent, Name: name, Req: req, Start: l.since(start), End: l.since(end)})
	return err
}

// loop times n calls of fn as one span and returns the mean
// nanoseconds per call.
func (l *spanLog) loop(name string, n int, fn func(i int) error) (float64, error) {
	id := l.newID()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	end := time.Now()
	l.add(spanRec{ID: id, Name: name, Start: l.since(start), End: l.since(end), Ops: n})
	return float64(end.Sub(start)) / float64(n), nil
}

// named returns the recorded spans called name, in recording order.
func (l *spanLog) named(name string) []spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []spanRec
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMs is the mean duration per call of the spans called name, in
// milliseconds; 0 when there are none.
func (l *spanLog) meanMs(name string) float64 {
	var total int64
	calls := 0
	for _, s := range l.named(name) {
		total += s.dur()
		calls += max(s.Ops, 1)
	}
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(calls) / 1e6
}

// selfTimes maps every span ID to its self time: its duration minus the
// part of its interval that its children cover.
func selfTimes(spans []spanRec) map[int64]int64 {
	children := make(map[int64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeFile writes the spans as {"spans":[...]}.
func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []spanRec `json:"spans"`
	}{l.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
