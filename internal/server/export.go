// Durable wide-event export. Completed request traces and structured
// log events flow through a buffered queue into dedicated metricdb
// tables (journaled by the store-backed backend when one is attached),
// so /api/trace can page through request history across restarts and
// regressions are diagnosable after the fact, not only while a human
// is watching. Export is strictly off the request path: the middleware
// enqueues without blocking and a full queue drops (counted) rather
// than stalling a response.
package server

import (
	"encoding/json"
	"fmt"

	"flare/internal/metricdb"
	"flare/internal/obs"
)

// Export table names. They live beside the estimates audit table in the
// attached metric database, so /api/db/query can inspect them too.
const (
	tracesTable = "request_traces"
	eventsTable = "request_events"
)

// DefaultExportRetain bounds each export table's row count.
const DefaultExportRetain = 1024

// exportQueueDepth is the export queue's capacity. It absorbs a burst of
// requests while the single worker journals earlier records; the
// middleware never waits on the queue, so past this depth records are
// dropped (counted) rather than stalling responses.
const exportQueueDepth = 256

// ExportOptions tunes EnableTraceExport.
type ExportOptions struct {
	// Retain is the maximum rows kept per export table; older rows are
	// truncated away (durably, when the DB is store-backed). <= 0 means
	// DefaultExportRetain.
	Retain int
}

// exportRecord is one queued export: exactly one of trace/event is set,
// or flush marks a synchronisation barrier.
type exportRecord struct {
	trace *traceRecord
	event *obs.Event
	flush chan struct{} // closed by the worker when it reaches this record
}

// traceRecord is one completed request, flattened for the traces table.
type traceRecord struct {
	id          string
	route       string
	method      string
	status      int
	durationMs  float64
	startUnixMs int64
	traceJSON   string
}

// traceExporter drains the export queue into the metricdb tables on a
// single goroutine, enforcing retention after each append.
type traceExporter struct {
	traces *metricdb.Table
	events *metricdb.Table
	retain int

	ch   chan exportRecord
	done chan struct{}

	exportedTraces *obs.Counter
	exportedEvents *obs.Counter
	failures       *obs.Counter
	dropped        *obs.Counter
}

// exportTables gets or creates both export tables in db.
func exportTables(db *metricdb.DB) (traces, events *metricdb.Table, err error) {
	traces, err = db.GetOrCreateTable(tracesTable, []metricdb.Column{
		{Name: "id", Type: metricdb.TypeString},
		{Name: "route", Type: metricdb.TypeString},
		{Name: "method", Type: metricdb.TypeString},
		{Name: "status", Type: metricdb.TypeInt},
		{Name: "duration_ms", Type: metricdb.TypeFloat},
		{Name: "start_unix_ms", Type: metricdb.TypeInt},
		{Name: "trace", Type: metricdb.TypeString},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: creating %s table: %w", tracesTable, err)
	}
	events, err = db.GetOrCreateTable(eventsTable, []metricdb.Column{
		{Name: "ts_unix_ms", Type: metricdb.TypeInt},
		{Name: "level", Type: metricdb.TypeString},
		{Name: "msg", Type: metricdb.TypeString},
		{Name: "attrs", Type: metricdb.TypeString},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: creating %s table: %w", eventsTable, err)
	}
	return traces, events, nil
}

func newTraceExporter(db *metricdb.DB, reg *obs.Registry, opts ExportOptions) (*traceExporter, error) {
	traces, events, err := exportTables(db)
	if err != nil {
		return nil, err
	}
	if opts.Retain <= 0 {
		opts.Retain = DefaultExportRetain
	}
	e := &traceExporter{
		traces:         traces,
		events:         events,
		retain:         opts.Retain,
		ch:             make(chan exportRecord, exportQueueDepth),
		done:           make(chan struct{}),
		exportedTraces: obs.TraceExported.In(reg, tracesTable),
		exportedEvents: obs.TraceExported.In(reg, eventsTable),
		failures:       obs.TraceExportFailures.In(reg),
		dropped:        obs.TraceExportDropped.In(reg),
	}
	go e.run()
	return e, nil
}

// enqueueTrace offers a completed request trace; never blocks.
func (e *traceExporter) enqueueTrace(rec traceRecord) {
	select {
	case e.ch <- exportRecord{trace: &rec}:
	default:
		e.dropped.Inc()
	}
}

// enqueueEvent offers a log event; never blocks. It is the server's
// logger Hook, so it must stay cheap on the caller's goroutine.
func (e *traceExporter) enqueueEvent(ev obs.Event) {
	select {
	case e.ch <- exportRecord{event: &ev}:
	default:
		e.dropped.Inc()
	}
}

// Flush blocks until every record enqueued before the call is applied.
func (e *traceExporter) Flush() {
	barrier := make(chan struct{})
	select {
	case e.ch <- exportRecord{flush: barrier}:
		select {
		case <-barrier:
		case <-e.done: // worker already stopped
		}
	case <-e.done:
	}
}

// Close drains the queue and stops the worker. The exporter must not be
// used afterwards.
func (e *traceExporter) Close() {
	close(e.ch)
	<-e.done
}

// retentionSlack delays truncation until a batch of rows accumulates
// past the cap, amortising the marker append instead of journaling one
// per insert.
func retentionSlack(retain int) int {
	slack := retain / 8
	if slack < 1 {
		slack = 1
	}
	return slack
}

func (e *traceExporter) run() {
	defer close(e.done)
	slack := retentionSlack(e.retain)
	for rec := range e.ch {
		switch {
		case rec.flush != nil:
			close(rec.flush)
			continue
		case rec.trace != nil:
			tr := rec.trace
			err := e.traces.Insert(metricdb.Row{
				metricdb.String(tr.id),
				metricdb.String(tr.route),
				metricdb.String(tr.method),
				metricdb.Int(int64(tr.status)),
				metricdb.Float(tr.durationMs),
				metricdb.Int(tr.startUnixMs),
				metricdb.String(tr.traceJSON),
			})
			e.settle(e.traces, e.exportedTraces, slack, err)
		case rec.event != nil:
			ev := rec.event
			attrs := "[]"
			if len(ev.Attrs) > 0 {
				if b, err := json.Marshal(ev.Attrs); err == nil {
					attrs = string(b)
				}
			}
			err := e.events.Insert(metricdb.Row{
				metricdb.Int(ev.Time.UnixMilli()),
				metricdb.String(ev.Level.String()),
				metricdb.String(ev.Msg),
				metricdb.String(attrs),
			})
			e.settle(e.events, e.exportedEvents, slack, err)
		}
	}
}

// settle accounts one insert and applies retention to its table.
func (e *traceExporter) settle(t *metricdb.Table, exported *obs.Counter, slack int, err error) {
	if err != nil {
		e.failures.Inc()
		return
	}
	exported.Inc()
	if t.Len() >= e.retain+slack {
		if _, err := t.TruncateHead(e.retain); err != nil {
			e.failures.Inc()
		}
	}
}
