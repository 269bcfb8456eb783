package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"flare/internal/obs"
)

// statusWriter captures the response status code for telemetry.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedRoute reports whether a route gets per-request trace capture.
// Scrape, probe, and introspection endpoints are excluded: tracing the
// poller that reads the traces would drown real request history.
func tracedRoute(route string) bool {
	switch route {
	case "/metrics", "/healthz", "/api/health", "/api/trace":
		return false
	}
	return !strings.HasPrefix(route, "/debug/pprof")
}

// nextRequestID mints a process-unique request ID. The base36 start
// timestamp prefix keeps IDs from colliding across restarts, so they
// stay unique within the durable trace history too.
func (s *Server) nextRequestID() string {
	return s.reqBase + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// instrument wraps a handler with the request-telemetry middleware: a
// per-route latency histogram, a per-route/status counter, and — for
// traced routes — a request ID, a root span capturing the request's
// stage tree, a structured wide event, and durable trace export. route
// is the registered mux pattern, used as the label value so cardinality
// stays bounded by the route table regardless of what paths clients
// request.
func (s *Server) instrument(route string, next http.Handler) http.Handler {
	traced := tracedRoute(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		var span *obs.Span
		var reqID string
		req := r
		if traced {
			reqID = s.nextRequestID()
			ctx := obs.WithTracer(r.Context(), s.tracer)
			ctx, span = obs.StartSpan(ctx, "http."+route)
			span.SetAttr("request_id", reqID)
			span.SetAttr("method", r.Method)
			if l := s.logger; l != nil {
				ctx = obs.WithLogger(ctx, l.With(obs.KV("request_id", reqID)))
			}
			sw.Header().Set("X-Request-Id", reqID)
			req = r.WithContext(ctx)
		}

		defer func() {
			elapsed := time.Since(start)
			s.reg.Counter("flare_http_requests_total",
				"HTTP requests served by route and status code",
				"route", route, "code", strconv.Itoa(sw.status)).Inc()
			s.reg.Histogram("flare_http_request_duration_seconds",
				"HTTP request latency by route", nil,
				"route", route).Observe(elapsed.Seconds())
			if span != nil {
				span.SetAttr("status", sw.status)
				span.End()
			}
			if traced {
				s.logger.Info("request",
					obs.KV("request_id", reqID),
					obs.KV("method", r.Method),
					obs.KV("route", route),
					obs.KV("path", r.URL.RequestURI()),
					obs.KV("status", sw.status),
					obs.KV("duration_ms", float64(elapsed)/float64(time.Millisecond)))
			}
			if span != nil && s.exporter != nil {
				traceJSON := "{}"
				if b, err := json.Marshal(span.Snapshot()); err == nil {
					traceJSON = string(b)
				}
				s.exporter.enqueueTrace(traceRecord{
					id:          reqID,
					route:       route,
					method:      r.Method,
					status:      sw.status,
					durationMs:  float64(elapsed) / float64(time.Millisecond),
					startUnixMs: start.UnixMilli(),
					traceJSON:   traceJSON,
				})
			}
		}()
		next.ServeHTTP(sw, req)
	})
}
