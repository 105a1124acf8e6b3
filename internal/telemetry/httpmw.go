package telemetry

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTPMetrics is the edge instrumentation of an HTTP service: request
// counts and duration histograms by (endpoint, status), plus an in-flight
// gauge. Construct with NewHTTPMetrics and wrap handlers with
// MiddlewareWith.
type HTTPMetrics struct {
	requests *CounterVec
	duration *HistogramVec
	inflight *Gauge
}

// NewHTTPMetrics registers the edge metric families under the given
// prefix (e.g. "serve" yields serve_http_requests_total).
func NewHTTPMetrics(reg *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		requests: reg.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "status"),
		duration: reg.HistogramVec(prefix+"_http_request_duration_seconds",
			"End-to-end HTTP request latency, by endpoint and status code.",
			nil, "endpoint", "status"),
		inflight: reg.Gauge(prefix+"_http_requests_inflight",
			"HTTP requests currently being served."),
	}
}

// knownEndpoints bounds the endpoint label's cardinality: every route the
// oracle service exposes, with anything else (scans, typos) folded into
// "other" so an adversarial client cannot mint unbounded series.
var knownEndpoints = map[string]bool{
	"/v1/depth": true, "/v1/curve": true, "/v1/failure": true,
	"/v1/cell": true, "/v1/bracket": true, "/v1/batch": true,
	"/healthz": true, "/healthz/live": true, "/healthz/ready": true,
	"/metrics": true, "/debug/traces": true,
}

// Endpoint normalizes a request path onto the bounded endpoint label set.
func Endpoint(path string) string {
	if knownEndpoints[path] {
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}

// statusWriter captures the response status and body size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// quietPaths are endpoints whose request logs would be pure noise —
// probe polls and scrapes arrive many times a second. Their metrics are
// still recorded; only the per-request log line is suppressed.
var quietPaths = map[string]bool{
	"/healthz": true, "/healthz/live": true, "/healthz/ready": true,
	"/metrics": true,
}

// MiddlewareConfig configures the telemetry edge beyond metrics and the
// request log: the flight recorder finished traces are offered to, and
// per-span debug logging.
type MiddlewareConfig struct {
	// Metrics records the (endpoint, status) counters and duration
	// histogram; nil disables metrics.
	Metrics *HTTPMetrics
	// Logger emits one structured line per request (suppressed for
	// probes and scrapes); nil disables logging.
	Logger *slog.Logger
	// Recorder receives every finished trace for tail sampling; nil
	// disables recording.
	Recorder *Recorder
	// DebugSpans additionally logs one debug-level line per recorded
	// span when Logger is set and its level admits debug — the
	// -log-level debug view of a request.
	DebugSpans bool
}

// MiddlewareWith wraps next with the telemetry edge: it adopts a valid
// incoming TraceHeader (malformed or non-16-hex values are discarded
// and a fresh ID minted), opens the request's root span, stores the
// Trace in the context for the layers below to grow, echoes the ID on
// the response, records the (endpoint, status) duration histogram with
// an exemplar linking the latency bucket to this trace, seals the trace,
// offers it to the flight recorder, and emits one structured request
// log line with the trace ID and the root's child spans summed by name
// (suppressed for health probes and metric scrapes).
func MiddlewareWith(next http.Handler, cfg MiddlewareConfig) http.Handler {
	m := cfg.Metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(TraceHeader)
		if !ValidTraceID(id) {
			id = "" // junk in the header must not propagate across the fleet
		}
		tr := NewTrace(id)
		root := tr.StartSpan("request", SpanRef{})
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.Header().Set(TraceHeader, tr.ID)
		if m != nil {
			m.inflight.Add(1)
		}
		next.ServeHTTP(sw, r.WithContext(WithTrace(r.Context(), tr)))
		if sw.status >= 500 {
			tr.SetFlag(FlagError)
		}
		root.End()
		elapsed := tr.Finish()
		if m != nil {
			m.inflight.Add(-1)
			ep, st := Endpoint(r.URL.Path), strconv.Itoa(sw.status)
			m.requests.With(ep, st).Inc()
			m.duration.With(ep, st).ObserveWithExemplar(elapsed.Seconds(), tr.ID)
		}
		kept := cfg.Recorder.Record(tr)
		if cfg.Logger != nil && !quietPaths[r.URL.Path] {
			cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("trace", tr.ID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int("bytes", sw.bytes),
				slog.Duration("elapsed", elapsed),
				slog.String("phases", tr.logSummary()),
			)
			if cfg.DebugSpans && cfg.Logger.Enabled(r.Context(), slog.LevelDebug) {
				logSpans(r, cfg.Logger, tr, kept)
			}
		}
	})
}

// logSpans renders the finished trace's span tree as one debug line per
// span — the -log-level debug view. Allocates freely; debug-only.
func logSpans(r *http.Request, logger *slog.Logger, tr *Trace, kept bool) {
	snap := tr.Snapshot()
	for i, sp := range snap.Spans {
		attrs := []slog.Attr{
			slog.String("trace", tr.ID),
			slog.Int("span", i),
			slog.String("name", sp.Name),
			slog.Int("parent", sp.Parent),
			slog.Duration("start", time.Duration(sp.StartNS)),
			slog.Duration("dur", time.Duration(sp.DurNS)),
			slog.Bool("kept", kept),
		}
		if sp.Value != 0 {
			attrs = append(attrs, slog.Int64("value", sp.Value))
		}
		for k, v := range sp.Attrs {
			attrs = append(attrs, slog.String(k, v))
		}
		logger.LogAttrs(r.Context(), slog.LevelDebug, "span", attrs...)
	}
}
