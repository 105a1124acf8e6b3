package telemetry

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMiddlewareMintsAndEchoesTraceID(t *testing.T) {
	r := New()
	m := NewHTTPMetrics(r, "serve")
	var seen *Trace
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seen = TraceFrom(req.Context())
		w.WriteHeader(http.StatusOK)
	}), MiddlewareConfig{Metrics: m})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cell?x=1", nil))
	if seen == nil || seen.ID == "" {
		t.Fatal("handler did not receive a trace")
	}
	if got := rec.Header().Get(TraceHeader); got != seen.ID {
		t.Fatalf("response header %q, want %q", got, seen.ID)
	}
	if got := m.requests.With("/v1/cell", "200").Value(); got != 1 {
		t.Fatalf("request counter = %d, want 1", got)
	}
	if got := m.duration.With("/v1/cell", "200").Count(); got != 1 {
		t.Fatalf("duration count = %d, want 1", got)
	}
}

func TestMiddlewareAdoptsIncomingTraceID(t *testing.T) {
	var got string
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		got = TraceFrom(req.Context()).ID
	}), MiddlewareConfig{})
	req := httptest.NewRequest("GET", "/v1/depth", nil)
	req.Header.Set(TraceHeader, "f0f1f2f3f4f5f6f7")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got != "f0f1f2f3f4f5f6f7" {
		t.Fatalf("trace ID = %q, want the forwarded one", got)
	}
}

// TestMiddlewareRejectsMalformedTraceID pins the header-validation
// contract: only 16-lowercase-hex IDs are adopted; junk, wrong-length,
// uppercase, and injection-shaped values are discarded and a fresh ID
// minted (and echoed on the response).
func TestMiddlewareRejectsMalformedTraceID(t *testing.T) {
	for _, bad := range []string{
		"forwarded01234ab",        // non-hex letters
		"ABCDEF0123456789",        // uppercase
		"abc",                     // short
		"aaaabbbbccccdddd0",       // long
		"aaaabbbbcccc\"dd",        // quote injection
		"aaaabbbbccccdd d",        // embedded space
		strings.Repeat("a", 1024), // oversized
	} {
		var got string
		h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			got = TraceFrom(req.Context()).ID
		}), MiddlewareConfig{})
		req := httptest.NewRequest("GET", "/v1/depth", nil)
		req.Header.Set(TraceHeader, bad)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got == bad {
			t.Errorf("malformed trace ID %q was adopted", bad)
		}
		if !ValidTraceID(got) {
			t.Errorf("minted replacement %q is not a valid trace ID", got)
		}
		if echo := rec.Header().Get(TraceHeader); echo != got {
			t.Errorf("response echoes %q, want the minted %q", echo, got)
		}
	}
}

// TestMiddlewareLogsTraceAndPhases pins the request log line: the
// phases field sums the closed spans directly under the root by name in
// first-seen order (grandchildren are left to the span tree), and an
// overflowed span arena is reported, not silently truncated.
func TestMiddlewareLogsTraceAndPhases(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := TraceFrom(req.Context())
		now := time.Now()
		ext := tr.AddSpan("extend", tr.Root(), now, 3*time.Millisecond)
		tr.AddSpan("hedge_local", ext, now, time.Millisecond)
		tr.AddSpan("build", tr.Root(), now, 3*time.Millisecond)
		tr.AddSpan("build", tr.Root(), now, 2*time.Millisecond)
		w.WriteHeader(http.StatusBadRequest)
	}), MiddlewareConfig{Logger: logger})
	req := httptest.NewRequest("GET", "/v1/curve", nil)
	req.Header.Set(TraceHeader, "aaaabbbbccccdddd")
	h.ServeHTTP(httptest.NewRecorder(), req)
	log := buf.String()
	for _, want := range []string{"trace=aaaabbbbccccdddd", "status=400", `phases="extend=3ms build=5ms"`, "path=/v1/curve"} {
		if !strings.Contains(log, want) {
			t.Errorf("log line missing %q: %s", want, log)
		}
	}
	// Probe endpoints are metered but never logged.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz/ready", nil))
	if strings.Contains(buf.String(), "/healthz/ready") {
		t.Errorf("probe request was logged: %s", buf.String())
	}

	buf.Reset()
	overflow := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := TraceFrom(req.Context())
		for i := 0; i < MaxSpans+1; i++ { // the root already holds one slot
			tr.AddSpan("build", tr.Root(), time.Now(), time.Millisecond)
		}
	}), MiddlewareConfig{Logger: logger})
	overflow.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/batch", nil))
	if want := `phases="build=31ms dropped_spans=2"`; !strings.Contains(buf.String(), want) {
		t.Errorf("overflowed trace log missing %q: %s", want, buf.String())
	}
}

func TestEndpointNormalization(t *testing.T) {
	cases := map[string]string{
		"/v1/cell":           "/v1/cell",
		"/healthz/ready":     "/healthz/ready",
		"/metrics":           "/metrics",
		"/debug/vars":        "other",
		"/debug/pprof/heap":  "/debug/pprof",
		"/etc/passwd":        "other",
		"/v1/cell/../secret": "other",
	}
	for path, want := range cases {
		if got := Endpoint(path); got != want {
			t.Errorf("Endpoint(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestMiddlewareStatusDefault(t *testing.T) {
	r := New()
	m := NewHTTPMetrics(r, "serve")
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("implicit 200")) // no WriteHeader call
	}), MiddlewareConfig{Metrics: m})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	if got := m.requests.With("/healthz", "200").Value(); got != 1 {
		t.Fatalf("implicit 200 not recorded: %d", got)
	}
}
