package oracle

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
)

// Server is the HTTP JSON front end of an Oracle. Construct with
// NewServer and mount Handler on an http.Server.
//
// Endpoints:
//
//	GET  /v1/depth?alpha=&ph=|frac=&target=&kmax=   confirmation depth
//	GET  /v1/curve?alpha=&ph=|frac=&k=              per-horizon curve 1..k
//	GET  /v1/failure?alpha=&ph=|frac=&k=            point query at k
//	GET  /v1/cell?alpha=&frac=&k=                   Table-1 cell
//	GET  /v1/bracket?alpha=&ph=|frac=&k=&tau=       certified bracket
//	POST /v1/batch                                  planned multi-query
//	GET  /healthz                                   liveness + cache gauge
//	GET  /healthz/live                              bare liveness probe
//	GET  /healthz/ready                             readiness (503 while warming/draining)
type Server struct {
	o       *Oracle
	workers int // batch executor pool size (≤ 0 selects all CPUs)
	start   time.Time
	ready   atomic.Bool
}

// NewServer wraps an oracle; workers sizes the batch executor pool.
// The server starts ready; callers that warm-boot from a snapshot or
// drain on shutdown gate traffic with SetReady.
func NewServer(o *Oracle, workers int) *Server {
	s := &Server{o: o, workers: workers, start: time.Now()}
	s.ready.Store(true)
	return s
}

// SetReady flips the readiness probe: false makes /healthz/ready answer
// 503 so load balancers stop routing here (boot not finished, or
// draining), without affecting liveness or in-flight queries.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/depth", s.handleDepth)
	mux.HandleFunc("GET /v1/curve", s.handleCurve)
	mux.HandleFunc("GET /v1/failure", s.handleFailure)
	mux.HandleFunc("GET /v1/cell", s.handleCell)
	mux.HandleFunc("GET /v1/bracket", s.handleBracket)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	return mux
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
}

// writeJSONTraced is writeJSON with the encode time recorded as a
// serialize span under the request's root.
func writeJSONTraced(tr *telemetry.Trace, w http.ResponseWriter, status int, v any) {
	start := time.Now()
	writeJSON(w, status, v)
	tr.AddSpan("serialize", tr.Root(), start, time.Since(start))
}

// traceOf pulls the request trace out of the context (nil — inert — when
// the server runs without the telemetry middleware) and records a queue
// span under its root: the time between the trace's birth at the HTTP
// edge and the handler actually starting on the query, so the tree shows
// routing overhead.
func traceOf(r *http.Request) *telemetry.Trace {
	tr := telemetry.TraceFrom(r.Context())
	tr.AddSpan("queue", tr.Root(), tr.Start(), time.Since(tr.Start()))
	return tr
}

// qfloat parses a required float query parameter.
func qfloat(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// qint parses a required integer query parameter.
func qint(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// params resolves the (α, ph) point of a GET query: alpha plus exactly one
// of ph and frac.
func params(r *http.Request) (alpha, ph float64, err error) {
	if alpha, err = qfloat(r, "alpha"); err != nil {
		return 0, 0, err
	}
	q := r.URL.Query()
	hasPh, hasFrac := q.Has("ph"), q.Has("frac")
	switch {
	case hasPh && hasFrac:
		return 0, 0, fmt.Errorf("give ph or frac, not both")
	case hasPh:
		ph, err = qfloat(r, "ph")
	case hasFrac:
		var frac float64
		if frac, err = qfloat(r, "frac"); err == nil {
			ph = frac * (1 - alpha)
		}
	default:
		return 0, 0, fmt.Errorf("missing query parameter: ph or frac")
	}
	return alpha, ph, err
}

// keyFields annotates answers with the canonical cache coordinates the
// oracle actually computed at, so clients see the basis-point snap.
type keyFields struct {
	Alpha float64 `json:"alpha"`
	Ph    float64 `json:"ph"`
	Frac  float64 `json:"frac"`
}

func canonicalFields(alpha, ph float64) keyFields {
	key, _, err := Canonicalize(alpha, ph, 0)
	if err != nil {
		return keyFields{Alpha: alpha, Ph: ph}
	}
	return keyFields{Alpha: key.Alpha(), Ph: key.Ph(), Frac: key.HonestFraction()}
}

func (s *Server) handleDepth(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	alpha, ph, err := params(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	target, err := qfloat(r, "target")
	if err != nil {
		badRequest(w, err)
		return
	}
	kmax, err := qint(r, "kmax")
	if err != nil {
		badRequest(w, err)
		return
	}
	depth, err := s.o.ConfirmationDepthCtx(r.Context(), alpha, ph, target, kmax)
	if err != nil {
		// An unreachable target is a legitimate semantic outcome of a
		// well-formed query (slow-decay parameter point), not a client
		// error: 422 with a machine-readable code so clients can branch.
		if errors.Is(err, settlement.ErrTargetUnreachable) {
			writeJSON(w, http.StatusUnprocessableEntity, struct {
				httpError
				Code string `json:"code"`
			}{httpError{Error: err.Error()}, "target_unreachable"})
			return
		}
		badRequest(w, err)
		return
	}
	writeJSONTraced(tr, w, http.StatusOK, struct {
		keyFields
		Target float64 `json:"target"`
		KMax   int     `json:"kmax"`
		Depth  int     `json:"depth"`
	}{canonicalFields(alpha, ph), target, kmax, depth})
}

func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	alpha, ph, err := params(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	k, err := qint(r, "k")
	if err != nil {
		badRequest(w, err)
		return
	}
	curve, err := s.o.SettlementCurveCtx(r.Context(), alpha, ph, k)
	if err != nil {
		badRequest(w, err)
		return
	}
	writeJSONTraced(tr, w, http.StatusOK, struct {
		keyFields
		K     int       `json:"k"`
		Curve []float64 `json:"curve"`
	}{canonicalFields(alpha, ph), k, curve})
}

func (s *Server) handleFailure(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	alpha, ph, err := params(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	k, err := qint(r, "k")
	if err != nil {
		badRequest(w, err)
		return
	}
	p, err := s.o.SettlementFailureCtx(r.Context(), alpha, ph, k)
	if err != nil {
		badRequest(w, err)
		return
	}
	writeJSONTraced(tr, w, http.StatusOK, struct {
		keyFields
		K int     `json:"k"`
		P float64 `json:"p"`
	}{canonicalFields(alpha, ph), k, p})
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	alpha, err := qfloat(r, "alpha")
	if err != nil {
		badRequest(w, err)
		return
	}
	frac, err := qfloat(r, "frac")
	if err != nil {
		badRequest(w, err)
		return
	}
	k, err := qint(r, "k")
	if err != nil {
		badRequest(w, err)
		return
	}
	p, err := s.o.TableCellCtx(r.Context(), frac, k, alpha)
	if err != nil {
		badRequest(w, err)
		return
	}
	writeJSONTraced(tr, w, http.StatusOK, struct {
		keyFields
		K int     `json:"k"`
		P float64 `json:"p"`
	}{canonicalFields(alpha, frac*(1-alpha)), k, p})
}

func (s *Server) handleBracket(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	alpha, ph, err := params(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	k, err := qint(r, "k")
	if err != nil {
		badRequest(w, err)
		return
	}
	tau := 0.0
	if r.URL.Query().Has("tau") {
		if tau, err = qfloat(r, "tau"); err != nil {
			badRequest(w, err)
			return
		}
	}
	lo, hi, err := s.o.SettlementBracketCtx(r.Context(), alpha, ph, k, tau)
	if err != nil {
		badRequest(w, err)
		return
	}
	writeJSONTraced(tr, w, http.StatusOK, struct {
		keyFields
		K     int     `json:"k"`
		Tau   float64 `json:"tau"`
		Lower float64 `json:"lower"`
		Upper float64 `json:"upper"`
	}{canonicalFields(alpha, ph), k, tau, lo, hi})
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// MaxBatchQueries bounds one batch request.
const MaxBatchQueries = 4096

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		badRequest(w, fmt.Errorf("decoding batch request: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		badRequest(w, fmt.Errorf("batch of %d exceeds limit %d", len(req.Queries), MaxBatchQueries))
		return
	}
	start := time.Now()
	results, plan, err := s.o.BatchCtx(r.Context(), req.Queries, s.workers)
	if err != nil {
		// Batch-level errors are request-shape rejections (e.g. the
		// aggregate curve-point cap); per-query failures land in their
		// result slots instead.
		badRequest(w, err)
		return
	}
	writeJSONTraced(tr, w, http.StatusOK, struct {
		Plan      BatchPlan     `json:"plan"`
		ElapsedMS float64       `json:"elapsed_ms"`
		Results   []BatchResult `json:"results"`
	}{plan, float64(time.Since(start).Microseconds()) / 1e3, results})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.o.Stats()
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		UptimeMS int64  `json:"uptime_ms"`
		Entries  int    `json:"entries"`
		Hits     int64  `json:"hits"`
		Misses   int64  `json:"misses"`
	}{"ok", time.Since(s.start).Milliseconds(), st.Entries, st.Hits, st.Misses})
}

// handleLive is the liveness probe: the process is up and serving; a
// restart is only warranted when this stops answering.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"alive"})
}

// handleReady is the readiness probe: 200 only when the replica wants
// traffic. Warm boot and drain flip it via SetReady; liveness stays
// green throughout, so orchestrators drain instead of killing.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"not ready"})
		return
	}
	st := s.o.Stats()
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Entries int    `json:"entries"`
	}{"ready", st.Entries})
}
