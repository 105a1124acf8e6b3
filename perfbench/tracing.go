package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"multihonest/internal/telemetry"
)

// tracer records the benchmark's own spans at two server boundaries —
// the outer ServeHTTP (net/http hands the request to the telemetry
// middleware) and the inner oracle.Server handler — and, at the inner
// boundary, a copy of the request's flight-recorder trace, whose
// build/extend/coalesce_wait/serialize spans the oracle records itself.
// Spans are kept in memory and joined to the client span by trace ID
// when the run ends. Only requests that carry a trace header from the
// generator are recorded.
type tracer struct {
	epoch time.Time

	mu  sync.Mutex
	srv map[string]*serverSpans
}

// serverSpans is what the server side recorded for one trace ID.
// Times are offsets from the tracer's epoch.
type serverSpans struct {
	OuterStart, OuterEnd time.Duration
	InnerStart, InnerEnd time.Duration
	Trace                telemetry.TraceSnapshot
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, srv: map[string]*serverSpans{}}
}

func (t *tracer) spans(id string) *serverSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.srv[id]
	if s == nil {
		s = &serverSpans{}
		t.srv[id] = s
	}
	return s
}

func (t *tracer) wrapOuter(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(telemetry.TraceHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.epoch)
		next.ServeHTTP(w, r)
		end := time.Since(t.epoch)
		s := t.spans(id)
		s.OuterStart, s.OuterEnd = start, end
	})
}

func (t *tracer) wrapInner(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := telemetry.TraceFrom(r.Context())
		if tr == nil || r.Header.Get(telemetry.TraceHeader) == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.epoch)
		next.ServeHTTP(w, r)
		end := time.Since(t.epoch)
		snap := tr.Snapshot()
		s := t.spans(tr.ID)
		s.InnerStart, s.InnerEnd, s.Trace = start, end, snap
	})
}

// spanRec is one span in the benchmark's timeline (offsets from the
// tracer epoch).
type spanRec struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Value int64  `json:"value,omitempty"`
	Key   string `json:"key,omitempty"` // build/extend: the chain's αBP/fracBP
}

// requestTrace is one traced request: client span, server spans, and
// the oracle's own spans, all on one clock.
type requestTrace struct {
	ID    string    `json:"id"`
	Op    string    `json:"op"`
	Due   int64     `json:"due_ns"`
	Spans []spanRec `json:"spans"`
}

// layerTimes are one request's per-layer self times.
type layerTimes struct {
	nethttp, telemetry, handler, serialize, cache time.Duration
}

// join assembles a request's spans and self times; ok is false when the
// server side of the request was not captured.
func (t *tracer) join(s *sample, op string, window time.Time) (requestTrace, layerTimes, bool) {
	t.mu.Lock()
	sv := t.srv[s.Trace]
	t.mu.Unlock()
	if sv == nil || sv.InnerEnd == 0 || sv.OuterEnd == 0 {
		return requestTrace{}, layerTimes{}, false
	}
	off := window.Sub(t.epoch)
	rt := requestTrace{ID: s.Trace, Op: op, Due: int64(off + s.Due)}
	add := func(name string, a, b time.Duration, v int64, key string) {
		rt.Spans = append(rt.Spans, spanRec{Name: name, Start: int64(a), End: int64(b), Value: v, Key: key})
	}
	cs, ce := off+s.Sent, off+s.Done
	add("client", cs, ce, 0, "")
	add("server", sv.OuterStart, sv.OuterEnd, 0, "")
	add("handler", sv.InnerStart, sv.InnerEnd, 0, "")
	base := sv.Trace.Start.Sub(t.epoch)
	var children, cache [][2]time.Duration
	var ser time.Duration
	for _, sp := range sv.Trace.Spans {
		if sp.DurNS < 0 || sp.Parent < 0 {
			continue // open spans and the middleware's own root
		}
		a := base + time.Duration(sp.StartNS)
		b := a + time.Duration(sp.DurNS)
		add(sp.Name, a, b, sp.Value, sp.Attrs["key"])
		switch sp.Name {
		case "serialize":
			ser += b - a
			children = append(children, [2]time.Duration{a, b})
		case "batch_group":
			children = append(children, [2]time.Duration{a, b})
		case "build", "extend", "coalesce_wait":
			children = append(children, [2]time.Duration{a, b})
			cache = append(cache, [2]time.Duration{a, b})
		}
	}
	inner := sv.InnerEnd - sv.InnerStart
	lt := layerTimes{
		nethttp:   (ce - cs) - (sv.OuterEnd - sv.OuterStart),
		telemetry: (sv.OuterEnd - sv.OuterStart) - inner,
		handler:   inner - cover(children, sv.InnerStart, sv.InnerEnd),
		serialize: ser,
		cache:     cover(cache, sv.InnerStart, sv.InnerEnd),
	}
	return rt, lt, true
}

// cover returns how much of [lo, hi] the intervals cover (their union,
// clipped): a parent's self time is its span minus this.
func cover(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes one JSON line per traced request.
func writeSpans(path string, traces []requestTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range traces {
		if err := enc.Encode(&traces[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
