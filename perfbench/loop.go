package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"multihonest/internal/telemetry"
)

// sample is what the generator observed for one request. Times are
// offsets from the window's opening.
type sample struct {
	Due    time.Duration // when the request was due to be sent
	Free   time.Duration // when a connection became free to take it
	Sent   time.Duration // when it was handed to the transport
	Done   time.Duration // when the last body byte arrived
	Status int
	Err    bool
	Bytes  int
	Body   []byte // kept only for requests chosen for verification
	Trace  string // trace ID sent, traced runs only
}

// latency is measured from the due time, so a stall charges its wait to
// every request that was due behind it (no coordinated omission).
func (s *sample) latency() time.Duration { return s.Done - s.Due }

// connWait is how long the request waited for a free connection.
func (s *sample) connWait() time.Duration { return max(0, s.Free-s.Due) }

// lag is how late the generator itself sent the request once a
// connection was free: timer overshoot and scheduling delay.
func (s *sample) lag() time.Duration { return s.Sent - max(s.Free, s.Due) }

// loopConfig drives one open-loop window.
type loopConfig struct {
	Client *http.Client
	Base   string
	Conns  int
	Keep   func(i int) bool // retain the body of request i
	Traced func(due time.Duration) bool
	IDs    *traceIDs // mints trace IDs for traced requests
}

// runOpenLoop sends reqs on their schedule from cfg.Conns goroutines,
// each owning one keep-alive connection, and returns one sample per
// request along with the window's opening time. A request whose
// connections are all busy when it falls due waits, and that wait is
// part of its latency.
func runOpenLoop(cfg loopConfig, reqs []request) ([]sample, time.Time) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				s := &out[i]
				s.Due = r.Due
				s.Free = time.Since(start)
				waitUntil(start, r.Due)
				send(cfg, r, s, start, cfg.Keep != nil && cfg.Keep(i))
			}
		}()
	}
	wg.Wait()
	return out, start
}

// runClosedLoop sends requests from cfg.Conns goroutines, each taking
// the next one (cycling through reqs, whose due times it ignores) as
// soon as its previous request completes, until d has passed. It
// returns one sample per request sent, due at its send time.
func runClosedLoop(cfg loopConfig, reqs []request, d time.Duration) []sample {
	outs := make([][]sample, cfg.Conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				r := &reqs[int(next.Add(1)-1)%len(reqs)]
				s := sample{Due: time.Since(start)}
				send(cfg, r, &s, start, false)
				outs[w] = append(outs[w], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// waitUntil returns once due has passed since start. It sleeps in
// nanosleep rather than time.Sleep: an otherwise idle Go process wakes
// from time.Sleep on the network poller's millisecond tick, so a short
// sleep could overshoot by up to a millisecond, and that lateness would
// count as latency.
func waitUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func send(cfg loopConfig, r *request, s *sample, start time.Time, keep bool) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.method(), cfg.Base+r.Path, body)
	if err != nil {
		s.Err = true
		s.Sent, s.Done = time.Since(start), time.Since(start)
		return
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cfg.Traced != nil && cfg.Traced(r.Due) {
		s.Trace = cfg.IDs.next()
		req.Header.Set(telemetry.TraceHeader, s.Trace)
	}
	s.Sent = time.Since(start)
	resp, err := cfg.Client.Do(req)
	if err != nil {
		s.Err = true
		s.Done = time.Since(start)
		return
	}
	if keep {
		s.Body, err = io.ReadAll(resp.Body)
		s.Bytes = len(s.Body)
	} else {
		var n int64
		n, err = io.Copy(io.Discard, resp.Body)
		s.Bytes = int(n)
	}
	resp.Body.Close()
	s.Done = time.Since(start)
	s.Status = resp.StatusCode
	if err != nil {
		s.Err = true
	}
}

// traceIDs mints well-formed trace IDs (16 lowercase hex) so the
// benchmark can join its client span to the server's spans.
type traceIDs struct{ n atomic.Uint64 }

func (t *traceIDs) next() string {
	const hex = "0123456789abcdef"
	v := t.n.Add(1) | 1<<63
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[v&15]
		v >>= 4
	}
	return string(b[:])
}

// failedSample reports a transport error or an unexpected status; 422
// is the oracle's legitimate "target unreachable" answer to depth.
func failedSample(s *sample) bool {
	return s.Err || !(s.Status/100 == 2 || s.Status == http.StatusUnprocessableEntity)
}

// pct is a percentile summary of durations with its sample count and
// how many samples lie strictly beyond the reported value.
type pct struct {
	N      int           `json:"n"`
	Beyond int           `json:"beyond"`
	V      time.Duration `json:"value_ns"`
}

// percentile returns the nearest-rank q-quantile of ds (which it sorts).
func percentile(ds []time.Duration, q float64) pct {
	if len(ds) == 0 {
		return pct{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(q*float64(len(ds))+0.999999999) - 1
	idx = min(max(idx, 0), len(ds)-1)
	v := ds[idx]
	beyond := len(ds) - sort.Search(len(ds), func(i int) bool { return ds[i] > v })
	return pct{N: len(ds), Beyond: beyond, V: v}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
