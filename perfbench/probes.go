package main

import (
	"io"
	"net/http"
	"time"

	"multihonest/internal/charstring"
	"multihonest/internal/settlement"
)

// ladderQuery is the warm point every rung of the serving ladder asks.
const (
	ladderAlpha = 0.3
	ladderPh    = 0.35
	ladderK     = 100
	ladderPath  = "/v1/failure?alpha=0.3&ph=0.35&k=100"
)

// discardWriter is a reusable ResponseWriter that drops the body, so the
// handler rungs time the handler and not response recording.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// rung times f on one goroutine: five repeats of at least 20 ms each,
// reporting the median ns/op and heap allocations per op.
func rung(f func()) (nsOp, allocsOp float64) {
	for i := 0; i < 100; i++ {
		f()
	}
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	var ns, allocs []float64
	for r := 0; r < 5; r++ {
		a0 := readMetric("/gc/heap/allocs:objects")
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		ns = append(ns, float64(time.Since(t0))/float64(n))
		allocs = append(allocs, float64(readMetric("/gc/heap/allocs:objects")-a0)/float64(n))
	}
	return median(ns), median(allocs)
}

// probeLadder measures the serving ladder on the run's stack: each rung
// adds one layer to the one below, so adjacent rungs differ by that
// layer's cost.
func probeLadder(rep *report, st *stack) {
	if _, err := st.o.SettlementFailure(ladderAlpha, ladderPh, ladderK); err != nil {
		rep.Errors = append(rep.Errors, "ladder warm-up: "+err.Error())
		return
	}
	req, err := http.NewRequest(http.MethodGet, ladderPath, nil)
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		return
	}
	w := &discardWriter{h: http.Header{}}
	handler := st.srv.Handler()
	client := newClient(1)
	defer client.CloseIdleConnections()
	rungs := []struct {
		name string
		f    func()
	}{
		{"oracle", func() { _, _ = st.o.SettlementFailure(ladderAlpha, ladderPh, ladderK) }},
		{"handler", func() { clear(w.h); handler.ServeHTTP(w, req) }},
		{"middleware", func() { clear(w.h); st.h.ServeHTTP(w, req) }},
		{"loopback", func() {
			resp, err := client.Get(st.base + ladderPath)
			if err != nil {
				rep.Failed++
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}},
	}
	for _, r := range rungs {
		ns, allocs := rung(r.f)
		rep.layer("ladder."+r.name+"_ns", ns, "ns")
		rep.layer("ladder."+r.name+"_allocs", allocs, "count")
	}
}

// latticeProbes are fixed parameter points for the lattice probes: a
// fast-decaying, a mid and a near-critical chain.
var latticeProbes = [][2]float64{{0.1, 0.9}, {0.3, 0.5}, {0.45, 0.25}}

// probeLattice times lattice.Curve work directly, off the serving path:
// a cold build to k = 200, its in-place extension to 400, and the
// resident size of the k = 400 curve. Each point's figure is the median
// of three repeats; the metric is the mean over the points.
func probeLattice(rep *report) {
	var build, extend, mb float64
	for _, pt := range latticeProbes {
		p, err := charstring.ParamsFromAlpha(pt[0], pt[1]*(1-pt[0]))
		if err != nil {
			rep.Errors = append(rep.Errors, "lattice probe: "+err.Error())
			return
		}
		var b, e, m []float64
		for r := 0; r < 3; r++ {
			c := settlement.New(p).Curve(0)
			t0 := time.Now()
			if err := c.Extend(200); err != nil {
				rep.Errors = append(rep.Errors, "lattice probe: "+err.Error())
				return
			}
			t1 := time.Now()
			if err := c.Extend(400); err != nil {
				rep.Errors = append(rep.Errors, "lattice probe: "+err.Error())
				return
			}
			b = append(b, ms(t1.Sub(t0)))
			e = append(e, ms(time.Since(t1)))
			m = append(m, float64(c.MemBytes())/1e6)
		}
		build += median(b)
		extend += median(e)
		mb += median(m)
	}
	n := float64(len(latticeProbes))
	rep.layer("lattice.build_ms_k200", build/n, "ms")
	rep.layer("lattice.extend_ms_k200_400", extend/n, "ms")
	rep.layer("lattice.curve_mb_k400", mb/n, "MB")
}
