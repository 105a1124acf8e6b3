package main

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/faultfs"
	"multihonest/internal/oracle"
	"multihonest/internal/telemetry"
)

// stackConfig selects the few knobs the benchmark sets differently from
// cmd/serve's defaults. Everything else — recorder sizing and sampling,
// request logging, metrics prefix, route table — is serve's default
// composition, so the benchmark measures what `serve` runs.
type stackConfig struct {
	CacheEntries int     // serve -cache
	Snapshot     string  // serve -snapshot; empty = cold start
	Tracer       *tracer // benchmark span capture; nil in untraced runs
}

// Defaults of cmd/serve's flags that shape the served stack.
const (
	serveTraceBuf       = 256
	serveTraceThreshold = 100 * time.Millisecond
	serveTraceSample    = 0.05
)

// stack is one in-process serving stack composed from the public
// constructors in the order cmd/serve composes them, listening on a
// loopback socket.
type stack struct {
	o    *oracle.Oracle
	srv  *oracle.Server
	rec  *telemetry.Recorder
	h    http.Handler // the full middleware-wrapped handler it serves
	hs   *http.Server
	base string
	errc chan error

	snapLoad time.Duration // LoadSnapshotFile wall time (0 on cold start)
}

// currentOracle backs the process-wide "oracle" expvar, which cmd/serve
// publishes once per process; the benchmark composes many stacks per
// process, so the variable follows the most recent one.
var (
	currentOracle atomic.Pointer[oracle.Oracle]
	publishOnce   sync.Once
)

// newStack composes the serving stack and starts serving on a fresh
// loopback listener. It returns once the listener accepts connections.
func newStack(cfg stackConfig) (*stack, error) {
	bootStart := time.Now()
	reg := telemetry.New()
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{
		Capacity:         serveTraceBuf,
		LatencyThreshold: serveTraceThreshold,
		SampleRate:       serveTraceSample,
	})
	readyG := reg.Gauge("serve_ready", "1 while the replica advertises ready, 0 while booting or draining.")
	bootG := reg.Gauge("serve_boot_to_ready_seconds", "Seconds from process start to first ready, warm boot included.")

	o := oracle.New(cfg.CacheEntries)
	currentOracle.Store(o)
	publishOnce.Do(func() {
		expvar.Publish("oracle", expvar.Func(func() any { return currentOracle.Load().Stats() }))
	})
	o.Instrument(reg)
	srv := oracle.NewServer(o, 0)
	srv.SetReady(false)

	s := &stack{o: o, srv: srv, rec: rec}
	if cfg.Snapshot != "" {
		boot := time.Now()
		stats, err := o.LoadSnapshotFile(faultfs.OS, cfg.Snapshot)
		s.snapLoad = time.Since(boot)
		bt := telemetry.NewTrace("")
		bsp := bt.StartSpan("snapshot_load", telemetry.SpanRef{})
		bsp.SetAttr("path", cfg.Snapshot)
		bsp.SetValue(int64(stats.Entries))
		bsp.End()
		bt.SetFlag(telemetry.FlagForce)
		bt.Finish()
		rec.Record(bt)
		if err != nil {
			return nil, fmt.Errorf("warm boot from %s: %w", cfg.Snapshot, err)
		}
		if stats.Damaged() {
			return nil, fmt.Errorf("warm boot from %s: snapshot damaged (%d sections quarantined)", cfg.Snapshot, stats.Quarantined)
		}
	}

	var inner http.Handler = srv.Handler()
	if cfg.Tracer != nil {
		inner = cfg.Tracer.wrapInner(inner)
	}
	root := http.NewServeMux()
	root.Handle("/metrics", reg.Handler())
	root.Handle("/debug/traces", rec.Handler())
	root.Handle("/", inner)
	reqLogger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s.h = telemetry.MiddlewareWith(root, telemetry.MiddlewareConfig{
		Metrics:  telemetry.NewHTTPMetrics(reg, "serve"),
		Logger:   reqLogger,
		Recorder: rec,
	})
	served := s.h
	if cfg.Tracer != nil {
		served = cfg.Tracer.wrapOuter(served)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: served, ReadHeaderTimeout: 5 * time.Second}
	s.errc = make(chan error, 1)
	go func() { s.errc <- s.hs.Serve(ln) }()
	srv.SetReady(true)
	readyG.Set(1)
	bootG.Set(time.Since(bootStart).Seconds())
	return s, nil
}

// Close drains the server and waits for its serve goroutine to exit.
func (s *stack) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-s.errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ready asks the composed handler's readiness probe in process.
func (s *stack) ready() bool {
	req, err := http.NewRequest(http.MethodGet, "/healthz/ready", nil)
	if err != nil {
		return false
	}
	w := &discardWriter{h: http.Header{}}
	s.h.ServeHTTP(w, req)
	return w.status == http.StatusOK
}

// newClient returns a keep-alive client holding at most conns
// connections to the stack.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// waitReady polls the readiness probe over the socket until it answers
// 200: the point from which the stack serves requests.
func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz/ready")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stack at %s not ready after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
