// Command serve runs the settlement oracle as an HTTP JSON service: the
// repo's confirmation-depth, settlement-curve, bracket and Table-1 cell
// computations answered online from a concurrent cache of live lattice
// curves (internal/oracle). A hot parameter point costs one DP build ever;
// deeper queries pay only the incremental curve extension.
//
// Usage:
//
//	serve [-addr :8080] [-cache 1024] [-workers 0]
//	      [-snapshot oracle.mhsnap] [-checkpoint 30s]
//	      [-peers http://a:8080,http://b:8080] [-self http://a:8080]
//	      [-drain 10s] [-pprof] [-reqlog=false] [-log-level info]
//	      [-trace-buf 256] [-trace-threshold 100ms] [-trace-sample 0.05]
//	      [-diagdir diagnostics/]
//
// With -snapshot, the cache is persisted: a background checkpointer
// writes a checksummed snapshot atomically every -checkpoint interval
// (and once more at shutdown), and boot loads it back so a restart is
// warm — every previously built curve served from the first request,
// no DP rebuilds. A damaged snapshot is detected section-by-section,
// quarantined to <path>.corrupt, and only the damaged keys fall back to
// cold builds.
//
// With -peers/-self, replicas shard the key space by rendezvous hashing
// and forward non-owned queries with retries, hedging, and per-peer
// circuit breakers; any replica can still answer any query locally, so
// peer failure degrades latency, never availability or answers.
//
// Every request is traced: the edge middleware adopts a well-formed
// incoming X-Multihonest-Trace header (16 lowercase hex; anything else
// is rejected and a fresh ID minted), the ID rides cluster forwards so
// one query shows up under one ID on every replica it touches, and each
// request builds a span tree — queue, coalesce_wait, build, extend,
// forward (with per-attempt and hedge children), serialize — plus one
// structured log line summing the root's child spans by name. Finished
// traces feed a flight recorder (-trace-buf) with tail sampling: errors,
// hedged and breaker-affected requests, and anything over
// -trace-threshold are kept unconditionally, the boring rest with
// probability -trace-sample.
// Browse it at /debug/traces (list) and /debug/traces?id=<traceID>
// (full span tree). Latency histogram buckets on /metrics carry
// exemplar trace IDs linking straight back to recorded traces.
//
// With -diagdir, a watchdog reads the /metrics registry in place and,
// on anomaly — windowed request p99 over budget, a circuit breaker
// opening, or a readiness flap — writes a diagnostics bundle (recent
// traces, metrics snapshot, goroutine and heap profiles) into the
// directory.
//
// Metrics — cache hit/miss/coalesce counters, build/extend latency
// histograms, per-peer forward/hedge/breaker state, request duration by
// endpoint and status — are served in Prometheus text form on /metrics.
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
// -log-level debug additionally logs every span of every recorded
// request.
//
// Endpoints (see internal/oracle.Server):
//
//	GET  /v1/depth?alpha=0.25&frac=0.5&target=1e-6&kmax=4096
//	GET  /v1/curve?alpha=0.25&frac=0.5&k=200
//	GET  /v1/failure?alpha=0.25&ph=0.375&k=200
//	GET  /v1/cell?alpha=0.30&frac=0.25&k=400
//	GET  /v1/bracket?alpha=0.25&frac=0.5&k=200&tau=1e-30
//	POST /v1/batch              {"queries":[{"op":"cell",...},...]}
//	GET  /healthz               liveness + cache gauge
//	GET  /healthz/live          bare liveness probe
//	GET  /healthz/ready         readiness (503 while booting/draining)
//	GET  /metrics               Prometheus text exposition (with exemplars)
//	GET  /debug/traces          flight recorder: recent trace summaries
//	GET  /debug/traces?id=...   one recorded trace's full span tree
//	GET  /debug/pprof/          profiling (only with -pprof)
//
// SIGINT/SIGTERM mark the replica not-ready, drain in-flight requests
// (batches included) for up to -drain, flush a final snapshot, and exit
// 0 (clean shutdown).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"multihonest/internal/faultfs"
	"multihonest/internal/oracle"
	"multihonest/internal/telemetry"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := run(logger); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger) error {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", oracle.DefaultMaxEntries, "curve cache capacity (parameter points)")
	workers := flag.Int("workers", 0, "batch executor pool size (0 = all CPUs)")
	snapshot := flag.String("snapshot", "", "snapshot file for warm restarts (empty = no persistence)")
	checkpoint := flag.Duration("checkpoint", 30*time.Second, "background snapshot interval")
	peers := flag.String("peers", "", "comma-separated replica base URLs, self included (empty = standalone)")
	self := flag.String("self", "", "this replica's base URL as written in -peers")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain timeout for in-flight requests")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	reqlog := flag.Bool("reqlog", true, "log one structured line per request (probes excluded)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error (debug logs every span)")
	traceBuf := flag.Int("trace-buf", 256, "flight recorder capacity in traces")
	traceThreshold := flag.Duration("trace-threshold", 100*time.Millisecond, "record every request at least this slow (negative = flags only)")
	traceSample := flag.Float64("trace-sample", 0.05, "keep probability for unremarkable traces (negative = keep none)")
	diagdir := flag.String("diagdir", "", "write anomaly diagnostics bundles into this directory (empty = off)")
	flag.Parse()

	var lvl slog.Level
	switch strings.ToLower(*logLevel) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", *logLevel)
	}
	logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	bootStart := time.Now()
	reg := telemetry.New()
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{
		Capacity:         *traceBuf,
		LatencyThreshold: *traceThreshold,
		SampleRate:       *traceSample,
	})
	readyG := reg.Gauge("serve_ready", "1 while the replica advertises ready, 0 while booting or draining.")
	bootG := reg.Gauge("serve_boot_to_ready_seconds", "Seconds from process start to first ready, warm boot included.")

	o := oracle.New(*cache)
	o.Instrument(reg)
	srv := oracle.NewServer(o, *workers)
	srv.SetReady(false) // not ready until the warm boot (if any) finishes

	// logf adapts printf-style internals (checkpointer, cluster breakers)
	// onto the structured logger.
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }

	var cp *oracle.Checkpointer
	if *snapshot != "" {
		boot := time.Now()
		stats, err := o.LoadSnapshotFile(faultfs.OS, *snapshot)
		// The warm boot is the first operational trace in the flight
		// recorder: how long the load took and how many curves it restored.
		bt := telemetry.NewTrace("")
		bsp := bt.StartSpan("snapshot_load", telemetry.SpanRef{})
		bsp.SetAttr("path", *snapshot)
		bsp.SetValue(int64(stats.Entries))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			bt.SetFlag(telemetry.FlagError)
		}
		bsp.End()
		bt.SetFlag(telemetry.FlagForce)
		bt.Finish()
		rec.Record(bt)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			logger.Info("no snapshot; cold start", "path", *snapshot)
		case err != nil:
			return fmt.Errorf("loading snapshot %s: %w", *snapshot, err)
		case stats.Damaged():
			logger.Warn("warm boot (degraded): damaged keys rebuild cold",
				"curves", stats.Entries,
				"elapsed", time.Since(boot).Round(time.Millisecond),
				"quarantined", stats.Quarantined,
				"quarantine_path", *snapshot+".corrupt")
		default:
			logger.Info("warm boot",
				"curves", stats.Entries,
				"elapsed", time.Since(boot).Round(time.Millisecond))
		}
		cp = oracle.NewCheckpointer(o, faultfs.OS, *snapshot, *checkpoint, logf)
		cp.SetRecorder(rec)
		go cp.Run()
	}

	handler := srv.Handler()
	if *peers != "" {
		list := strings.Split(*peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		cluster := oracle.NewCluster(srv, oracle.ClusterConfig{
			Self:  *self,
			Peers: list,
			Logf:  logf,
		})
		cluster.Instrument(reg)
		handler = cluster.Handler()
		logger.Info("replicated serving", "peers", len(list), "self", *self)
	}

	// Outer route table: the oracle (or cluster) routes plus the telemetry
	// endpoints, all wrapped in the tracing/metrics middleware.
	root := http.NewServeMux()
	root.Handle("/metrics", reg.Handler())
	root.Handle("/debug/traces", rec.Handler())
	if *pprofOn {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	root.Handle("/", handler)
	reqLogger := logger
	if !*reqlog {
		reqLogger = nil
	}
	h := telemetry.MiddlewareWith(root, telemetry.MiddlewareConfig{
		Metrics:    telemetry.NewHTTPMetrics(reg, "serve"),
		Logger:     reqLogger,
		Recorder:   rec,
		DebugSpans: lvl <= slog.LevelDebug,
	})

	var wd *telemetry.Watchdog
	if *diagdir != "" {
		if err := os.MkdirAll(*diagdir, 0o755); err != nil {
			return fmt.Errorf("creating -diagdir: %w", err)
		}
		wd = telemetry.NewWatchdog(reg, rec, telemetry.WatchdogConfig{Dir: *diagdir, Logf: logf})
		go wd.Run()
		logger.Info("watchdog armed", "diagdir", *diagdir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}

	// Install the signal handler before advertising ready: a supervisor
	// that probes ready and immediately signals must hit graceful drain,
	// never the default disposition.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	srv.SetReady(true)
	readyG.Set(1)
	bootG.Set(time.Since(bootStart).Seconds())
	logger.Info("listening", "addr", ln.Addr().String(), "cache", *cache)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("caught signal; draining", "signal", sig.String())
	}

	// Stop advertising, finish what's in flight, then persist. Order
	// matters: the watchdog must stop before the readiness gauge drops
	// (a clean shutdown is not a ready flap), and the final snapshot
	// must include curves built by the very last drained batch.
	if wd != nil {
		wd.Close()
	}
	srv.SetReady(false)
	readyG.Set(0)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if cp != nil {
		if err := cp.Close(); err != nil {
			return fmt.Errorf("final snapshot flush: %w", err)
		}
		logger.Info("final snapshot flushed", "path", *snapshot)
	}
	st := o.Stats()
	logger.Info("clean shutdown",
		"entries", st.Entries, "hits", st.Hits, "misses", st.Misses,
		"builds", st.Builds, "extends", st.Extends)
	return nil
}
