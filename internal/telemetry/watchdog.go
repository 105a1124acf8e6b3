package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Watchdog is the anomaly-capture loop: it polls its own registry in
// place (the same values /metrics exposes) and, when a trigger fires, writes
// a diagnostics bundle — recent flight-recorder traces, a metrics
// snapshot, goroutine and heap profiles, and a meta record — into its
// directory. Triggers:
//
//   - p99_over_budget: the rolling p99 of the configured latency
//     histogram over the last poll window exceeded the budget;
//   - breaker_open: any cluster_breaker_state series reached 2 (open);
//   - ready_flap: the serve_ready gauge fell from 1 to 0.
//
// Each trigger is edge-detected (a breaker that stays open writes one
// bundle, not one per tick) and bundles are rate-limited by a global
// cooldown, so a sustained incident produces a handful of bundles, not
// a disk-filling stream.
type Watchdog struct {
	reg *Registry
	rec *Recorder
	cfg WatchdogConfig

	stop chan struct{}
	done chan struct{}

	lastBundle  time.Time
	lastBuckets map[float64]float64
	readyPrev   float64
	breakerPrev bool
	bundles     atomic.Int64
}

// WatchdogConfig configures NewWatchdog; zero fields take the
// documented defaults.
type WatchdogConfig struct {
	// Dir receives the bundle directories (required).
	Dir string
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// P99Budget triggers when the windowed p99 of HistogramName exceeds
	// it (default 1s; negative disables the latency trigger).
	P99Budget time.Duration
	// HistogramName is the latency histogram family the p99 trigger
	// watches (default "serve_http_request_duration_seconds").
	HistogramName string
	// MinWindowSamples is the minimum observation count in a window for
	// its p99 to be trusted (default 5 — one slow curl during boot
	// should not trip the alarm).
	MinWindowSamples int
	// Cooldown rate-limits bundle writes (default 30s).
	Cooldown time.Duration
	// MaxBundles stops writing after this many bundles in one process
	// lifetime (default 16).
	MaxBundles int
	// Logf receives one line per trigger and bundle (default discard).
	Logf func(format string, args ...any)
}

// NewWatchdog builds a watchdog over reg and rec (rec may be nil — the
// bundle then simply has no traces). Call Run on a goroutine, Close to
// stop.
func NewWatchdog(reg *Registry, rec *Recorder, cfg WatchdogConfig) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.P99Budget == 0 {
		cfg.P99Budget = time.Second
	}
	if cfg.HistogramName == "" {
		cfg.HistogramName = "serve_http_request_duration_seconds"
	}
	if cfg.MinWindowSamples <= 0 {
		cfg.MinWindowSamples = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 16
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Watchdog{
		reg:       reg,
		rec:       rec,
		cfg:       cfg,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		readyPrev: -1,
	}
}

// Run polls until Close. Bundle write errors are logged and the loop
// keeps going: a broken watchdog must degrade to no diagnostics, never
// to a crashed server.
func (w *Watchdog) Run() {
	defer close(w.done)
	ticker := time.NewTicker(w.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.tick()
		}
	}
}

// Close stops the loop.
func (w *Watchdog) Close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

// Bundles reports how many bundles this watchdog has written.
func (w *Watchdog) Bundles() int64 { return w.bundles.Load() }

// tick evaluates every trigger against the registry's current values,
// read in place: the numbers /metrics would expose, without rendering
// and re-parsing the exposition text on every poll.
func (w *Watchdog) tick() {
	// p99 over the last window: delta of the cumulative buckets.
	if w.cfg.P99Budget > 0 {
		_, buckets := w.reg.read(w.cfg.HistogramName)
		if w.lastBuckets != nil {
			delta := DeltaBuckets(w.lastBuckets, buckets)
			if n := delta[infBound]; n >= float64(w.cfg.MinWindowSamples) {
				if p99 := QuantileFromBuckets(delta, 0.99); p99 > w.cfg.P99Budget.Seconds() {
					w.trigger(fmt.Sprintf("p99_over_budget p99=%.3fs budget=%v window_n=%.0f",
						p99, w.cfg.P99Budget, n), "p99_over_budget")
				}
			}
		}
		w.lastBuckets = buckets
	}

	// Breaker open: any peer's exported state at 2.
	breakerOpen := false
	states, _ := w.reg.read("cluster_breaker_state")
	for _, v := range states {
		if v >= 2 {
			breakerOpen = true
			break
		}
	}
	if breakerOpen && !w.breakerPrev {
		w.trigger("breaker_open", "breaker_open")
	}
	w.breakerPrev = breakerOpen

	// Readiness flap: ready fell from 1 to 0 while we watched.
	if ready, _ := w.reg.read("serve_ready"); len(ready) == 1 {
		if w.readyPrev == 1 && ready[0] == 0 {
			w.trigger("ready_flap", "ready_flap")
		}
		w.readyPrev = ready[0]
	}
}

// trigger writes a bundle unless rate-limited.
func (w *Watchdog) trigger(detail, reason string) {
	if time.Since(w.lastBundle) < w.cfg.Cooldown {
		w.cfg.Logf("watchdog: %s suppressed (cooldown)", detail)
		return
	}
	if w.bundles.Load() >= int64(w.cfg.MaxBundles) {
		w.cfg.Logf("watchdog: %s suppressed (bundle cap %d reached)", detail, w.cfg.MaxBundles)
		return
	}
	dir, err := w.WriteBundle(reason, detail)
	if err != nil {
		w.cfg.Logf("watchdog: bundle for %s: %v", reason, err)
		return
	}
	w.lastBundle = time.Now()
	w.cfg.Logf("watchdog: %s -> bundle %s", detail, dir)
}

// bundleMeta is the bundle's meta.json document.
type bundleMeta struct {
	Reason     string    `json:"reason"`
	Detail     string    `json:"detail"`
	WrittenAt  time.Time `json:"written_at"`
	UnixNanos  int64     `json:"unix_nanos"`
	PID        int       `json:"pid"`
	Goroutines int       `json:"goroutines"`
	TracesKept int64     `json:"traces_kept"`
}

// WriteBundle writes one diagnostics bundle now (also the manual
// "capture the current state" entry point) and returns its directory:
//
//	<dir>/bundle-<unix_ms>-<reason>/
//	    meta.json        reason, timestamps, pid
//	    traces.json      the flight recorder's current contents
//	    metrics.prom     full /metrics exposition text
//	    goroutines.txt   all goroutine stacks (pprof debug=2)
//	    heap.pprof       heap profile
func (w *Watchdog) WriteBundle(reason, detail string) (string, error) {
	now := time.Now()
	dir := filepath.Join(w.cfg.Dir,
		fmt.Sprintf("bundle-%d-%s", now.UnixMilli(), sanitizeReason(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	var kept int64
	if w.rec != nil {
		kept, _ = w.rec.Stats()
		traces := w.rec.Snapshot()
		sort.SliceStable(traces, func(i, j int) bool { return traces[i].DurNS > traces[j].DurNS })
		if err := writeJSONFile(filepath.Join(dir, "traces.json"), TraceList{
			Kept: kept, Traces: traces,
		}); err != nil {
			return dir, err
		}
	}

	mf, err := os.Create(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		return dir, err
	}
	err = w.reg.WritePrometheus(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dir, err
	}

	gf, err := os.Create(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		return dir, err
	}
	err = pprof.Lookup("goroutine").WriteTo(gf, 2)
	if cerr := gf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dir, err
	}

	hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return dir, err
	}
	err = pprof.WriteHeapProfile(hf)
	if cerr := hf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dir, err
	}

	if err := writeJSONFile(filepath.Join(dir, "meta.json"), bundleMeta{
		Reason:     reason,
		Detail:     detail,
		WrittenAt:  now,
		UnixNanos:  now.UnixNano(),
		PID:        os.Getpid(),
		Goroutines: runtime.NumGoroutine(),
		TracesKept: kept,
	}); err != nil {
		return dir, err
	}
	w.bundles.Add(1)
	return dir, nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitizeReason keeps bundle directory names shell-friendly.
func sanitizeReason(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "manual"
	}
	return b.String()
}
