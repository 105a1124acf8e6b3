package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
	"unsafe"

	"multihonest/internal/faultfs"
	"multihonest/internal/oracle"
)

// traceSegment is the length of the window's segments: CPU per request
// is taken per segment, and in a traced run odd segments carry trace
// headers.
const traceSegment = time.Second

// runServing runs hot-read or churn against an in-process stack.
func runServing(rc runConfig, p servingParams) (*report, error) {
	rep := newReport()
	g := newGen(p, rc.Seed)
	rep.Details["points"] = len(g.points)

	// Hot-read warm-boots from a snapshot of its hot set, built here
	// before set-up is timed.
	var snapPath string
	if p.Capacity != nil {
		snapPath = filepath.Join(rc.Work, fmt.Sprintf("%s-s%d.mhsnap", rc.Workload, rc.Seed))
		save, size, err := buildSnapshot(g, p.CacheEntries, snapPath)
		if err != nil {
			return nil, err
		}
		rep.layer("oracle.snapshot.save_ms", ms(save), "ms")
		rep.layer("oracle.snapshot.bytes", float64(size), "bytes")
	}

	var tr *tracer
	if rc.Trace {
		tr = newTracer(time.Now())
	}
	// Set-up is timed SetupReps times, half before the window and half
	// after it, so a passing slow spell on the machine cannot set every
	// sample; the stack composed last before the window serves it.
	scfg := stackConfig{CacheEntries: p.CacheEntries, Snapshot: snapPath, Tracer: tr}
	var times setupTimes
	if err := setUpReps(scfg, p.Conns, p.SetupReps/2, &times); err != nil {
		return nil, err
	}
	st, client, err := timedSetUp(scfg, p.Conns, &times)
	if err != nil {
		return nil, err
	}
	defer func() {
		client.CloseIdleConnections()
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing stack:", err)
		}
	}()

	cfg := loopConfig{Client: client, Base: st.base, Conns: p.Conns}
	if p.Warmup > 0 {
		ss, _ := runOpenLoop(cfg, g.stream(1, p.Rate, p.Warmup))
		rep.count(ss)
	}

	// The fixed-rate window: every end-to-end serving metric comes from
	// here. The generator's pre-drawn requests and the samples it records
	// share the stack's heap; their bytes are measured and taken out of
	// peak_heap_mb.
	runtime.GC()
	heap0 := int64(readMetric(heapMetric))
	reqs := g.stream(2, p.Rate, float64(rc.Seconds)*p.FixedShare)
	runtime.GC()
	genBytes := int64(readMetric(heapMetric)) - heap0 + int64(len(reqs))*int64(unsafe.Sizeof(sample{}))
	rep.Details["generator_heap_mb"] = float64(genBytes) / 1e6
	rep.Details["stream_digest"] = digest(reqs)
	stride := max(1, len(reqs)/max(1, p.Verify))
	cfg.Keep = func(i int) bool { return i%stride == 0 || reqs[i].Q.Op == "batch" }
	if tr != nil {
		cfg.IDs = &traceIDs{}
		cfg.Traced = func(due time.Duration) bool { return (due/traceSegment)%2 == 1 }
	}
	stats0 := st.o.Stats()
	kept0, dropped0 := st.rec.Stats()
	heap := startHeapSampler(time.Second)
	segs, segDone := sampleSegments(reqs)
	ss, window := runOpenLoop(cfg, reqs)
	peak := heap.Stop()
	<-segDone
	stats1 := st.o.Stats()
	kept1, dropped1 := st.rec.Stats()
	rep.count(ss)

	var lat, lag []time.Duration
	for i := range ss {
		lag = append(lag, ss[i].lag())
		if tr == nil || !cfg.Traced(ss[i].Due) {
			lat = append(lat, ss[i].latency())
		}
	}
	p99 := percentile(append([]time.Duration(nil), lat...), 0.99)
	p50 := percentile(lat, 0.5)
	rep.Details["p99"] = p99
	rep.metric("p50_ms", ms(p50.V), "ms")
	genLag := percentile(lag, 0.99).V
	rep.Details["gen_lag_p99_ms"] = ms(genLag)
	if ms(genLag) > p.MaxLagMs {
		return nil, fmt.Errorf("run invalid: the generator sent 1%% of requests more than %g ms late (p99 lag %v), so the load was not the open loop it claims", p.MaxLagMs, genLag)
	}
	rep.metric("cpu_us_per_req", cpuPerReq(segs, ss), "us")
	rep.metric("peak_heap_mb", peak-float64(genBytes)/1e6, "MB")

	if p.Capacity != nil && !rc.Trace {
		capacity, rates := runCapacity(cfg, g, p, float64(rc.Seconds)*(1-p.FixedShare), rep)
		rep.Details["capacity_rps"] = capacity
		rep.Details["capacity_segment_rps"] = rates
	}

	if err := setUpReps(scfg, p.Conns, p.SetupReps-len(times.total), &times); err != nil {
		return nil, err
	}
	rep.metric("setup_s", median(times.total), "s")
	if p.Capacity != nil {
		rep.layer("oracle.snapshot.load_ms", median(times.load)*1e3, "ms")
	}

	// Correctness: a stride sample of answers, plus every batch answer,
	// re-derived bit for bit on cold oracles.
	var vq []query
	var vb [][]byte
	for i := range ss {
		if ss[i].Body != nil && !failedSample(&ss[i]) {
			vq = append(vq, reqs[i].Q)
			vb = append(vb, ss[i].Body)
		}
	}
	bad, errs := verify(vq, vb, p.Conns)
	rep.Attempted += int64(len(vq))
	rep.Failed += int64(bad)
	rep.Details["verified"] = len(vq)
	for _, e := range errs {
		rep.Errors = append(rep.Errors, "verify "+e.Error())
	}

	if rc.Trace {
		layerServing(rc, rep, tr, st, reqs, ss, window, layerInputs{
			stats0: stats0, stats1: stats1,
			kept: kept1 - kept0, dropped: dropped1 - dropped0,
			segs: segs, p: p,
		})
	}
	return rep, nil
}

// setupTimes collects timed set-ups: total and snapshot-load seconds.
type setupTimes struct{ total, load []float64 }

// timedSetUp composes one stack and times it from nothing to a bound
// listener and a readiness probe answering 200 — from then on the kernel
// queues connections for a server that is ready to answer them. The
// socket round trip that follows is checked but not timed: it would add
// only connection and scheduler latency.
func timedSetUp(cfg stackConfig, conns int, times *setupTimes) (*stack, *http.Client, error) {
	runtime.GC() // an earlier set-up's garbage is not this one's cost
	t0 := time.Now()
	st, err := newStack(cfg)
	if err != nil {
		return nil, nil, err
	}
	ready := st.ready()
	times.total = append(times.total, time.Since(t0).Seconds())
	times.load = append(times.load, st.snapLoad.Seconds())
	client := newClient(conns)
	if !ready {
		err = fmt.Errorf("stack not ready after composition")
	} else {
		err = waitReady(client, st.base)
	}
	if err != nil {
		client.CloseIdleConnections()
		st.Close()
		return nil, nil, err
	}
	return st, client, nil
}

// setUpReps runs n timed set-ups, closing each stack at once.
func setUpReps(cfg stackConfig, conns, n int, times *setupTimes) error {
	for i := 0; i < n; i++ {
		st, client, err := timedSetUp(cfg, conns, times)
		if err != nil {
			return err
		}
		client.CloseIdleConnections()
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// buildSnapshot computes the hot set on an oracle of the serving cache
// size and saves it where the stack warm-boots from.
func buildSnapshot(g *gen, cache int, path string) (time.Duration, int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	o := oracle.New(cache)
	for _, q := range g.warmSet() {
		var err error
		if q.Tau > 0 {
			_, _, err = o.SettlementBracket(q.Alpha, q.Ph, q.K, q.Tau)
		} else {
			_, err = o.SettlementFailure(q.Alpha, q.Ph, q.K)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("building warm set: %w", err)
		}
	}
	t0 := time.Now()
	if _, err := o.SaveSnapshotFile(faultfs.OS, path); err != nil {
		return 0, 0, fmt.Errorf("saving warm-boot snapshot: %w", err)
	}
	d := time.Since(t0)
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return d, fi.Size(), nil
}

// runCapacity measures the highest rate the stack completes requests
// at: both connections send back to back, each taking the next request
// the moment its last one completes, so the backlog never empties, for
// the given seconds. Capacity is the median over SegmentS-second
// segments (the first skipped as warm-up) of requests completed per
// second, so a passing stall on the machine costs one segment's rank,
// not the figure. It returns the per-segment rates too.
func runCapacity(cfg loopConfig, g *gen, p servingParams, seconds float64, rep *report) (float64, []float64) {
	seg := time.Duration(p.Capacity.SegmentS * float64(time.Second))
	d := time.Duration(seconds * float64(time.Second))
	cfg.Keep = nil
	ss := runClosedLoop(cfg, g.stream(99, p.Capacity.StreamRate, 1), d)
	rep.count(ss)
	done := make([]float64, max(1, int(d/seg)))
	for i := range ss {
		if k := int(ss[i].Done / seg); k < len(done) {
			done[k]++
		}
	}
	rates := make([]float64, 0, len(done))
	for _, n := range done[min(1, len(done)-1):] {
		rates = append(rates, n/seg.Seconds())
	}
	return median(rates), rates
}

// segmentMark is what sampleSegments reads at a segment boundary.
type segmentMark struct {
	rt  runtimeCounters
	cpu time.Duration
}

// sampleSegments reads the runtime counters and the process CPU time at
// every traceSegment boundary of the window. CPU per request is taken
// per segment, and a traced run charges allocation and GC to its
// untraced segments only.
func sampleSegments(reqs []request) ([]segmentMark, chan struct{}) {
	n := int(reqs[len(reqs)-1].Due/traceSegment) + 2
	out := make([]segmentMark, n)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * traceSegment)))
			out[i] = segmentMark{readRuntime(), cpuTime()}
		}
	}()
	return out, done
}

// cpuPerReq is the median over the window's whole segments of process
// CPU time per request completed in the segment, in microseconds. A
// median of segments keeps a few seconds of interference from outside
// the process out of the figure.
func cpuPerReq(segs []segmentMark, ss []sample) float64 {
	done := make([]int, len(segs))
	for i := range ss {
		if k := int(ss[i].Done / traceSegment); k < len(done) {
			done[k]++
		}
	}
	var per []float64
	for k := 0; k+1 < len(segs); k++ {
		if done[k] > 0 {
			per = append(per, float64(segs[k+1].cpu-segs[k].cpu)/1e3/float64(done[k]))
		}
	}
	return median(per)
}

type layerInputs struct {
	stats0, stats1 oracle.Stats
	kept, dropped  int64
	segs           []segmentMark
	p              servingParams
}

// layerServing derives the per-layer metrics of a traced serving run and
// writes its spans and per-layer summary next to the result.
func layerServing(rc runConfig, rep *report, tr *tracer, st *stack, reqs []request, ss []sample, window time.Time, in layerInputs) {
	var traced, untraced []time.Duration
	var lag, wait []time.Duration
	var traces []requestTrace
	var lt []layerTimes
	var respBytes float64
	builds := map[string]int{}
	var coalesce []time.Duration
	for i := range ss {
		s := &ss[i]
		lag = append(lag, s.lag())
		wait = append(wait, s.connWait())
		respBytes += float64(s.Bytes)
		if s.Trace == "" {
			untraced = append(untraced, s.latency())
			continue
		}
		traced = append(traced, s.latency())
		rt, l, ok := tr.join(s, reqs[i].Q.Op, window)
		if !ok {
			continue
		}
		traces = append(traces, rt)
		lt = append(lt, l)
		for _, sp := range rt.Spans {
			switch sp.Name {
			case "build":
				builds[fmt.Sprintf("%s/%g", sp.Key, reqs[i].Q.Tau)]++
			case "coalesce_wait":
				coalesce = append(coalesce, time.Duration(sp.End-sp.Start))
			}
		}
	}
	rep.layer("gen.lag_p99_ms", ms(percentile(lag, 0.99).V), "ms")
	rep.layer("gen.conn_wait_p50_ms", ms(percentile(wait, 0.5).V), "ms")

	mean := func(f func(l layerTimes) time.Duration) float64 {
		if len(lt) == 0 {
			return 0
		}
		var sum time.Duration
		for _, l := range lt {
			sum += f(l)
		}
		return float64(sum) / 1e3 / float64(len(lt))
	}
	rep.layer("nethttp.self_us", mean(func(l layerTimes) time.Duration { return l.nethttp }), "us")
	rep.layer("telemetry.self_us", mean(func(l layerTimes) time.Duration { return l.telemetry }), "us")
	rep.layer("telemetry.recorder_kept", float64(in.kept), "count")
	rep.layer("telemetry.recorder_dropped", float64(in.dropped), "count")
	rep.layer("oracle.handler.self_us", mean(func(l layerTimes) time.Duration { return l.handler }), "us")
	rep.layer("oracle.handler.serialize_us", mean(func(l layerTimes) time.Duration { return l.serialize }), "us")
	rep.layer("oracle.handler.resp_bytes", respBytes/float64(len(ss)), "bytes")

	d0, d1 := in.stats0, in.stats1
	hits, misses := d1.Hits-d0.Hits, d1.Misses-d0.Misses
	rep.layer("oracle.cache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	rep.layer("oracle.cache.coalesced_waits", float64(d1.CoalescedWaits-d0.CoalescedWaits), "count")
	rep.layer("oracle.cache.coalesce_wait_ms", ms(meanDur(coalesce)), "ms")
	rep.layer("oracle.cache.evictions", float64(d1.Evictions-d0.Evictions), "count")
	nb := 0
	for _, n := range builds {
		nb += n
	}
	rep.layer("oracle.cache.rebuild_ratio", ratio(float64(nb), float64(len(builds))), "ratio")
	rep.layer("oracle.cache.resident_mb", float64(d1.ResidentCurveBytes)/1e6, "MB")
	rep.layer("oracle.cache.build_ms_mean", ratio(float64(d1.BuildNanos-d0.BuildNanos)/1e6, float64(d1.Builds-d0.Builds)), "ms")
	rep.layer("oracle.cache.extend_ms_mean", ratio(float64(d1.ExtendNanos-d0.ExtendNanos)/1e6, float64(d1.Extends-d0.Extends)), "ms")

	var bq, bg float64
	for i := range ss {
		if reqs[i].Q.Op != "batch" || ss[i].Body == nil {
			continue
		}
		var a answer
		if json.Unmarshal(ss[i].Body, &a) == nil && a.Plan != nil {
			bq += float64(a.Plan.Queries)
			bg += float64(a.Plan.Groups)
		}
	}
	rep.layer("oracle.batch.queries_per_group", ratio(bq, bg), "count")

	if in.p.Capacity == nil {
		// Churn has no warm boot: the snapshot codec is measured on the
		// cache the window left behind.
		snapshotRoundTrip(rc, rep, st.o)
	}

	// Allocation and GC are charged to untraced segments only.
	var rtU runtimeCounters
	for i := 0; i+1 < len(in.segs); i += 2 {
		rtU.allocBytes += in.segs[i+1].rt.allocBytes - in.segs[i].rt.allocBytes
		rtU.gcCycles += in.segs[i+1].rt.gcCycles - in.segs[i].rt.gcCycles
	}
	rep.layer("goruntime.alloc_bytes_per_req", ratio(float64(rtU.allocBytes), float64(len(untraced))), "bytes")
	rep.layer("goruntime.gc_cycles_per_kreq", ratio(float64(rtU.gcCycles)*1e3, float64(len(untraced))), "count")

	pt, pu := percentile(traced, 0.5), percentile(untraced, 0.5)
	rep.layer("trace.overhead_pct", ratio(100*float64(pt.V-pu.V), float64(pu.V)), "%")

	probeLadder(rep, st)
	probeLattice(rep)

	base := filepath.Join(rc.Out, fmt.Sprintf("%s-s%d", rc.Workload, rc.Seed))
	if err := writeSpans(base+".spans.jsonl", traces); err != nil {
		rep.Errors = append(rep.Errors, "writing spans: "+err.Error())
	}
	summary := map[string]any{
		"traced_requests": len(lt),
		"self_us":         selfSummary(lt),
		"per_layer":       rep.Layers,
		"ops":             opCounts(reqs),
	}
	if err := writeJSON(base+".layers.json", summary); err != nil {
		rep.Errors = append(rep.Errors, "writing layer summary: "+err.Error())
	}
}

// snapshotRoundTrip saves the oracle's cache and loads it into a fresh
// oracle, timing both.
func snapshotRoundTrip(rc runConfig, rep *report, o *oracle.Oracle) {
	path := filepath.Join(rc.Work, fmt.Sprintf("%s-s%d.mhsnap", rc.Workload, rc.Seed))
	if err := os.MkdirAll(rc.Work, 0o755); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		return
	}
	t0 := time.Now()
	if _, err := o.SaveSnapshotFile(faultfs.OS, path); err != nil {
		rep.Errors = append(rep.Errors, "snapshot save: "+err.Error())
		return
	}
	save := time.Since(t0)
	fi, err := os.Stat(path)
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		return
	}
	t0 = time.Now()
	if _, err := oracle.New(o.Stats().Entries).LoadSnapshotFile(faultfs.OS, path); err != nil {
		rep.Errors = append(rep.Errors, "snapshot load: "+err.Error())
		return
	}
	rep.layer("oracle.snapshot.save_ms", ms(save), "ms")
	rep.layer("oracle.snapshot.load_ms", ms(time.Since(t0)), "ms")
	rep.layer("oracle.snapshot.bytes", float64(fi.Size()), "bytes")
}

// selfSummary gives mean, p50 and p99 of each layer's self time.
func selfSummary(lt []layerTimes) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, f := range map[string]func(l layerTimes) time.Duration{
		"nethttp":          func(l layerTimes) time.Duration { return l.nethttp },
		"telemetry":        func(l layerTimes) time.Duration { return l.telemetry },
		"oracle.handler":   func(l layerTimes) time.Duration { return l.handler },
		"oracle.serialize": func(l layerTimes) time.Duration { return l.serialize },
		"oracle.cache":     func(l layerTimes) time.Duration { return l.cache },
	} {
		ds := make([]time.Duration, len(lt))
		for i, l := range lt {
			ds[i] = f(l)
		}
		m := meanDur(ds)
		out[name] = map[string]float64{
			"mean_us": float64(m) / 1e3,
			"p50_us":  float64(percentile(ds, 0.5).V) / 1e3,
			"p99_us":  float64(percentile(ds, 0.99).V) / 1e3,
		}
	}
	return out
}

func opCounts(reqs []request) string {
	n := map[string]int{}
	for i := range reqs {
		n[reqs[i].Q.Op]++
	}
	var parts []string
	for op, c := range n {
		parts = append(parts, fmt.Sprintf("%s=%d", op, c))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
