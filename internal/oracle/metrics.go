package oracle

import "multihonest/internal/telemetry"

// oracleMetrics holds the oracle's optional telemetry handles. The zero
// value (all nil) is fully inert: every telemetry recording method is
// nil-receiver-safe, so an uninstrumented oracle pays one nil check per
// event and allocates nothing. Per-op counter handles are resolved once
// here so the hot path never takes the registry's family lock.
type oracleMetrics struct {
	build, extend *telemetry.Histogram
}

// Instrument registers the oracle's metric families on reg and starts
// recording into them alongside the existing Stats counters. Call once,
// before the oracle begins serving queries: the handles are installed
// with a plain write and read without synchronization afterwards.
//
// Every counter family — the per-op query counts and the cache
// statistics — is exported as a func-backed series over the atomics the
// oracle already maintains for Stats: the warm serve path pays no second
// counter write, and the Prometheus view cannot drift from Stats.
// Only the build/extend latency histograms record inline, and those sit
// on the cold path by definition.
func (o *Oracle) Instrument(reg *telemetry.Registry) {
	queries := reg.CounterVec("oracle_queries_total", "Queries served, by operation.", "op")
	queries.Func(func() float64 { return float64(o.depthQ.Load()) }, "depth")
	queries.Func(func() float64 { return float64(o.curveQ.Load()) }, "curve")
	queries.Func(func() float64 { return float64(o.bracketQ.Load()) }, "bracket")
	queries.Func(func() float64 { return float64(o.cellQ.Load()) }, "cell")
	queries.Func(func() float64 { return float64(o.batchQ.Load()) }, "batch")
	o.met = oracleMetrics{
		build:  reg.Histogram("oracle_build_seconds", "Cold DP builds of a chain's curve.", nil),
		extend: reg.Histogram("oracle_extend_seconds", "Incremental in-place curve extensions.", nil),
	}
	reg.CounterFunc("oracle_cache_hits_total", "Curve-cache lookups that found a resident entry.", func() float64 {
		return float64(o.hits.Load())
	})
	reg.CounterFunc("oracle_cache_misses_total", "Curve-cache lookups that created a new entry.", func() float64 {
		return float64(o.misses.Load())
	})
	reg.CounterFunc("oracle_cache_evictions_total", "Entries evicted by the LRU capacity bound.", func() float64 {
		return float64(o.evictions.Load())
	})
	reg.CounterFunc("oracle_coalesced_waits_total", "Queries that blocked on another goroutine's work on the same entry.", func() float64 {
		return float64(o.coalesced.Load())
	})
	reg.GaugeFunc("oracle_cache_entries", "Resident parameter points in the curve cache.", func() float64 {
		o.mu.Lock()
		n := len(o.entries)
		o.mu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("oracle_resident_curve_bytes", "Bytes of curve state resident across cache entries.", func() float64 {
		return float64(o.residentBytes.Load())
	})
}

// clusterMetrics holds the replication tier's optional telemetry
// handles, resolved per peer at Instrument time so the forwarding path
// never takes the registry lock. The zero value is inert: a lookup in a
// nil map yields a nil handle, whose recording methods are no-ops.
type clusterMetrics struct {
	forwards, retries, hedges map[string]*telemetry.Counter
	fallbacks, loops          *telemetry.Counter
}

// Instrument registers the cluster's metric families on reg and begins
// recording into them. Call once, before the cluster starts serving.
// Breaker state is exported per peer as 0 closed, 1 half-open, 2 open
// (larger = less available), updated on every state transition.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	fw := reg.CounterVec("cluster_forwards_total", "Queries owned by a peer and forwarded to it.", "peer")
	rt := reg.CounterVec("cluster_forward_retries_total", "Extra forward attempts after a failed one.", "peer")
	hg := reg.CounterVec("cluster_hedges_total", "Local computes raced against a slow owner.", "peer")
	bs := reg.GaugeVec("cluster_breaker_state", "Circuit breaker per peer: 0 closed, 1 half-open, 2 open.", "peer")
	c.met = clusterMetrics{
		forwards:  make(map[string]*telemetry.Counter),
		retries:   make(map[string]*telemetry.Counter),
		hedges:    make(map[string]*telemetry.Counter),
		fallbacks: reg.Counter("cluster_local_fallbacks_total", "Owner unreachable; query answered locally."),
		loops:     reg.Counter("cluster_loop_serves_total", "Forwarded requests answered locally (loop prevention)."),
	}
	for _, p := range c.peers {
		if p == c.self {
			continue
		}
		c.met.forwards[p] = fw.With(p)
		c.met.retries[p] = rt.With(p)
		c.met.hedges[p] = hg.With(p)
		if b := c.breakers[p]; b != nil {
			b.stateG = bs.With(p) // registers the series at its closed (0) state
		}
	}
}
