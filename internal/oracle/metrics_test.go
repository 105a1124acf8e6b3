package oracle

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
)

// TestInstrumentedOracleCounters drives an instrumented oracle through
// hits, misses, builds, and extensions and checks every metric family
// lands in the Prometheus exposition with the right values.
func TestInstrumentedOracleCounters(t *testing.T) {
	o := New(8)
	reg := telemetry.New()
	o.Instrument(reg)

	if _, err := o.SettlementFailure(0.2, 0.4, 16); err != nil { // miss + cold build
		t.Fatal(err)
	}
	if _, err := o.SettlementFailure(0.2, 0.4, 16); err != nil { // warm hit
		t.Fatal(err)
	}
	if _, err := o.SettlementFailure(0.2, 0.4, 32); err != nil { // hit + extension
		t.Fatal(err)
	}
	if _, err := o.SettlementCurve(0.2, 0.4, 32); err != nil { // hit, already long enough
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"oracle_cache_hits_total":     3,
		"oracle_cache_misses_total":   1,
		"oracle_build_seconds_count":  1,
		"oracle_extend_seconds_count": 1,
		"oracle_cache_entries":        1,
	}
	for name, want := range checks {
		if got, ok := sc.Value(name, nil); !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if got, _ := sc.Value("oracle_queries_total", map[string]string{"op": "cell"}); got != 3 {
		t.Errorf("cell query counter = %v, want 3", got)
	}
	if got, _ := sc.Value("oracle_queries_total", map[string]string{"op": "curve"}); got != 1 {
		t.Errorf("curve query counter = %v, want 1", got)
	}
	if got, ok := sc.Value("oracle_resident_curve_bytes", nil); !ok || got <= 0 {
		t.Errorf("resident bytes gauge = %v (present=%v), want > 0", got, ok)
	}
}

// TestOracleWarmServeZeroAllocsInstrumented pins the telemetry cost on
// the oracle's warm serve path: a fully instrumented oracle answering a
// traced point query from a resident curve must not allocate.
func TestOracleWarmServeZeroAllocsInstrumented(t *testing.T) {
	o := New(8)
	o.Instrument(telemetry.New())
	if _, err := o.SettlementFailure(0.2, 0.4, 64); err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.WithTrace(context.Background(), telemetry.NewTrace(""))
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm instrumented serve: %v allocs/op, want 0", allocs)
	}
}

// TestTelemetryStatsConsistency drives an instrumented oracle through a
// randomized concurrent workload and checks /metrics ≡ Stats(): the
// telemetry registry and the Stats counters agree exactly on every
// shared quantity. The two are recorded at the same call sites but
// through different mechanisms (atomic fields vs. metric handles), so a
// drifting pair means an instrumentation bug, not load.
func TestTelemetryStatsConsistency(t *testing.T) {
	o := New(4) // smaller than the point set, so evictions happen
	reg := telemetry.New()
	o.Instrument(reg)

	points := []struct{ alpha, frac float64 }{
		{0.05, 0.90}, {0.10, 1.00}, {0.15, 0.75}, {0.20, 0.50},
		{0.25, 0.50}, {0.30, 0.25}, {0.35, 0.10}, {0.40, 0.05},
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				pt := points[rng.Intn(len(points))]
				ph := pt.frac * (1 - pt.alpha)
				k := 8 + rng.Intn(40)
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = o.SettlementFailure(pt.alpha, ph, k)
				case 1:
					_, err = o.SettlementCurve(pt.alpha, ph, k)
				case 2:
					_, _, err = o.SettlementBracket(pt.alpha, ph, k, 0)
				default:
					// Unreachable targets are a legitimate outcome at
					// slow-decay points; the query still counts.
					if _, err = o.ConfirmationDepth(pt.alpha, ph, 1e-2, 256); errors.Is(err, settlement.ErrTargetUnreachable) {
						err = nil
					}
				}
				if err != nil {
					t.Errorf("workload query: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	st := o.Stats()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int64{
		"oracle_cache_hits_total":      st.Hits,
		"oracle_cache_misses_total":    st.Misses,
		"oracle_cache_evictions_total": st.Evictions,
		"oracle_coalesced_waits_total": st.CoalescedWaits,
		"oracle_build_seconds_count":   st.Builds,
		"oracle_extend_seconds_count":  st.Extends,
		"oracle_resident_curve_bytes":  st.ResidentCurveBytes,
		"oracle_cache_entries":         int64(st.Entries),
	}
	for name, want := range checks {
		if got, ok := sc.Value(name, nil); !ok || got != float64(want) {
			t.Errorf("%s = %v (present=%v), Stats says %d", name, got, ok, want)
		}
	}
	if st.Evictions == 0 {
		t.Error("workload produced no evictions; consistency check under-exercised")
	}
	opChecks := map[string]int64{
		"cell": st.CellQueries, "curve": st.CurveQueries,
		"bracket": st.BracketQueries, "depth": st.DepthQueries,
	}
	for op, want := range opChecks {
		got, ok := sc.Value("oracle_queries_total", map[string]string{"op": op})
		if want == 0 && !ok {
			continue // series never minted — consistent with a zero counter
		}
		if got != float64(want) {
			t.Errorf("oracle_queries_total{op=%q} = %v, Stats says %d", op, got, want)
		}
	}
}

// TestOracleWarmServeZeroAllocsRecorded extends the warm-path pin to the
// full flight-recorder configuration: a traced query with a live root
// span, answered from a resident curve and offered to the recorder,
// still allocates nothing — the acceptance bar for leaving recording on
// in production.
func TestOracleWarmServeZeroAllocsRecorded(t *testing.T) {
	o := New(8)
	o.Instrument(telemetry.New())
	if _, err := o.SettlementFailure(0.2, 0.4, 64); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Capacity: 64, SampleRate: 0.5})
	tr := telemetry.NewTrace("")
	root := tr.StartSpan("request", telemetry.SpanRef{})
	defer root.End()
	ctx := telemetry.WithTrace(context.Background(), tr)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 64); err != nil {
			t.Fatal(err)
		}
		rec.Record(tr)
	})
	if allocs != 0 {
		t.Fatalf("warm recorded serve: %v allocs/op, want 0", allocs)
	}
	if kept, dropped := rec.Stats(); kept+dropped != 501 {
		t.Fatalf("recorder saw %d+%d offers, want 501", kept, dropped)
	}
}

// TestClusterInstrumentRegistersPerPeer checks the replication tier's
// families appear per peer, with breaker gauges starting closed.
func TestClusterInstrumentRegistersPerPeer(t *testing.T) {
	srv := NewServer(New(8), 1)
	c := NewCluster(srv, ClusterConfig{
		Self:  "http://a:1",
		Peers: []string{"http://a:1", "http://b:2", "http://c:3"},
	})
	reg := telemetry.New()
	c.Instrument(reg)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"http://b:2", "http://c:3"} {
		if got, ok := sc.Value("cluster_breaker_state", map[string]string{"peer": peer}); !ok || got != 0 {
			t.Errorf("breaker gauge for %s = %v (present=%v), want closed (0)", peer, got, ok)
		}
	}
	if _, ok := sc.Value("cluster_breaker_state", map[string]string{"peer": "http://a:1"}); ok {
		t.Error("self must not get a breaker gauge")
	}

	// Exercise a breaker transition and re-scrape.
	br := c.breakerFor("http://b:2")
	for i := 0; i < 10; i++ {
		br.failure()
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err = telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sc.Value("cluster_breaker_state", map[string]string{"peer": "http://b:2"}); got != 2 {
		t.Errorf("opened breaker gauge = %v, want 2", got)
	}
}
