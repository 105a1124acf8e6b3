package telemetry

import (
	"maps"
	"math"
	"strings"
	"testing"
)

// TestScrapeRoundTrip parses this package's own exposition and checks the
// values survive — the contract between serve's /metrics and loadgen
// -scrape.
func TestScrapeRoundTrip(t *testing.T) {
	r := New()
	r.Counter("rt_total", "h").Add(12)
	r.Gauge("rt_gauge", "h").Set(0.25)
	v := r.CounterVec("rt_peer_total", "h", "peer")
	v.With("http://a:1").Add(5)
	v.With("http://b:2").Add(7)
	h := r.HistogramVec("rt_seconds", "h", []float64{0.1, 1}, "endpoint")
	h.With("/v1/cell").Observe(0.05)
	h.With("/v1/cell").Observe(0.5)
	h.With("/v1/curve").Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}

	if got, ok := sc.Value("rt_total", nil); !ok || got != 12 {
		t.Fatalf("rt_total = %v, %v", got, ok)
	}
	if got, ok := sc.Value("rt_gauge", nil); !ok || got != 0.25 {
		t.Fatalf("rt_gauge = %v, %v", got, ok)
	}
	if got, ok := sc.Value("rt_peer_total", map[string]string{"peer": "http://b:2"}); !ok || got != 7 {
		t.Fatalf("labeled value = %v, %v", got, ok)
	}
	if got := sc.SumFunc("rt_peer_total", nil); got != 12 {
		t.Fatalf("per-peer sum = %v, want 12", got)
	}
	if got := sc.SumFunc("rt_seconds_count", nil); got != 3 {
		t.Fatalf("histogram count sum = %v, want 3", got)
	}

	// Aggregated buckets across both endpoints: le=0.1 → 2, le=1 → 3, +Inf → 3.
	buckets := sc.Buckets("rt_seconds", nil)
	if buckets[0.1] != 2 || buckets[1] != 3 || buckets[infBound] != 3 {
		t.Fatalf("aggregated buckets = %v", buckets)
	}
	// One endpoint only.
	cell := sc.Buckets("rt_seconds", func(l map[string]string) bool { return l["endpoint"] == "/v1/cell" })
	if cell[0.1] != 1 || cell[1] != 2 {
		t.Fatalf("cell buckets = %v", cell)
	}

	// The watchdog's in-place registry read agrees with the scrape.
	if _, inPlace := r.read("rt_seconds"); !maps.Equal(inPlace, buckets) {
		t.Fatalf("in-place buckets %v, scraped %v", inPlace, buckets)
	}
	if vals, _ := r.read("rt_peer_total"); len(vals) != 2 || vals[0]+vals[1] != 12 {
		t.Fatalf("in-place per-peer values = %v", vals)
	}
}

// TestQuantileFromBucketsMatchesHistogram checks the scrape-side quantile
// agrees with the recording-side one on identical data.
func TestQuantileFromBucketsMatchesHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("qq_seconds", "h", []float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	buckets := sc.Buckets("qq_seconds", nil)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		want := h.Quantile(q)
		got := QuantileFromBuckets(buckets, q)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("q=%v: scrape %v, histogram %v", q, got, want)
		}
	}
}

func TestDeltaBuckets(t *testing.T) {
	before := map[float64]float64{0.1: 5, 1: 9, infBound: 10}
	after := map[float64]float64{0.1: 8, 1: 15, infBound: 17}
	d := DeltaBuckets(before, after)
	if d[0.1] != 3 || d[1] != 6 || d[infBound] != 7 {
		t.Fatalf("delta = %v", d)
	}
	// A window where only the window's observations count.
	if got := QuantileFromBuckets(d, 1); got != 1 {
		t.Fatalf("windowed q1 = %v, want clamp to 1", got)
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"name{le=\"0.1\" 3",          // unterminated braces
		"name 1 2 3",                 // too many fields
		"name notanumber",            // bad value
		`name{x="unclosed} 1` + "\n", // unterminated quote then brace inside
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", bad)
		}
	}
	// Comments and blank lines are fine.
	sc, err := ParseText(strings.NewReader("# HELP x y\n\n# TYPE x counter\nx 1\n"))
	if err != nil || len(sc.Samples) != 1 {
		t.Fatalf("comment handling: %v, %+v", err, sc)
	}
}
