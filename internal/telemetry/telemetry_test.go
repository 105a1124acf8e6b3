package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("test_total", "help"); again != c {
		t.Fatal("re-registration returned a different handle")
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	var nilG *Gauge
	nilG.Set(3)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

func TestVecHandles(t *testing.T) {
	r := New()
	v := r.CounterVec("vec_total", "help", "peer")
	a := v.With("a")
	a2 := v.With("a")
	b := v.With("b")
	if a != a2 {
		t.Fatal("same labels must return the same handle")
	}
	if a == b {
		t.Fatal("different labels must return different handles")
	}
	a.Add(3)
	b.Inc()
	if a.Value() != 3 || b.Value() != 1 {
		t.Fatalf("vec values = %d, %d; want 3, 1", a.Value(), b.Value())
	}
}

func TestRegistryConflictPanics(t *testing.T) {
	r := New()
	r.Counter("dup_total", "help")
	for name, f := range map[string]func(){
		"kind":   func() { r.Gauge("dup_total", "help") },
		"labels": func() { r.CounterVec("dup_total", "help", "x") },
		"name":   func() { r.Counter("bad name", "help") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s conflict did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 5, 100} {
		h.Observe(v)
	}
	// Bucket contents: le=0.1 gets {0.05, 0.1}, le=1 gets {0.5, 1},
	// le=10 gets {5}, +Inf gets {100}.
	want := []uint64{2, 2, 1, 1}
	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if s := h.Sum(); math.Abs(s-106.65) > 1e-12 {
		t.Fatalf("sum = %v, want 106.65", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q_seconds", "help", []float64{1, 2, 4})
	// 10 observations in (0,1], 10 in (1,2], nothing beyond.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	// rank(0.5) = 10 → exactly fills bucket 0 → top of [0,1].
	if got := h.Quantile(0.5); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("p50 = %v, want 1.0", got)
	}
	// rank(0.75) = 15 → halfway through bucket (1,2] → 1.5.
	if got := h.Quantile(0.75); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("p75 = %v, want 1.5", got)
	}
	// rank(0.25) = 5 → halfway through bucket [0,1] → 0.5.
	if got := h.Quantile(0.25); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("p25 = %v, want 0.5", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := New()
	h := r.Histogram("edge_seconds", "help", []float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	h.Observe(50) // lands in +Inf
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to last bound 2", got)
	}
	var nilH *Histogram
	nilH.Observe(1)
	nilH.ObserveDuration(time.Second)
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram must be inert")
	}
}

func TestObserveDuration(t *testing.T) {
	r := New()
	h := r.Histogram("dur_seconds", "help", []float64{0.01, 1})
	h.ObserveDuration(5 * time.Millisecond)
	if got := h.snapshot()[0]; got != 1 {
		t.Fatalf("5ms must land in the 10ms bucket, snapshot %v", h.snapshot())
	}
}

// TestRecordingZeroAllocs pins the hot-path contract: recording into any
// metric type allocates nothing (TestSpanZeroAlloc covers the Trace).
func TestRecordingZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("alloc_total", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_seconds", "", nil)
	cases := map[string]func(){
		"counter_add":   func() { c.Add(1) },
		"gauge_set":     func() { g.Set(3.14) },
		"gauge_add":     func() { g.Add(1) },
		"hist_observe":  func() { h.Observe(0.003) },
		"hist_duration": func() { h.ObserveDuration(3 * time.Millisecond) },
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestConcurrentRecording hammers every metric type from many goroutines
// (the CI race job runs this under -race) and checks the exact totals.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_seconds", "", []float64{0.5, 1})
	v := r.CounterVec("conc_vec_total", "", "w")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := v.With(string(rune('a' + w%2)))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				mine.Inc()
				if i%100 == 0 {
					// Exposition runs concurrently with recording.
					_ = r.WritePrometheus(discard{})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got := v.With("a").Value() + v.With("b").Value(); got != workers*per {
		t.Fatalf("vec total = %d, want %d", got, workers*per)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
