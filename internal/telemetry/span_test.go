package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestSpanTreeBuilding(t *testing.T) {
	tr := NewTrace("")
	root := tr.StartSpan("request", SpanRef{})
	root.SetAttr("method", "GET")
	child := tr.StartSpan("forward", root)
	child.SetAttr("peer", "http://a:1")
	grand := tr.StartSpan("hedge_local", child)
	grand.End()
	child.End()
	tr.AddSpan("serialize", root, time.Now().Add(-time.Millisecond), time.Millisecond)
	root.End()
	tr.Finish()

	snap := tr.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(snap.Spans))
	}
	byName := map[string]SpanSnapshot{}
	idx := map[string]int{}
	for i, s := range snap.Spans {
		byName[s.Name] = s
		idx[s.Name] = i
	}
	if byName["request"].Parent != -1 {
		t.Errorf("request parent = %d, want -1", byName["request"].Parent)
	}
	if byName["forward"].Parent != idx["request"] {
		t.Errorf("forward parent = %d, want %d", byName["forward"].Parent, idx["request"])
	}
	if byName["hedge_local"].Parent != idx["forward"] {
		t.Errorf("hedge_local parent = %d, want %d", byName["hedge_local"].Parent, idx["forward"])
	}
	if byName["serialize"].Parent != idx["request"] {
		t.Errorf("serialize parent = %d, want %d", byName["serialize"].Parent, idx["request"])
	}
	if byName["forward"].Attrs["peer"] != "http://a:1" {
		t.Errorf("forward attrs = %v", byName["forward"].Attrs)
	}
	if byName["serialize"].DurNS != int64(time.Millisecond) {
		t.Errorf("serialize dur = %d, want 1ms", byName["serialize"].DurNS)
	}
	for _, name := range []string{"request", "forward", "hedge_local"} {
		if byName[name].DurNS < 0 {
			t.Errorf("%s still open after End", name)
		}
	}
	if snap.DurNS <= 0 {
		t.Errorf("trace duration = %d, want > 0 after Finish", snap.DurNS)
	}
}

func TestSpanArenaOverflowDrops(t *testing.T) {
	tr := NewTrace("")
	for i := 0; i < MaxSpans; i++ {
		if ref := tr.StartSpan("s", SpanRef{}); !ref.Active() {
			t.Fatalf("span %d inactive before the arena is full", i)
		}
	}
	for i := 0; i < 5; i++ {
		if ref := tr.StartSpan("overflow", SpanRef{}); ref.Active() {
			t.Fatal("overflow span is active")
		}
	}
	if got := tr.DroppedSpans(); got != 5 {
		t.Fatalf("dropped = %d, want 5", got)
	}
	if got := len(tr.Snapshot().Spans); got != MaxSpans {
		t.Fatalf("snapshot spans = %d, want %d", got, MaxSpans)
	}
}

func TestSealedTraceDropsNewSpans(t *testing.T) {
	tr := NewTrace("")
	open := tr.StartSpan("hedge_local", SpanRef{})
	tr.Finish()
	if ref := tr.StartSpan("late", SpanRef{}); ref.Active() {
		t.Fatal("sealed trace accepted a new span")
	}
	if ref := tr.AddSpan("late", SpanRef{}, time.Now(), time.Millisecond); ref.Active() {
		t.Fatal("sealed trace accepted AddSpan")
	}
	// A span opened before sealing may still End (the hedge-loser case).
	open.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].DurNS < 0 {
		t.Fatalf("pre-seal span did not close cleanly: %+v", snap.Spans)
	}
	// Finish is first-wins on the duration.
	d1 := tr.Duration()
	time.Sleep(time.Millisecond)
	if d2 := tr.Finish(); d2 != d1 {
		t.Fatalf("second Finish changed duration: %v -> %v", d1, d2)
	}
}

func TestSpanAttrOverflowDrops(t *testing.T) {
	tr := NewTrace("")
	sp := tr.StartSpan("s", SpanRef{})
	for i := 0; i < maxSpanAttrs+3; i++ {
		sp.SetAttr("k", "v")
	}
	snap := tr.Snapshot()
	if got := len(snap.Spans[0].Attrs); got != 1 { // same key — map folds them
		t.Fatalf("attrs = %v", snap.Spans[0].Attrs)
	}
}

func TestNilAndInertSpanSafety(t *testing.T) {
	var tr *Trace
	ref := tr.StartSpan("x", SpanRef{})
	ref.End()
	ref.SetAttr("a", "b")
	ref.SetValue(1)
	if ref.Active() {
		t.Fatal("nil-trace span is active")
	}
	if tr.Root().Active() {
		t.Fatal("nil-trace root is active")
	}
	tr.SetFlag(FlagError)
	if tr.HasFlag(FlagError) || tr.Finish() != 0 || tr.Duration() != 0 {
		t.Fatal("nil trace not inert")
	}
	if s := tr.Snapshot(); len(s.Spans) != 0 {
		t.Fatal("nil trace snapshot not empty")
	}
	// A trace with no spans yet has an inert root.
	if NewTrace("").Root().Active() {
		t.Fatal("empty trace root is active")
	}
}

func TestConcurrentSpansAndSnapshot(t *testing.T) {
	tr := NewTrace("")
	root := tr.StartSpan("request", SpanRef{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot reader racing the writers below — the
	// publish protocol must keep this clean under -race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := tr.Snapshot()
				for _, s := range snap.Spans {
					if s.Name == "" {
						t.Error("snapshot exposed an unnamed span")
						return
					}
				}
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				sp := tr.StartSpan("work", root)
				sp.SetAttr("k", "v")
				sp.SetValue(int64(i))
				sp.End()
				root.SetAttr("shared", "x")
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	// 1 root + 8·16 attempts, arena-capped.
	if got := len(tr.Snapshot().Spans); got != MaxSpans {
		t.Fatalf("spans = %d, want the full arena %d", got, MaxSpans)
	}
	if got := tr.DroppedSpans(); got != int64(1+8*16-MaxSpans) {
		t.Fatalf("dropped = %d, want %d", got, 1+8*16-MaxSpans)
	}
}

func TestSpanZeroAlloc(t *testing.T) {
	tr := NewTrace("")
	root := tr.StartSpan("request", SpanRef{})
	start := time.Now()
	if allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartSpan("work", root)
		sp.SetAttr("cache", "hit")
		sp.SetValue(7)
		sp.End()
		tr.AddSpan("batch", root, start, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("span recording: %v allocs/op, want 0", allocs)
	}
	// The overflow path must be allocation-free too.
	if allocs := testing.AllocsPerRun(200, func() {
		tr.StartSpan("overflow", root)
	}); allocs != 0 {
		t.Fatalf("overflow drop: %v allocs/op, want 0", allocs)
	}
}

func TestValidTraceID(t *testing.T) {
	good := []string{"0123456789abcdef", "ffffffffffffffff", NewTraceID()}
	for _, id := range good {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false", id)
		}
	}
	bad := []string{"", "abc", "0123456789ABCDEF", "0123456789abcdeg",
		"0123456789abcde", "0123456789abcdef0", "forwarded01234ab"}
	for _, id := range bad {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true", id)
		}
	}
}

func TestSnapshotParentRemapSkipsUnpublished(t *testing.T) {
	// Simulate a snapshot racing a writer mid-fill: slot 1 reserved but
	// never published. Children of published slots must remap; the
	// child of the unpublished slot must degrade to a root.
	tr := NewTrace("")
	a := tr.StartSpan("a", SpanRef{})
	hole := tr.reserve() // slot 1 claimed, never published
	if hole != 1 {
		t.Fatalf("hole slot = %d", hole)
	}
	c := tr.StartSpan("c", a)
	_ = c
	d := tr.StartSpan("d", SpanRef{tr: tr, slot: hole + 1}) // parent = hole
	_ = d
	snap := tr.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("spans = %d, want 3 (hole skipped)", len(snap.Spans))
	}
	if snap.Spans[1].Name != "c" || snap.Spans[1].Parent != 0 {
		t.Errorf("c: %+v, want parent 0", snap.Spans[1])
	}
	if snap.Spans[2].Name != "d" || snap.Spans[2].Parent != -1 {
		t.Errorf("d: %+v, want parent -1 (unpublished parent)", snap.Spans[2])
	}
}

// TestLogSummaryAllocs pins the request log's cost: summarizing a trace
// with three phases allocates no more than the per-phase timers it
// replaced did for the same trace (4 — a string per duration plus the
// result).
func TestLogSummaryAllocs(t *testing.T) {
	tr := NewTrace("")
	root := tr.StartSpan("request", SpanRef{})
	now := time.Now()
	tr.AddSpan("queue", root, now, 41*time.Microsecond)
	tr.AddSpan("extend", root, now, 12300*time.Microsecond)
	tr.AddSpan("serialize", root, now, 88*time.Microsecond)
	root.End()
	if got, want := tr.logSummary(), "queue=41µs extend=12.3ms serialize=88µs"; got != want {
		t.Fatalf("logSummary = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = tr.logSummary() }); allocs > 4 {
		t.Errorf("logSummary: %v allocs/op, want <= 4", allocs)
	}
}
