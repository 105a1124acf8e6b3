package telemetry

import (
	"context"
	"regexp"
	"testing"
)

func TestTraceIDFormat(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !re.MatchString(id) {
			t.Fatalf("trace ID %q not 16 lowercase hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace("")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatal("empty context must yield nil trace")
	}
}

func TestNilTraceInert(t *testing.T) {
	var tr *Trace
	if tr.logSummary() != "" || !tr.Start().IsZero() {
		t.Fatal("nil trace must be inert")
	}
}
