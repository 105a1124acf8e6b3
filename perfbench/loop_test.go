package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStall stalls a stub server once for a known
// interval and checks that every request due during the stall is charged
// the wait from its due time — no coordinated omission — while the
// generator's own lag stays small.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		stall   = 200 * time.Millisecond
		stallAt = 300 // the request that triggers the stall
		n       = 1000
	)
	var (
		mu         sync.Mutex
		served     int
		stallUntil time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		if served == stallAt {
			stallUntil = time.Now().Add(stall)
		}
		until := stallUntil
		mu.Unlock()
		time.Sleep(time.Until(until))
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{Due: time.Duration(i) * time.Millisecond, Path: "/"}
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	ss, start := runOpenLoop(loopConfig{Client: client, Base: srv.URL, Conns: 2}, reqs)

	mu.Lock()
	end := stallUntil.Sub(start)
	mu.Unlock()
	if end <= 0 {
		t.Fatal("stall never happened")
	}
	begin := end - stall
	inStall := 0
	var lag []time.Duration
	for i := range ss {
		s := &ss[i]
		if failedSample(s) {
			t.Fatalf("request %d failed: status %d", i, s.Status)
		}
		lag = append(lag, s.lag())
		if s.Due < begin || s.Due >= end {
			continue
		}
		inStall++
		if want := end - s.Due; s.latency() < want {
			t.Errorf("request due %v into the window: latency %v, but the stall alone held it %v", s.Due, s.latency(), want)
		}
	}
	if inStall < int(stall/time.Millisecond)*3/4 {
		t.Fatalf("only %d requests fell due during the %v stall", inStall, stall)
	}
	if p := percentile(lag, 0.99); p.V > 5*time.Millisecond {
		t.Errorf("generator lag p99 %v: the generator, not the server, fell behind", p.V)
	}
}

// TestStreamsDeterministic checks that a seed fixes the request stream
// and that different seeds draw different universes.
func TestStreamsDeterministic(t *testing.T) {
	for name, p := range workloads {
		a, b := newGen(p, 7), newGen(p, 7)
		if da, db := digest(a.stream(2, p.Rate, 1)), digest(b.stream(2, p.Rate, 1)); da != db {
			t.Errorf("%s: seed 7 gave two streams (%s, %s)", name, da, db)
		}
		c := newGen(p, 8)
		same := 0
		for i := range a.points {
			if a.points[i] == c.points[i] {
				same++
			}
		}
		if same == len(a.points) {
			t.Errorf("%s: seeds 7 and 8 drew the same universe", name)
		}
		if digest(a.stream(2, p.Rate, 1)) == digest(c.stream(2, p.Rate, 1)) {
			t.Errorf("%s: seeds 7 and 8 drew the same stream", name)
		}
	}
}
