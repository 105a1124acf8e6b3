package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"multihonest/internal/oracle"
)

// servingParams sizes one serving workload. The values live in
// workloads below and are stamped into every result.
type servingParams struct {
	CacheEntries int         `json:"cache_entries"` // serve -cache for both serving workloads
	Points       int         `json:"points"`        // distinct (α, frac) points the traffic draws from
	AlphaBins    int         `json:"alpha_bins"`    // strata along α (Points is a multiple)
	TauChains    int         `json:"tau_chains"`    // hot-read: points also cached as a τ > 0 bracket chain
	ZipfS        float64     `json:"zipf_s"`        // popularity skew over the points
	KMin         int         `json:"k_min"`
	KMax         int         `json:"k_max"`
	Mix          []share     `json:"mix"`
	Rate         float64     `json:"rate_rps"`    // fixed open-loop arrival rate (Poisson)
	Conns        int         `json:"conns"`       // client goroutines = keep-alive connections
	FixedShare   float64     `json:"fixed_share"` // share of --seconds at the fixed rate; the rest measures capacity
	Capacity     *saturation `json:"capacity,omitempty"`
	Verify       int         `json:"verify_samples"` // answers re-derived on a cold oracle
	SetupReps    int         `json:"setup_reps"`
	Warmup       float64     `json:"warmup_s"`   // untimed traffic before the window
	MaxLagMs     float64     `json:"max_lag_ms"` // a run whose gen.lag_p99_ms exceeds this is invalid
}

// share is one op's share of the request mix.
type share struct {
	Op    string  `json:"op"`
	Share float64 `json:"share"`
}

// saturation sizes hot-read's capacity measurement (see runCapacity).
type saturation struct {
	StreamRate float64 `json:"stream_rps"` // one second of arrivals at this rate is cycled through
	SegmentS   float64 `json:"segment_s"`
}

// bracketTau is the pruning threshold of τ > 0 bracket chains.
const bracketTau = 1e-20

var workloads = map[string]servingParams{
	"hot-read": {
		CacheEntries: 12,
		Points:       8,
		AlphaBins:    4,
		TauChains:    3,
		ZipfS:        1.1,
		KMin:         128,
		KMax:         256,
		Mix:          []share{{"failure", 0.4}, {"cell", 0.35}, {"bracket", 0.25}},
		Rate:         4000,
		Conns:        2,
		FixedShare:   0.7,
		Capacity:     &saturation{StreamRate: 20000, SegmentS: 0.5},
		Verify:       48,
		SetupReps:    51,
		Warmup:       0.5,
		MaxLagMs:     10,
	},
	"churn": {
		CacheEntries: 12,
		Points:       48,
		AlphaBins:    8,
		ZipfS:        1.6,
		KMin:         16,
		KMax:         256,
		Mix: []share{{"failure", 0.25}, {"cell", 0.2}, {"bracket", 0.15}, {"curve", 0.3},
			{"depth", 0.05}, {"batch", 0.05}},
		Rate:       150,
		Conns:      2,
		FixedShare: 1,
		Verify:     32,
		SetupReps:  51,
		Warmup:     0,
		MaxLagMs:   50,
	},
}

// point is one (α, frac) parameter point on the basis-point grid.
type point struct {
	AlphaBP, FracBP int
	K               int  // hot-read: horizon cached by the warm-boot snapshot
	Tau             bool // hot-read: a τ > 0 bracket chain is cached too
}

func (p point) alpha() float64 { return float64(p.AlphaBP) / 1e4 }
func (p point) frac() float64  { return float64(p.FracBP) / 1e4 }

// query is one generated request: enough to build it and to re-derive
// its answer on a cold oracle.
type query struct {
	Op     string
	Alpha  float64
	Frac   float64 // cell, curve, depth: sent as frac
	Ph     float64 // failure, bracket: sent as ph
	K      int
	Tau    float64
	Target float64
	KMax   int
	Batch  []oracle.BatchQuery
}

// request is a query scheduled at Due after the window opens.
type request struct {
	Due  time.Duration
	Q    query
	Path string
	Body []byte
}

func (r *request) method() string {
	if r.Body != nil {
		return http.MethodPost
	}
	return http.MethodGet
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// build renders the query as the HTTP request the oracle server parses.
func (q query) build() (string, []byte) {
	a := fmtF(q.Alpha)
	switch q.Op {
	case "failure":
		return fmt.Sprintf("/v1/failure?alpha=%s&ph=%s&k=%d", a, fmtF(q.Ph), q.K), nil
	case "cell":
		return fmt.Sprintf("/v1/cell?alpha=%s&frac=%s&k=%d", a, fmtF(q.Frac), q.K), nil
	case "bracket":
		return fmt.Sprintf("/v1/bracket?alpha=%s&ph=%s&k=%d&tau=%s", a, fmtF(q.Ph), q.K, fmtF(q.Tau)), nil
	case "curve":
		return fmt.Sprintf("/v1/curve?alpha=%s&frac=%s&k=%d", a, fmtF(q.Frac), q.K), nil
	case "depth":
		return fmt.Sprintf("/v1/depth?alpha=%s&frac=%s&target=%s&kmax=%d", a, fmtF(q.Frac), fmtF(q.Target), q.KMax), nil
	case "batch":
		body, err := json.Marshal(struct {
			Queries []oracle.BatchQuery `json:"queries"`
		}{q.Batch})
		if err != nil {
			panic(err) // plain structs of numbers and strings always marshal
		}
		return "/v1/batch", body
	}
	panic("unknown op " + q.Op)
}

// gen draws one workload's inputs from its seed: the point universe is
// fixed per seed, and every stream drawn from it (the fixed-rate window,
// the capacity run, warm-up) has its own sub-seed.
type gen struct {
	p      servingParams
	seed   uint64
	points []point
	mixCDF []float64
}

func newGen(p servingParams, seed uint64) *gen {
	g := &gen{p: p, seed: seed}
	// Points are stratified: the (α, frac) plane [0.05, 0.45) × [0.05, 1)
	// is cut into AlphaBins × Points/AlphaBins cells, each seed draws one
	// point inside each cell, and each cell's popularity rank is the same
	// for every seed. Seeds thus give different universes with the same
	// cost profile, so results compare across seeds.
	fracBins := p.Points / p.AlphaBins
	cells := rand.New(rand.NewPCG(0x72616e6b, 0)).Perm(p.Points) // "rank"
	rng := rand.New(rand.NewPCG(seed, 0x756e6976))               // "univ"
	for _, c := range cells {
		a, f := c%p.AlphaBins, c/p.AlphaBins
		aw, fw := 4000/p.AlphaBins, 9500/fracBins
		pt := point{AlphaBP: 500 + a*aw + rng.IntN(aw), FracBP: 500 + f*fw + rng.IntN(fw)}
		if p.Capacity != nil { // hot-read: each point is cached to its own horizon
			pt.K = p.KMin + rng.IntN(p.KMax-p.KMin+1)
			pt.Tau = len(g.points) < p.TauChains
		}
		g.points = append(g.points, pt)
	}
	acc := 0.0
	for _, s := range p.Mix {
		acc += s.Share
		g.mixCDF = append(g.mixCDF, acc)
	}
	return g
}

// stream draws n-second open-loop arrivals at rate from sub-seed sub.
func (g *gen) stream(sub uint64, rate float64, seconds float64) []request {
	rng := rand.New(rand.NewPCG(g.seed, sub))
	zipf := rand.NewZipf(rng, g.p.ZipfS, 1, uint64(len(g.points)-1))
	horizon := time.Duration(seconds * float64(time.Second))
	var out []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= horizon {
			return out
		}
		q := g.query(rng, zipf)
		path, body := q.build()
		out = append(out, request{Due: due, Q: q, Path: path, Body: body})
	}
}

func (g *gen) op(rng *rand.Rand) string {
	u := rng.Float64() * g.mixCDF[len(g.mixCDF)-1]
	for i, c := range g.mixCDF {
		if u < c {
			return g.p.Mix[i].Op
		}
	}
	return g.p.Mix[len(g.p.Mix)-1].Op
}

// horizon draws k: uniform up to the cached horizon on hot-read (every
// read hits), log-uniform over [KMin, KMax] on churn, so the same point
// is asked both shallow (cold build) and deep (in-place extension).
func (g *gen) horizon(rng *rand.Rand, pt point) int {
	if pt.K > 0 {
		return 1 + rng.IntN(pt.K)
	}
	lo, hi := math.Log(float64(g.p.KMin)), math.Log(float64(g.p.KMax))
	return int(math.Round(math.Exp(lo + rng.Float64()*(hi-lo))))
}

func (g *gen) query(rng *rand.Rand, zipf *rand.Zipf) query {
	pt := g.points[zipf.Uint64()]
	q := query{Op: g.op(rng), Alpha: pt.alpha(), Frac: pt.frac()}
	q.Ph = q.Frac * (1 - q.Alpha)
	q.K = g.horizon(rng, pt)
	switch q.Op {
	case "bracket":
		if (pt.K == 0 || pt.Tau) && rng.IntN(2) == 0 {
			q.Tau = bracketTau
		}
	case "depth":
		// Depth searches run the upper-bound chain, whose saturation cap
		// grows without bound as α → 1/2; they stay at α ≤ 0.3 where the
		// target is reachable well inside kmax.
		if q.Alpha > 0.3 {
			q.Op = "failure"
			break
		}
		q.Target = []float64{1e-4, 1e-6}[rng.IntN(2)]
		q.KMax = 2048
	case "batch":
		n := 3 + rng.IntN(4)
		pts := []point{pt, g.points[zipf.Uint64()]}
		for i := 0; i < n; i++ {
			bp := pts[rng.IntN(len(pts))]
			frac := bp.frac()
			bq := oracle.BatchQuery{Op: []string{"failure", "cell", "curve"}[rng.IntN(3)], Alpha: bp.alpha(), Frac: &frac}
			bq.K = min(g.horizon(rng, bp), 64)
			if bq.Op == "curve" {
				bq.K = min(bq.K, 32)
			}
			q.Batch = append(q.Batch, bq)
		}
	}
	return q
}

// warmSet lists the chains the hot-read snapshot caches: every point at
// its horizon under τ = 0, plus the τ > 0 bracket chains.
func (g *gen) warmSet() []query {
	var out []query
	for _, pt := range g.points {
		q := query{Op: "failure", Alpha: pt.alpha(), Frac: pt.frac(), K: pt.K}
		q.Ph = q.Frac * (1 - q.Alpha)
		out = append(out, q)
		if pt.Tau {
			b := q
			b.Op, b.Tau = "bracket", bracketTau
			out = append(out, b)
		}
	}
	return out
}

// digest is a short fingerprint of a request stream (for the stamp and
// the determinism test).
func digest(reqs []request) string {
	var b bytes.Buffer
	for i := range reqs {
		fmt.Fprintf(&b, "%d %s %s\n", reqs[i].Due, reqs[i].Path, reqs[i].Body)
	}
	return fmt.Sprintf("%x", fnv64(b.Bytes()))
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
