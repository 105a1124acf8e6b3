package oracle

import (
	"context"
	"fmt"

	"multihonest/internal/runner"
	"multihonest/internal/telemetry"
)

// BatchQuery is one element of a multi-query request. Op selects the
// question; the remaining fields are read per-op:
//
//	"depth":   alpha, ph|frac, target, kmax
//	"curve":   alpha, ph|frac, k
//	"failure": alpha, ph|frac, k          (point query)
//	"bracket": alpha, ph|frac, k, tau
//	"cell":    alpha, frac, k             (Table-1 coordinates)
//
// Exactly one of Ph and Frac must be set (Frac is mandatory for "cell");
// when Frac is given, ph = frac·(1−α).
type BatchQuery struct {
	Op     string   `json:"op"`
	Alpha  float64  `json:"alpha"`
	Ph     *float64 `json:"ph,omitempty"`
	Frac   *float64 `json:"frac,omitempty"`
	K      int      `json:"k,omitempty"`
	Tau    float64  `json:"tau,omitempty"`
	Target float64  `json:"target,omitempty"`
	KMax   int      `json:"kmax,omitempty"`
}

// BatchResult is the answer to one BatchQuery, in request order. Error is
// per-query: one malformed query does not fail its siblings.
type BatchResult struct {
	Op    string `json:"op"`
	Error string `json:"error,omitempty"`

	Depth int       `json:"depth,omitempty"`
	P     *float64  `json:"p,omitempty"`
	Lower *float64  `json:"lower,omitempty"`
	Upper *float64  `json:"upper,omitempty"`
	Curve []float64 `json:"curve,omitempty"`
}

// BatchPlan reports how a batch was scheduled: queries grouped by
// canonical chain so each resident curve is locked and extended once.
type BatchPlan struct {
	Queries int `json:"queries"`
	Groups  int `json:"groups"`
	MaxK    int `json:"max_k"`
}

// ph resolves the query's uniquely honest probability.
func (q *BatchQuery) ph() (float64, error) {
	switch {
	case q.Op == "cell":
		if q.Frac == nil {
			return 0, fmt.Errorf("oracle: cell query requires frac")
		}
		return *q.Frac * (1 - q.Alpha), nil
	case q.Ph != nil && q.Frac != nil:
		return 0, fmt.Errorf("oracle: give ph or frac, not both")
	case q.Ph != nil:
		return *q.Ph, nil
	case q.Frac != nil:
		return *q.Frac * (1 - q.Alpha), nil
	default:
		return 0, fmt.Errorf("oracle: query requires ph or frac")
	}
}

// tau returns the pruning threshold of the chain the query reads (only
// bracket queries run on pruned chains).
func (q *BatchQuery) tau() float64 {
	if q.Op == "bracket" {
		return q.Tau
	}
	return 0
}

// MaxBatchCurvePoints bounds the aggregate number of per-horizon values a
// single batch may materialize across its curve queries. Each point is a
// fresh float64 in the response (≈20 bytes once JSON-encoded), so without
// an aggregate cap a well-formed small request — 4096 curve queries at
// k = 4096 — would buffer hundreds of MB; the cap keeps the worst-case
// response around 10 MB.
const MaxBatchCurvePoints = 1 << 19

// Batch answers a multi-query request with curve reuse planned up front:
// queries are grouped by canonical chain key, each group's curve is locked
// once and extended once to the group's deepest horizon, and the
// independent groups execute on a runner.ForEach pool (workers ≤ 0 selects
// all CPUs). Results arrive in request order; per-query failures are
// reported in their slot without failing the batch. A batch whose curve
// queries together exceed MaxBatchCurvePoints is rejected whole.
func (o *Oracle) Batch(queries []BatchQuery, workers int) ([]BatchResult, BatchPlan, error) {
	return o.batch(nil, queries, workers)
}

// BatchCtx is Batch with per-group lock waits and DP work charged to the
// request trace carried by ctx; group workers share the one trace (span
// recording is atomic).
func (o *Oracle) BatchCtx(ctx context.Context, queries []BatchQuery, workers int) ([]BatchResult, BatchPlan, error) {
	return o.batch(telemetry.TraceFrom(ctx), queries, workers)
}

func (o *Oracle) batch(tr *telemetry.Trace, queries []BatchQuery, workers int) ([]BatchResult, BatchPlan, error) {
	o.batchQ.Add(1)
	points := 0
	for i := range queries {
		if queries[i].Op == "curve" && queries[i].K > 0 {
			points += queries[i].K
		}
	}
	if points > MaxBatchCurvePoints {
		return nil, BatchPlan{}, fmt.Errorf("oracle: batch requests %d curve points, limit %d", points, MaxBatchCurvePoints)
	}
	out := make([]BatchResult, len(queries))
	plan := BatchPlan{Queries: len(queries)}

	// Plan: resolve each query to its canonical chain and group by key.
	type group struct {
		e       *entry
		maxK    int
		indices []int
	}
	groups := make(map[Key]*group)
	var order []*group
	for i, q := range queries {
		out[i].Op = q.Op
		// Horizon-carrying ops must validate before their K can drive the
		// group extension below.
		if k := queryHorizon(&queries[i]); k != 0 {
			if err := validHorizon(k); err != nil {
				out[i].Error = err.Error()
				continue
			}
		}
		ph, err := q.ph()
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		// Planning probes many keys; per-query hit/miss attrs would only
		// churn the root span's slots, so the lookup goes untraced here —
		// the per-group spans below carry the batch's tree instead.
		e, err := o.lookup(q.Alpha, ph, q.tau(), nil)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		g, ok := groups[e.key]
		if !ok {
			g = &group{e: e}
			groups[e.key] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
		if k := queryHorizon(&queries[i]); k > g.maxK {
			g.maxK = k
			if k > plan.MaxK {
				plan.MaxK = k
			}
		}
	}
	plan.Groups = len(order)

	// Execute: one entry lock and at most one extension per group; groups
	// are independent chains, so they fan out across the pool. Workers
	// write only out[i] for their group's indices — never racing.
	err := runner.ForEach(workers, len(order), func(gi int) error {
		g := order[gi]
		sp := tr.StartSpan("batch_group", tr.Root())
		sp.SetValue(int64(len(g.indices)))
		defer sp.End()
		o.lockEntry(g.e, tr)
		defer g.e.mu.Unlock()
		if g.maxK > 0 {
			if err := o.extendLocked(g.e, g.maxK, tr); err != nil {
				for _, i := range g.indices {
					out[i].Error = err.Error()
				}
				return nil
			}
		}
		for _, i := range g.indices {
			o.answerLocked(g.e, &queries[i], &out[i], tr)
		}
		return nil
	})
	return out, plan, err
}

// queryHorizon returns the main-curve horizon a query needs pre-extended
// (0 for depth queries, which drive their own upper-curve extension).
func queryHorizon(q *BatchQuery) int {
	switch q.Op {
	case "curve", "failure", "bracket", "cell":
		return q.K
	default:
		return 0
	}
}

// answerLocked serves one planned query from the group's entry; the caller
// holds the entry lock and has already extended the main curve to the
// group's deepest horizon.
func (o *Oracle) answerLocked(e *entry, q *BatchQuery, res *BatchResult, tr *telemetry.Trace) {
	fail := func(err error) { res.Error = err.Error() }
	switch q.Op {
	case "depth":
		o.depthQ.Add(1)
		d, err := o.depthLocked(e, q.Target, q.KMax, tr)
		if err != nil {
			fail(err)
			return
		}
		res.Depth = d
	case "curve":
		o.curveQ.Add(1)
		if q.K < 1 {
			fail(fmt.Errorf("oracle: k = %d must be ≥ 1", q.K))
			return
		}
		res.Curve = e.curve.ValuesUpTo(q.K)
	case "failure", "cell":
		o.cellQ.Add(1)
		if q.K < 1 {
			fail(fmt.Errorf("oracle: k = %d must be ≥ 1", q.K))
			return
		}
		p := e.curve.Lower(q.K)
		res.P = &p
	case "bracket":
		o.bracketQ.Add(1)
		if q.K < 1 {
			fail(fmt.Errorf("oracle: k = %d must be ≥ 1", q.K))
			return
		}
		lo, hi := e.curve.Bracket(q.K)
		res.Lower, res.Upper = &lo, &hi
	default:
		fail(fmt.Errorf("oracle: unknown op %q", q.Op))
	}
}
