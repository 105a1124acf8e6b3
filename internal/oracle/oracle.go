// Package oracle is the long-lived, goroutine-safe settlement query engine:
// the layer that turns the repo's batch computations — confirmation depths,
// settlement curves and brackets, Table-1 cells — into an always-on service
// that answers them from a cache of live lattice curves.
//
// # Key canonicalization
//
// Every query names a parameter point (α, ph). The oracle quantizes it onto
// the integer basis-point grid of settlement.MakeKey — (αBP, fracBP) with
// frac = ph/(1−α) — and reconstructs the parameters *from the canonical
// key* before building anything. Two queries within half a basis point of
// each other therefore share one cache entry and receive byte-identical
// answers, and a parameter arriving as derived arithmetic (frac·(1−α))
// hits the same entry as the literal it rounds to.
//
// # Coalescing and in-place extension
//
// Each cache entry owns the incremental lattice.Curve handles for its
// parameter point, guarded by a per-entry mutex. Concurrent misses for the
// same key converge on the same entry: the first goroutine to take the
// entry lock runs the one DP build, the rest block on the lock and then
// find the curve already long enough (Curve.Extend is idempotent) — miss
// coalescing without a separate singleflight table. A query needing a
// deeper horizon than cached extends the curve in place under the same
// lock, paying only the incremental steps (see the Curve concurrency
// contract in internal/lattice). A hot parameter point thus costs one DP
// build ever; everything after is a slice read or an incremental extension.
//
// # Eviction
//
// Entries live in an LRU list capped at MaxEntries. Eviction unlinks the
// entry from the cache; goroutines still holding the orphan finish their
// queries on it safely (the entry is self-contained) and it is collected
// when they drop it.
package oracle

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/charstring"
	"multihonest/internal/lattice"
	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
)

// DefaultMaxEntries is the cache capacity used when New is given a
// non-positive one: generous for the basis-point grid of realistic
// parameter sweeps while bounding resident curve memory.
const DefaultMaxEntries = 1024

// MaxQueryHorizon bounds the horizon of curve, cell and bracket queries.
// The exact chain's grid is O(k²) floats, so an unbounded client k would
// be an unbounded allocation (k = 4096 is ~0.5 GB); queries past the cap
// are rejected, not clamped, so callers never mistake a truncated answer
// for the one they asked for. Worst-case resident memory is bounded by
// MaxEntries · O(MaxQueryHorizon²); size New's capacity accordingly.
const MaxQueryHorizon = 4096

// MaxDepthKMax bounds the kmax of confirmation-depth searches. The
// upper-bound chain has fixed geometry (memory O(cap²) with cap ≤ 4096
// from CapForTarget), so the bound limits per-request CPU, not memory.
const MaxDepthKMax = 1 << 20

// maxUpperCurvesPerEntry bounds the per-entry map of cached upper-bound
// chains (one per distinct saturation cap): each is O(cap²) resident, and
// an adversarial spread of targets could otherwise accrete thousands.
// Realistic traffic uses a handful of targets; past the bound an
// arbitrary cached cap is dropped and rebuilt on demand.
const maxUpperCurvesPerEntry = 8

// Key is the canonical cache identity of one chain: a parameter point on
// the integer basis-point grid plus the pruning threshold its curves were
// swept with (curves at different τ are different chains and never share
// an entry). TauBits is the IEEE-754 bit pattern of τ so the struct stays
// comparable.
type Key struct {
	AlphaBP int    // round(10⁴·α), as in settlement.Key
	FracBP  int    // round(10⁴·ph/(1−α)), as in settlement.Key
	TauBits uint64 // math.Float64bits of the pruning threshold
}

// Alpha returns the canonical adversarial-slot probability of the key.
func (k Key) Alpha() float64 { return settlement.Key{AlphaBP: k.AlphaBP}.Alpha() }

// HonestFraction returns the canonical Pr[h]/(1−α) of the key.
func (k Key) HonestFraction() float64 {
	return settlement.Key{FracBP: k.FracBP}.HonestFraction()
}

// Ph returns the canonical uniquely honest probability frac·(1−α).
func (k Key) Ph() float64 { return k.HonestFraction() * (1 - k.Alpha()) }

// Tau returns the pruning threshold of the key's chain.
func (k Key) Tau() float64 { return math.Float64frombits(k.TauBits) }

// entry is one resident parameter point: the incremental curves for its
// chain, guarded by the entry mutex. Entries are self-contained so an
// evicted entry keeps serving the goroutines already holding it.
type entry struct {
	key  Key
	comp *settlement.Computer
	elem *list.Element

	mu    sync.Mutex
	curve *lattice.Curve         // the τ-chain under the X∞ initial law
	upper map[int]*lattice.Curve // saturation cap → rigorous upper-bound chain

	// bytes is the entry's contribution currently recorded in the global
	// resident-bytes gauge, stored atomically so eviction can claim it
	// without taking the (possibly long-held) entry lock. The eviction
	// protocol is claim-by-swap: whoever swaps bytes to 0 subtracts exactly
	// what it swapped out, and a mutator that finds evicted set after
	// recording undoes its own recording the same way — every interleaving
	// nets to the entry's exact contribution being removed (see
	// accountLocked).
	bytes   atomic.Int64
	evicted atomic.Bool
}

// Stats is a point-in-time snapshot of the oracle's counters; /metrics
// exports the same counters (see Instrument).
type Stats struct {
	Entries            int   `json:"entries"`
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	Evictions          int64 `json:"evictions"`
	CoalescedWaits     int64 `json:"coalesced_waits"`
	Builds             int64 `json:"builds"`
	Extends            int64 `json:"extends"`
	BuildNanos         int64 `json:"build_nanos"`
	ExtendNanos        int64 `json:"extend_nanos"`
	ResidentCurveBytes int64 `json:"resident_curve_bytes"`
	DepthQueries       int64 `json:"depth_queries"`
	CurveQueries       int64 `json:"curve_queries"`
	BracketQueries     int64 `json:"bracket_queries"`
	CellQueries        int64 `json:"cell_queries"`
	BatchQueries       int64 `json:"batch_queries"`
	SnapshotSaves      int64 `json:"snapshot_saves"`
	SnapshotLoaded     int64 `json:"snapshot_loaded"`
	SnapshotBadSects   int64 `json:"snapshot_quarantined_sections"`
}

// Oracle is the concurrent settlement query engine. Construct with New;
// all methods are safe for concurrent use by any number of goroutines.
type Oracle struct {
	maxEntries int

	mu      sync.Mutex // guards entries + lru (never held across a DP build)
	entries map[Key]*entry
	lru     *list.List // front = most recently used

	hits, misses, evictions, coalesced      atomic.Int64
	builds, extends, buildNS, extendNS      atomic.Int64
	residentBytes                           atomic.Int64
	depthQ, curveQ, bracketQ, cellQ, batchQ atomic.Int64
	snapSaves, snapLoaded, snapQuarantined  atomic.Int64

	// met mirrors the counters above into an optional telemetry registry;
	// its zero value is inert (see Instrument in metrics.go).
	met oracleMetrics
}

// New returns an oracle whose cache holds at most maxEntries parameter
// points (non-positive selects DefaultMaxEntries).
func New(maxEntries int) *Oracle {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Oracle{
		maxEntries: maxEntries,
		entries:    make(map[Key]*entry),
		lru:        list.New(),
	}
}

// Canonicalize quantizes (α, ph) onto the oracle's basis-point grid and
// returns the cache key along with the canonical parameters the oracle
// actually computes with. It errors when the canonical point is outside
// the (ǫ, ph)-Bernoulli domain.
func Canonicalize(alpha, ph, tau float64) (Key, charstring.Params, error) {
	// Positive-form guards so NaN inputs are rejected here, not after they
	// have minted a cache key.
	if !(alpha > 0 && alpha < 0.5) {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: alpha %v outside (0, 0.5)", alpha)
	}
	if !(ph >= 0 && ph <= 1) {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: ph %v outside [0, 1]", ph)
	}
	if !(tau >= 0) {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: invalid pruning threshold %v", tau)
	}
	sk := settlement.MakeKey(ph/(1-alpha), 0, alpha)
	key := Key{AlphaBP: sk.AlphaBP, FracBP: sk.FracBP, TauBits: math.Float64bits(tau)}
	p, err := charstring.ParamsFromAlpha(key.Alpha(), key.Ph())
	if err != nil {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: canonical point (α=%v, ph=%v): %w", key.Alpha(), key.Ph(), err)
	}
	return key, p, nil
}

// lookup returns the resident entry for the canonical key, creating (and
// counting a miss for) one when absent. Entry creation is cheap — curves
// build lazily on first extension — so it happens under the cache lock;
// the DP work itself always runs under the entry lock only. The outcome
// is tagged onto the trace's root span as cache=hit|miss — literal
// strings into a preallocated attribute slot, so the warm hit path stays
// allocation-free even fully traced.
func (o *Oracle) lookup(alpha, ph, tau float64, tr *telemetry.Trace) (*entry, error) {
	key, p, err := Canonicalize(alpha, ph, tau)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.entries[key]; ok {
		o.lru.MoveToFront(e.elem)
		o.hits.Add(1)
		tr.Root().SetAttr("cache", "hit")
		return e, nil
	}
	o.misses.Add(1)
	tr.Root().SetAttr("cache", "miss")
	e := &entry{key: key, comp: settlement.New(p)}
	e.elem = o.lru.PushFront(e)
	o.entries[key] = e
	for o.lru.Len() > o.maxEntries {
		oldest := o.lru.Back()
		victim := oldest.Value.(*entry)
		o.lru.Remove(oldest)
		delete(o.entries, victim.key)
		// Claim-by-swap (see entry.bytes): mark first, then subtract
		// whatever contribution is recorded right now; a concurrent
		// extension that records afterwards sees the mark and undoes its
		// own recording.
		victim.evicted.Store(true)
		o.residentBytes.Add(-victim.bytes.Swap(0))
		o.evictions.Add(1)
	}
	return e, nil
}

// lockEntry takes the entry lock, counting the acquisition as a coalesced
// wait when another goroutine already holds it (the waiter will reuse
// whatever build or extension the holder completes). The blocked time is
// recorded as a coalesce_wait span under the request's root.
func (o *Oracle) lockEntry(e *entry, tr *telemetry.Trace) {
	if e.mu.TryLock() {
		return
	}
	o.coalesced.Add(1)
	start := time.Now()
	e.mu.Lock()
	tr.AddSpan("coalesce_wait", tr.Root(), start, time.Since(start))
}

// accountLocked refreshes the entry's resident-byte contribution after a
// mutation; the caller holds e.mu (which serializes recorders, so the
// only concurrency is with the evictor's claim-by-swap). Record first,
// then re-check evicted: if the evictor ran, it either claimed our
// recording (its swap saw it) or we claim it back ourselves — either way
// exactly one subtraction lands for whatever was recorded.
func (o *Oracle) accountLocked(e *entry) {
	n := int64(0)
	if e.curve != nil {
		n += e.curve.MemBytes()
	}
	for _, uc := range e.upper {
		n += uc.MemBytes()
	}
	prev := e.bytes.Swap(n)
	o.residentBytes.Add(n - prev)
	if e.evicted.Load() {
		o.residentBytes.Add(-e.bytes.Swap(0))
	}
}

// extendLocked brings the entry's main curve to horizon ≥ k, classifying
// the work as a cold build (first steps of this chain) or an in-place
// extension and timing it. The caller holds e.mu.
func (o *Oracle) extendLocked(e *entry, k int, tr *telemetry.Trace) error {
	if e.curve == nil {
		e.curve = e.comp.Curve(e.key.Tau())
	}
	prev := e.curve.Len()
	if k <= prev {
		return nil
	}
	start := time.Now()
	if err := e.curve.Extend(k); err != nil {
		return err
	}
	o.recordWork(e, prev, k, start, tr)
	o.accountLocked(e)
	return nil
}

// upperLocked returns the entry's rigorous upper-bound curve for the given
// saturation cap, extended to horizon ≥ k. The caller holds e.mu.
func (o *Oracle) upperLocked(e *entry, cap, k int, tr *telemetry.Trace) (*lattice.Curve, error) {
	if e.upper == nil {
		e.upper = make(map[int]*lattice.Curve)
	}
	uc, ok := e.upper[cap]
	if !ok {
		if len(e.upper) >= maxUpperCurvesPerEntry {
			for c := range e.upper {
				delete(e.upper, c)
				break
			}
		}
		uc = e.comp.UpperCurve(cap)
		e.upper[cap] = uc
	}
	prev := uc.Len()
	if k <= prev {
		return uc, nil
	}
	start := time.Now()
	if err := uc.Extend(k); err != nil {
		return nil, err
	}
	o.recordWork(e, prev, k, start, tr)
	o.accountLocked(e)
	return uc, nil
}

// recordWork classifies finished DP work on entry e: prev == 0 was a
// cold build, anything else an incremental extension of prev → k. The
// duration lands in the matching latency histogram (with an exemplar
// linking the bucket to this trace) and a build/extend span under the
// request's root carrying the canonical key and the
// number of lattice steps computed. DP work is inherently a cold path,
// so the span's key attribute may allocate.
func (o *Oracle) recordWork(e *entry, prev, k int, start time.Time, tr *telemetry.Trace) {
	d := time.Since(start)
	name, trID := "extend", ""
	if tr != nil {
		trID = tr.ID
	}
	if prev == 0 {
		name = "build"
		o.builds.Add(1)
		o.buildNS.Add(int64(d))
		o.met.build.ObserveWithExemplar(d.Seconds(), trID)
	} else {
		o.extends.Add(1)
		o.extendNS.Add(int64(d))
		o.met.extend.ObserveWithExemplar(d.Seconds(), trID)
	}
	if sp := tr.AddSpan(name, tr.Root(), start, d); sp.Active() {
		sp.SetAttr("key", fmt.Sprintf("%d/%d", e.key.AlphaBP, e.key.FracBP))
		sp.SetValue(int64(k - prev))
	}
}

// validHorizon guards every main-curve horizon against the service bound.
func validHorizon(k int) error {
	if k < 1 || k > MaxQueryHorizon {
		return fmt.Errorf("oracle: k = %d outside [1, %d]", k, MaxQueryHorizon)
	}
	return nil
}

// SettlementCurve returns the exact violation probability for every
// horizon 1..k at parameter point (α, ph) — core.Analyzer.SettlementCurve
// served from the cache.
func (o *Oracle) SettlementCurve(alpha, ph float64, k int) ([]float64, error) {
	return o.settlementCurve(nil, alpha, ph, k)
}

// SettlementCurveCtx is SettlementCurve with the DP and lock-wait time
// charged to the request trace carried by ctx (if any).
func (o *Oracle) SettlementCurveCtx(ctx context.Context, alpha, ph float64, k int) ([]float64, error) {
	return o.settlementCurve(telemetry.TraceFrom(ctx), alpha, ph, k)
}

func (o *Oracle) settlementCurve(tr *telemetry.Trace, alpha, ph float64, k int) ([]float64, error) {
	o.curveQ.Add(1)
	if err := validHorizon(k); err != nil {
		return nil, err
	}
	e, err := o.lookup(alpha, ph, 0, tr)
	if err != nil {
		return nil, err
	}
	o.lockEntry(e, tr)
	defer e.mu.Unlock()
	if err := o.extendLocked(e, k, tr); err != nil {
		return nil, err
	}
	return e.curve.ValuesUpTo(k), nil
}

// SettlementFailure returns the exact violation probability at horizon k —
// the Table 1 quantity, served from the cache.
func (o *Oracle) SettlementFailure(alpha, ph float64, k int) (float64, error) {
	return o.settlementFailure(nil, alpha, ph, k)
}

// SettlementFailureCtx is SettlementFailure traced through ctx.
func (o *Oracle) SettlementFailureCtx(ctx context.Context, alpha, ph float64, k int) (float64, error) {
	return o.settlementFailure(telemetry.TraceFrom(ctx), alpha, ph, k)
}

func (o *Oracle) settlementFailure(tr *telemetry.Trace, alpha, ph float64, k int) (float64, error) {
	o.cellQ.Add(1)
	if err := validHorizon(k); err != nil {
		return 0, err
	}
	e, err := o.lookup(alpha, ph, 0, tr)
	if err != nil {
		return 0, err
	}
	o.lockEntry(e, tr)
	defer e.mu.Unlock()
	if err := o.extendLocked(e, k, tr); err != nil {
		return 0, err
	}
	return e.curve.Lower(k), nil
}

// TableCell answers a Table-1 cell query in the table's native
// coordinates: honest fraction Pr[h]/(1−α), horizon k, column α.
func (o *Oracle) TableCell(frac float64, k int, alpha float64) (float64, error) {
	return o.tableCell(nil, frac, k, alpha)
}

// TableCellCtx is TableCell traced through ctx.
func (o *Oracle) TableCellCtx(ctx context.Context, frac float64, k int, alpha float64) (float64, error) {
	return o.tableCell(telemetry.TraceFrom(ctx), frac, k, alpha)
}

func (o *Oracle) tableCell(tr *telemetry.Trace, frac float64, k int, alpha float64) (float64, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("oracle: honest fraction %v outside [0, 1]", frac)
	}
	return o.settlementFailure(tr, alpha, frac*(1-alpha), k)
}

// SettlementBracket returns the rigorous bracket [lower, upper] at horizon
// k computed with pruning threshold tau (τ = 0 collapses the bracket to
// the exact value). Brackets at different τ are different chains and cache
// under different keys.
func (o *Oracle) SettlementBracket(alpha, ph float64, k int, tau float64) (lower, upper float64, err error) {
	return o.settlementBracket(nil, alpha, ph, k, tau)
}

// SettlementBracketCtx is SettlementBracket traced through ctx.
func (o *Oracle) SettlementBracketCtx(ctx context.Context, alpha, ph float64, k int, tau float64) (lower, upper float64, err error) {
	return o.settlementBracket(telemetry.TraceFrom(ctx), alpha, ph, k, tau)
}

func (o *Oracle) settlementBracket(tr *telemetry.Trace, alpha, ph float64, k int, tau float64) (lower, upper float64, err error) {
	o.bracketQ.Add(1)
	if err := validHorizon(k); err != nil {
		return 0, 0, err
	}
	e, err := o.lookup(alpha, ph, tau, tr)
	if err != nil {
		return 0, 0, err
	}
	o.lockEntry(e, tr)
	defer e.mu.Unlock()
	if err := o.extendLocked(e, k, tr); err != nil {
		return 0, 0, err
	}
	lower, upper = e.curve.Bracket(k)
	return lower, upper, nil
}

// ConfirmationDepth returns the smallest depth k ≤ kmax whose certified
// settlement-failure bound is at most target — core.Analyzer's doubling
// search run over the cached upper-bound chain, so repeated depth queries
// at one parameter point pay only incremental lattice steps.
func (o *Oracle) ConfirmationDepth(alpha, ph, target float64, kmax int) (int, error) {
	return o.confirmationDepth(nil, alpha, ph, target, kmax)
}

// ConfirmationDepthCtx is ConfirmationDepth traced through ctx.
func (o *Oracle) ConfirmationDepthCtx(ctx context.Context, alpha, ph, target float64, kmax int) (int, error) {
	return o.confirmationDepth(telemetry.TraceFrom(ctx), alpha, ph, target, kmax)
}

func (o *Oracle) confirmationDepth(tr *telemetry.Trace, alpha, ph, target float64, kmax int) (int, error) {
	o.depthQ.Add(1)
	if !(target > 0 && target < 1) { // positive form also rejects NaN
		return 0, fmt.Errorf("oracle: target %v outside (0,1)", target)
	}
	if kmax < 1 || kmax > MaxDepthKMax {
		return 0, fmt.Errorf("oracle: kmax %d outside [1, %d]", kmax, MaxDepthKMax)
	}
	e, err := o.lookup(alpha, ph, 0, tr)
	if err != nil {
		return 0, err
	}
	o.lockEntry(e, tr)
	defer e.mu.Unlock()
	return o.depthLocked(e, target, kmax, tr)
}

// depthLocked runs the doubling search under the entry lock; it is shared
// by ConfirmationDepth and the batch executor (which revalidates kmax on
// this path).
func (o *Oracle) depthLocked(e *entry, target float64, kmax int, tr *telemetry.Trace) (int, error) {
	if kmax > MaxDepthKMax {
		return 0, fmt.Errorf("oracle: kmax %d outside [1, %d]", kmax, MaxDepthKMax)
	}
	cap := e.comp.CapForTarget(target)
	extend := func(k int) (*lattice.Curve, error) { return o.upperLocked(e, cap, k, tr) }
	return settlement.DepthSearch(extend, target, kmax)
}

// Stats returns a snapshot of the oracle's counters.
func (o *Oracle) Stats() Stats {
	o.mu.Lock()
	n := len(o.entries)
	o.mu.Unlock()
	return Stats{
		Entries:            n,
		Hits:               o.hits.Load(),
		Misses:             o.misses.Load(),
		Evictions:          o.evictions.Load(),
		CoalescedWaits:     o.coalesced.Load(),
		Builds:             o.builds.Load(),
		Extends:            o.extends.Load(),
		BuildNanos:         o.buildNS.Load(),
		ExtendNanos:        o.extendNS.Load(),
		ResidentCurveBytes: o.residentBytes.Load(),
		DepthQueries:       o.depthQ.Load(),
		CurveQueries:       o.curveQ.Load(),
		BracketQueries:     o.bracketQ.Load(),
		CellQueries:        o.cellQ.Load(),
		BatchQueries:       o.batchQ.Load(),
		SnapshotSaves:      o.snapSaves.Load(),
		SnapshotLoaded:     o.snapLoaded.Load(),
		SnapshotBadSects:   o.snapQuarantined.Load(),
	}
}
