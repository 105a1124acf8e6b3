package oracle

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/telemetry"
)

// Cluster fronts a Server with replicated serving: key-addressable GET
// queries are sharded across a fixed peer set by rendezvous hashing on
// the canonical chain key, so each parameter point has exactly one home
// replica and the cluster-wide cache holds each curve once instead of N
// times.
//
// A query that hashes to another replica is forwarded with
// deadline-propagating retries (capped exponential backoff, full
// jitter) and a hedge: if the owner has not answered within HedgeAfter,
// the local oracle starts computing the same answer and whichever
// finishes first is served. Every replica can answer every query —
// forwarding is a cache-locality optimization, never a correctness
// dependency — so peer failure degrades to local compute, not errors.
// A per-peer circuit breaker stops forwarding to a dead replica after
// BreakerThreshold consecutive failures and probes it again after
// BreakerCooldown.
//
// Forwarded requests carry the clusterForwardHeader; a replica that
// receives one always answers locally, so a stale or disagreeing peer
// map can cost one extra hop but never a forwarding loop. Because the
// DP is deterministic, the forwarded, hedged, and fallback paths all
// produce bitwise-identical answers.
type Cluster struct {
	srv   *Server
	local http.Handler
	self  string
	peers []string // includes self; sorted order irrelevant to HRW

	client      *http.Client
	hedgeAfter  time.Duration
	fwdTimeout  time.Duration
	retryBase   time.Duration
	retryCap    time.Duration
	maxAttempts int
	logf        func(format string, args ...any)

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*breaker

	forwards   atomic.Int64 // queries owned by a peer
	retries    atomic.Int64 // extra forward attempts
	hedges     atomic.Int64 // local computes raced against a slow owner
	fallbacks  atomic.Int64 // owner unreachable; answered locally
	loopServes atomic.Int64 // forwarded requests answered locally

	// met mirrors the counters above into an optional telemetry registry;
	// its zero value is inert (see Instrument in metrics.go).
	met clusterMetrics
}

// ClusterConfig configures a Cluster; zero fields take the defaults
// documented on each.
type ClusterConfig struct {
	// Self is this replica's base URL as it appears in Peers (e.g.
	// "http://127.0.0.1:8080"). Empty or absent from Peers means every
	// query is served locally.
	Self string
	// Peers is the full replica set, self included. Order does not
	// matter; all replicas must agree on the set.
	Peers []string
	// Transport carries forwarded requests (default
	// http.DefaultTransport). Chaos tests inject a faultfs.Transport.
	Transport http.RoundTripper
	// ForwardTimeout bounds one query's whole forwarding effort,
	// retries included (default 2s). The request's own deadline, when
	// sooner, wins.
	ForwardTimeout time.Duration
	// HedgeAfter is how long to wait on the owner before racing a
	// local compute (default 100ms; negative disables hedging).
	HedgeAfter time.Duration
	// RetryBase/RetryCap shape the backoff: attempt i sleeps a uniform
	// random duration in [0, min(RetryCap, RetryBase·2^i)] (defaults
	// 25ms and 250ms).
	RetryBase time.Duration
	RetryCap  time.Duration
	// MaxAttempts bounds forward attempts per query (default 3).
	MaxAttempts int
	// BreakerThreshold consecutive failures open a peer's breaker
	// (default 5); BreakerCooldown later one probe is let through
	// (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed feeds the jitter stream so chaos runs replay (default 1).
	Seed int64
	// Logf receives breaker transitions and forward failures (default
	// discard).
	Logf func(format string, args ...any)
}

// clusterForwardHeader marks a request as already forwarded once; the
// receiver must answer locally.
const clusterForwardHeader = "X-Multihonest-Forwarded"

// maxForwardBody bounds a forwarded response body (a 4096-point curve
// is ~100KB of JSON; 64MB is far above any legal answer).
const maxForwardBody = 64 << 20

// NewCluster wraps srv's handler in the replication tier.
func NewCluster(srv *Server, cfg ClusterConfig) *Cluster {
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 2 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 100 * time.Millisecond
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 250 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Cluster{
		srv:         srv,
		local:       srv.Handler(),
		self:        cfg.Self,
		peers:       append([]string(nil), cfg.Peers...),
		client:      &http.Client{Transport: cfg.Transport},
		hedgeAfter:  cfg.HedgeAfter,
		fwdTimeout:  cfg.ForwardTimeout,
		retryBase:   cfg.RetryBase,
		retryCap:    cfg.RetryCap,
		maxAttempts: cfg.MaxAttempts,
		logf:        cfg.Logf,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		breakers:    make(map[string]*breaker),
	}
	for _, p := range c.peers {
		if p != c.self {
			c.breakers[p] = &breaker{
				threshold: cfg.BreakerThreshold,
				cooldown:  cfg.BreakerCooldown,
				logf:      cfg.Logf,
				peer:      p,
			}
		}
	}
	return c
}

// ClusterStats is the replication tier's counter snapshot.
type ClusterStats struct {
	Self           string            `json:"self"`
	Peers          int               `json:"peers"`
	Forwards       int64             `json:"forwards"`
	ForwardRetries int64             `json:"forward_retries"`
	Hedges         int64             `json:"hedges"`
	LocalFallbacks int64             `json:"local_fallbacks"`
	LoopServes     int64             `json:"loop_serves"`
	BreakerStates  map[string]string `json:"breaker_states,omitempty"`
}

// Stats snapshots the forwarding counters and breaker states.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{
		Self:           c.self,
		Peers:          len(c.peers),
		Forwards:       c.forwards.Load(),
		ForwardRetries: c.retries.Load(),
		Hedges:         c.hedges.Load(),
		LocalFallbacks: c.fallbacks.Load(),
		LoopServes:     c.loopServes.Load(),
	}
	if len(c.breakers) > 0 {
		st.BreakerStates = make(map[string]string, len(c.breakers))
		c.mu.Lock()
		for p, b := range c.breakers {
			st.BreakerStates[p] = b.stateName()
		}
		c.mu.Unlock()
	}
	return st
}

// Handler returns the replicated route table: the Server's routes with
// key-addressable GETs intercepted for sharding.
func (c *Cluster) Handler() http.Handler { return c }

func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, ok := chainKeyOf(r)
	if !ok || len(c.peers) < 2 || c.self == "" {
		c.local.ServeHTTP(w, r)
		return
	}
	if r.Header.Get(clusterForwardHeader) != "" {
		// Already hopped once: answer here regardless of ownership, so a
		// disagreeing peer map cannot loop.
		c.loopServes.Add(1)
		c.met.loops.Inc()
		c.local.ServeHTTP(w, r)
		return
	}
	owner := c.owner(key)
	if owner == c.self {
		c.local.ServeHTTP(w, r)
		return
	}
	c.forwards.Add(1)
	c.met.forwards[owner].Inc()
	c.forwardOrHedge(w, r, owner)
}

// owner picks the replica for a chain key by highest-random-weight
// (rendezvous) hashing: every replica computes the same argmax with no
// coordination, and removing one peer moves only that peer's keys.
func (c *Cluster) owner(key string) string {
	var best string
	var bestScore uint64
	for _, p := range c.peers {
		h := fnv.New64a()
		io.WriteString(h, p)
		h.Write([]byte{0})
		io.WriteString(h, key)
		if s := h.Sum64(); best == "" || s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// chainKeyOf extracts the canonical sharding key of a key-addressable
// query. Malformed parameters return ok=false and are served locally,
// where they earn their 400 without a network hop.
func chainKeyOf(r *http.Request) (string, bool) {
	if r.Method != http.MethodGet {
		return "", false
	}
	var alpha, ph float64
	var err error
	switch r.URL.Path {
	case "/v1/depth", "/v1/curve", "/v1/failure", "/v1/bracket":
		alpha, ph, err = params(r)
	case "/v1/cell":
		var frac float64
		if alpha, err = qfloat(r, "alpha"); err == nil {
			if frac, err = qfloat(r, "frac"); err == nil {
				ph = frac * (1 - alpha)
			}
		}
	default:
		return "", false
	}
	if err != nil {
		return "", false
	}
	key, _, err := Canonicalize(alpha, ph, 0)
	if err != nil {
		return "", false
	}
	return fmt.Sprintf("%d/%d", key.AlphaBP, key.FracBP), true
}

// bufferedResponse captures a whole response so the forward/hedge race
// can pick a winner before anything touches the real ResponseWriter.
type bufferedResponse struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{status: http.StatusOK, header: make(http.Header)}
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(status int)      { b.status = status }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// forwardOrHedge races the owner (with retries) against a hedged local
// compute and serves the first complete answer. The whole race is one
// forward span under the request's root — per-attempt children under it,
// the hedged local compute as a hedge_local child — tagged with the peer
// and which side won; hedge and breaker activity flags the trace for the
// flight recorder's tail sampler.
func (c *Cluster) forwardOrHedge(w http.ResponseWriter, r *http.Request, owner string) {
	tr := telemetry.TraceFrom(r.Context())
	fwdSpan := tr.StartSpan("forward", tr.Root())
	fwdSpan.SetAttr("peer", owner)
	ctx, cancel := context.WithTimeout(r.Context(), c.fwdTimeout)
	defer cancel()

	// A breaker transition during this request marks the trace as
	// interesting even when the request itself still succeeds.
	brk := c.breakerFor(owner)
	var trans0 int64
	if brk != nil {
		trans0 = brk.transitions.Load()
	}
	fwdc := make(chan *bufferedResponse, 1)
	go func() {
		out := c.tryForward(ctx, r, owner, fwdSpan)
		if brk != nil && brk.transitions.Load() != trans0 {
			tr.SetFlag(telemetry.FlagBreaker)
		}
		fwdc <- out
	}()

	var hedgeTimer <-chan time.Time
	if c.hedgeAfter > 0 {
		t := time.NewTimer(c.hedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}
	localc := make(chan *bufferedResponse, 1)
	hedging := false

	for {
		select {
		case br := <-fwdc:
			if br != nil {
				cancel() // drop a still-running hedge's budget
				fwdSpan.SetAttr("winner", "peer")
				fwdSpan.End()
				writeBuffered(w, br)
				return
			}
			// Forwarding exhausted. If a hedge is already computing, its
			// answer is coming; otherwise compute here now.
			c.fallbacks.Add(1)
			c.met.fallbacks.Inc()
			if !hedging {
				fwdSpan.SetAttr("winner", "local_fallback")
				fwdSpan.End()
				c.local.ServeHTTP(w, r)
				return
			}
			fwdc = nil
		case <-hedgeTimer:
			hedging = true
			c.hedges.Add(1)
			c.met.hedges[owner].Inc()
			tr.SetFlag(telemetry.FlagHedged)
			hedgeTimer = nil
			go func() {
				hsp := tr.StartSpan("hedge_local", fwdSpan)
				br := newBufferedResponse()
				c.local.ServeHTTP(br, r.WithContext(context.WithoutCancel(r.Context())))
				hsp.End() // meaningful even if the trace sealed meanwhile
				localc <- br
			}()
		case br := <-localc:
			tr.SetFlag(telemetry.FlagHedgeWon)
			fwdSpan.SetAttr("winner", "hedge")
			fwdSpan.End()
			writeBuffered(w, br)
			return
		}
	}
}

func writeBuffered(w http.ResponseWriter, b *bufferedResponse) {
	maps.Copy(w.Header(), b.header)
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body.Bytes())
}

// tryForward sends the query to owner with capped-exponential-backoff
// retries. A non-5xx response — including a 400 or 422, which is a
// legitimate answer — is a success. Returns nil when every attempt
// failed or the breaker refused. Each attempt is a forward_attempt span
// under fwdSpan tagged with its outcome, so a retried forward reads as a
// tree, not a mystery gap.
func (c *Cluster) tryForward(ctx context.Context, r *http.Request, owner string, fwdSpan telemetry.SpanRef) *bufferedResponse {
	tr := telemetry.TraceFrom(r.Context())
	br := c.breakerFor(owner)
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		if br != nil && !br.allow() {
			fwdSpan.SetAttr("breaker", "refused")
			return nil
		}
		if attempt > 0 {
			c.retries.Add(1)
			c.met.retries[owner].Inc()
			if !c.backoff(ctx, attempt) {
				return nil
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+r.URL.RequestURI(), nil)
		if err != nil {
			return nil
		}
		req.Header.Set(clusterForwardHeader, c.self)
		// Propagate the request's trace so the owner's log line carries the
		// same ID as ours.
		if tr != nil && tr.ID != "" {
			req.Header.Set(telemetry.TraceHeader, tr.ID)
		}
		asp := tr.StartSpan("forward_attempt", fwdSpan)
		resp, err := c.client.Do(req)
		if err != nil {
			asp.SetAttr("outcome", "error")
			asp.End()
			if br != nil {
				br.failure()
			}
			c.logf("cluster: forward %s to %s attempt %d: %v", r.URL.Path, owner, attempt+1, err)
			continue
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			asp.SetAttr("outcome", "status_5xx")
			asp.End()
			if br != nil {
				br.failure()
			}
			c.logf("cluster: forward %s to %s attempt %d: status %d", r.URL.Path, owner, attempt+1, resp.StatusCode)
			continue
		}
		out := newBufferedResponse()
		out.status = resp.StatusCode
		maps.Copy(out.header, resp.Header)
		_, err = io.Copy(&out.body, io.LimitReader(resp.Body, maxForwardBody))
		resp.Body.Close()
		if err != nil {
			asp.SetAttr("outcome", "body_error")
			asp.End()
			if br != nil {
				br.failure()
			}
			continue
		}
		asp.SetAttr("outcome", "ok")
		asp.End()
		if br != nil {
			br.success()
		}
		return out
	}
	return nil
}

// backoff sleeps the jittered delay for the given attempt, honoring the
// deadline; false means the context expired first.
func (c *Cluster) backoff(ctx context.Context, attempt int) bool {
	max := c.retryBase << (attempt - 1)
	if max > c.retryCap {
		max = c.retryCap
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(max) + 1))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (c *Cluster) breakerFor(peer string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakers[peer]
}

// breaker is a per-peer circuit breaker: closed (forwarding), open
// (peer presumed dead; all forwards skipped), half-open (one probe in
// flight after the cooldown).
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	peer      string
	logf      func(string, ...any)

	failures int
	state    int // 0 closed, 1 open, 2 half-open
	openedAt time.Time
	now      func() time.Time // test hook; nil = time.Now

	// transitions counts real state changes; the forwarding path
	// snapshots it around a request to flag traces that watched the
	// breaker move.
	transitions atomic.Int64

	// stateG exports the state for scraping as 0 closed, 1 half-open,
	// 2 open (larger = less available); nil when uninstrumented.
	stateG *telemetry.Gauge
}

// exportState mirrors a state transition into the telemetry gauge,
// remapping the internal encoding to the exported larger-is-worse one.
func (b *breaker) exportState() {
	switch b.state {
	case 1:
		b.stateG.Set(2) // open
	case 2:
		b.stateG.Set(1) // half-open
	default:
		b.stateG.Set(0) // closed
	}
}

func (b *breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// allow reports whether a forward attempt may proceed. In the open
// state it lets exactly one probe through per cooldown window.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case 0:
		return true
	case 1:
		if b.clock().Sub(b.openedAt) >= b.cooldown {
			b.state = 2
			b.transitions.Add(1)
			b.exportState()
			b.logf("cluster: breaker for %s half-open, probing", b.peer)
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != 0 {
		b.transitions.Add(1)
		b.logf("cluster: breaker for %s closed", b.peer)
	}
	b.state, b.failures = 0, 0
	b.exportState()
}

func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case 2: // failed probe: back to open, restart the cooldown
		b.state, b.openedAt = 1, b.clock()
		b.transitions.Add(1)
		b.exportState()
		b.logf("cluster: breaker for %s re-opened (probe failed)", b.peer)
	case 0:
		b.failures++
		if b.failures >= b.threshold {
			b.state, b.openedAt = 1, b.clock()
			b.transitions.Add(1)
			b.exportState()
			b.logf("cluster: breaker for %s opened after %d consecutive failures", b.peer, b.failures)
		}
	}
}

func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case 1:
		return "open"
	case 2:
		return "half-open"
	default:
		return "closed"
	}
}
