// Package fleet promotes baserved from one process to a sharded,
// replicated query fleet: a stateless Router implements the serving
// layer's Backend interface over N shard processes (each an ordinary
// baserved with the admin plane enabled), so the same HTTP handlers
// that front an in-process batcher front the whole fleet.
//
// Placement is consistent hashing over graph names (see ring.go): a
// graph's replica preference order is a pure function of the name and
// the shard list, so any number of stateless routers agree without
// coordination. A graph's candidates are the live shards that actually
// hold it (the router learns holdings from each shard's /graphs,
// refreshed by the health loop), tried least-loaded first.
//
// The failure path is budgeted, hedged, breaker-guarded and degradable
// (see breaker.go and stale.go):
//
//   - Each query gets a retry budget (Config.RetryBudget attempts)
//     with capped, seed-jittered exponential backoff between attempts;
//     transport failures and retryable 5xx answers move to the next
//     replica, final application answers end the query.
//   - A per-shard circuit breaker subsumes the old live/dead flag:
//     transport faults open it, an escalating cooldown leads to a
//     half-open state that admits exactly one trial query, and either
//     the trial or the health loop's probe-and-warm closes it.
//   - Queries hedge: after a latency-percentile delay (or a fixed
//     Config.HedgeAfter) the query is duplicated on the next live
//     replica; the first decisive answer wins and the loser is
//     cancelled.
//   - Admission control sheds load at Config.MaxInflight with a 503
//     carrying Retry-After, before any shard is touched.
//   - When no live replica holds a graph, a CC query can still be
//     answered from the router's own cache of the last good response,
//     marked "stale": true and bounded by Config.MaxStale.
//
// A query that fails because the CALLER's context died is returned
// unwrapped (the 499/504 path) and never counts against a shard.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bagraph/internal/serve"
)

// Fixed policy values: no deployment, test or benchmark needs another
// setting, so they are constants rather than Config fields.
const (
	// healthTimeout bounds one health probe.
	healthTimeout = 2 * time.Second
	// failAfter is how many consecutive probe failures trip a shard's
	// circuit from the health loop. (Query-path transport faults have
	// their own threshold — see Config.BreakerThreshold.)
	failAfter = 2
	// warmTimeout bounds each CC warm-up query on a joining shard.
	warmTimeout = 30 * time.Second
	// retryBackoffCap bounds the exponential growth of RetryBackoff.
	retryBackoffCap = 250 * time.Millisecond
	// hedgePercentile is the adaptive hedge trigger in (0, 1).
	hedgePercentile = 0.95
)

// Config shapes a Router.
type Config struct {
	// Shards lists the shard addresses (host:port or http:// URLs).
	Shards []string
	// Replicas is how many shards a NEW graph is placed on when a
	// rollout introduces it (existing graphs live wherever they are
	// already loaded). < 1 means 2.
	Replicas int
	// HealthInterval is the live-shard probe period; 0 means 1s. Shards
	// with an open circuit back off to 8x this. It also sets the
	// Retry-After hint on 503s.
	HealthInterval time.Duration
	// RetryBudget is the maximum attempts one query spends across the
	// replica set (first try included); < 1 means 3.
	RetryBudget int
	// RetryBackoff is the base delay before the first retry; it doubles
	// per attempt up to retryBackoffCap and is jittered into [d/2, d].
	// 0 means 5ms.
	RetryBackoff time.Duration
	// HedgeAfter controls request hedging: > 0 is a fixed delay after
	// which the query is duplicated on the next live replica; 0 (the
	// default) adapts the delay to the observed per-kind latency
	// percentile (hedgePercentile, once 16 samples exist, floored at
	// 1ms); < 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold is how many consecutive query-path transport
	// faults open a shard's circuit; < 1 means 1 (a refused connection
	// is not a flaky probe).
	BreakerThreshold int
	// BreakerCooldown is the first open→half-open wait; it doubles per
	// consecutive open up to 8x. 0 means 5s.
	BreakerCooldown time.Duration
	// MaxInflight caps concurrent queries through the router; excess is
	// shed with a 503 + Retry-After before any shard is touched. 0
	// means unlimited.
	MaxInflight int
	// MaxStale is how old a router-cached CC answer may be and still be
	// served (marked "stale": true) when no live replica holds the
	// graph. 0 disables stale serving.
	MaxStale time.Duration
	// Seed drives the retry-jitter PRNG; 0 means 1. Fixing it makes a
	// test run's backoff schedule reproducible.
	Seed uint64
	// Client is the HTTP client the shard clients share; nil means a
	// dedicated keep-alive client whose idle connections the Router
	// closes on Close.
	Client *http.Client
	// Logf, when set, receives shard lifecycle events (join, circuit
	// transitions, stale serves); nil disables logging.
	Logf func(format string, args ...any)
}

// shard is one member's live state.
type shard struct {
	addr     string
	client   *serve.ShardClient
	brk      *breaker
	joined   atomic.Bool  // completed at least one probe+warm; holdings known
	inflight atomic.Int64 // queries in progress, the load signal

	mu      sync.RWMutex
	graphs  map[string]serve.GraphInfo // last /graphs listing
	workers int
}

// holds reports whether the shard's last listing carried the graph.
func (s *shard) holds(graph string) bool {
	s.mu.RLock()
	_, ok := s.graphs[graph]
	s.mu.RUnlock()
	return ok
}

// live reports whether the shard is taking normal traffic: joined and
// circuit closed.
func (s *shard) live() bool {
	return s.joined.Load() && s.brk.currentState() == breakerClosed
}

func (s *shard) setListing(infos []serve.GraphInfo, workers int) {
	m := make(map[string]serve.GraphInfo, len(infos))
	for _, g := range infos {
		m[g.Name] = g
	}
	s.mu.Lock()
	s.graphs = m
	s.workers = workers
	s.mu.Unlock()
}

func (s *shard) listing() []serve.GraphInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]serve.GraphInfo, 0, len(s.graphs))
	for _, g := range s.graphs {
		out = append(out, g)
	}
	return out
}

func (s *shard) workerCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.workers
}

// Router is the stateless query front: a serve.Backend whose dispatch
// plane is the fleet.
type Router struct {
	cfg     Config
	shards  []*shard
	ring    ring
	metrics *Metrics
	stale   *staleCache

	inflight atomic.Int64  // router-wide, for admission control
	rng      atomic.Uint64 // splitmix64 state for retry jitter

	lat map[string]*sampler // per-kind latency reservoirs (hedge trigger)

	stop chan struct{}
	wg   sync.WaitGroup // health loops
	legs sync.WaitGroup // query attempt legs, hedges included
}

// New builds a router over the configured shards. Call SetMetrics (if
// wanted) and then Start to launch the health loops; Close releases
// them.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.RetryBudget < 1 {
		cfg.RetryBudget = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 1
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{}}
	}
	r := &Router{
		cfg:   cfg,
		stale: newStaleCache(),
		lat: map[string]*sampler{
			"cc": new(sampler), "bfs": new(sampler), "sssp": new(sampler),
		},
		stop: make(chan struct{}),
	}
	r.rng.Store(cfg.Seed)
	seen := make(map[string]bool, len(cfg.Shards))
	for _, addr := range cfg.Shards {
		c := serve.NewShardClient(addr, cfg.Client)
		if seen[c.Addr()] {
			return nil, fmt.Errorf("fleet: duplicate shard %s", c.Addr())
		}
		seen[c.Addr()] = true
		r.shards = append(r.shards, &shard{
			addr:   c.Addr(),
			client: c,
			brk:    newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	ids := make([]string, len(r.shards))
	for i, s := range r.shards {
		ids[i] = s.addr
	}
	r.ring = newRing(ids)
	return r, nil
}

// SetMetrics attaches the router's instrument set. Call before Start.
func (r *Router) SetMetrics(m *Metrics) { r.metrics = m }

// Start launches one health loop per shard. Shards join through the
// warming state, so the router answers 503 until the first probes
// land.
func (r *Router) Start() {
	for _, s := range r.shards {
		r.noteState(s)
		r.wg.Add(1)
		go r.healthLoop(s)
	}
}

// Close stops the health loops, waits for outstanding attempt legs
// (cancelled hedges included) and releases the dedicated client's idle
// connections. In-flight queries must have drained (the HTTP server's
// shutdown guarantees that).
func (r *Router) Close() {
	close(r.stop)
	r.wg.Wait()
	r.legs.Wait()
	r.cfg.Client.CloseIdleConnections()
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// splitmix is the SplitMix64 output function, the jitter PRNG.
func splitmix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextRand draws from the router's seeded PRNG: deterministic for a
// given Config.Seed, lock-free under concurrent queries.
func (r *Router) nextRand() uint64 {
	return splitmix(r.rng.Add(0x9e3779b97f4a7c15))
}

// noteState refreshes the shard's gauges after a circuit transition.
func (r *Router) noteState(s *shard) {
	st := s.brk.currentState()
	r.metrics.setBreaker(s.addr, st)
	r.metrics.setUp(s.addr, s.joined.Load() && st == breakerClosed)
}

// noteFailure counts one classified shard fault against its circuit.
func (r *Router) noteFailure(s *shard, cause string) {
	if s.brk.onFailure() {
		r.metrics.observeFailover(s.addr)
		r.logf("fleet: shard %s circuit opened (%s); rerouting its graphs to replicas", s.addr, cause)
	}
	r.noteState(s)
}

// noteSuccess closes the shard's circuit (any answer — success or a
// typed application error — proves the shard alive).
func (r *Router) noteSuccess(s *shard) {
	reopened := s.brk.currentState() != breakerClosed
	s.brk.onSuccess()
	if reopened {
		r.noteState(s)
		r.logf("fleet: shard %s circuit closed by a successful query", s.addr)
	}
}

// healthLoop probes one shard forever: closed-circuit shards every
// HealthInterval, open ones with exponential backoff up to 8x. A probe
// is a /healthz round-trip plus a /graphs refresh (holdings drive
// placement, so they must track rollouts); failAfter consecutive
// failures trip a closed circuit, and a recovering shard is warmed
// before its circuit closes.
func (r *Router) healthLoop(s *shard) {
	defer r.wg.Done()
	failures := 0
	delay := time.Duration(0) // probe immediately on start
	for {
		select {
		case <-r.stop:
			return
		case <-time.After(delay):
		}
		if r.probe(s) {
			failures = 0
			delay = r.cfg.HealthInterval
			continue
		}
		failures++
		if failures >= failAfter && s.brk.currentState() == breakerClosed {
			if s.brk.trip() {
				r.metrics.observeFailover(s.addr)
				r.logf("fleet: shard %s circuit opened (%d consecutive failed probes)", s.addr, failures)
			}
			r.noteState(s)
		}
		if s.brk.currentState() != breakerClosed {
			// Exponential backoff while the circuit is open, capped at 8
			// intervals.
			shift := failures - failAfter
			if shift < 0 {
				shift = 0
			}
			if shift > 3 {
				shift = 3
			}
			delay = r.cfg.HealthInterval << shift
		} else {
			delay = r.cfg.HealthInterval
		}
	}
}

// probe runs one health check; true means the shard answered and its
// listing is fresh. A probe landing on a shard whose circuit is not
// closed re-warms it and closes the circuit — the health loop is the
// recovery path that restores caches; the query path's half-open trial
// is the fast path for transient partitions.
func (r *Router) probe(s *shard) bool {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	h, err := s.client.Healthz(ctx)
	if err == nil {
		var infos []serve.GraphInfo
		infos, err = s.client.Graphs(ctx)
		if err == nil {
			s.setListing(infos, h.Workers)
		}
	}
	r.metrics.observeHealth(s.addr, err == nil)
	if err != nil {
		return false
	}
	if !s.joined.Load() || s.brk.currentState() != breakerClosed {
		r.warm(s)
		s.brk.onSuccess()
		s.joined.Store(true)
		r.noteState(s)
		r.logf("fleet: shard %s live (%d graphs, %d workers)", s.addr, len(s.listing()), s.workerCount())
	}
	return true
}

// warm refills a joining shard's CC cache before it takes traffic: one
// CC query (default algorithm, no labels) per held graph, so the first
// real query after a join or rollout hits a warm epoch cache instead
// of paying the fill. Best-effort — a failed warm-up only costs the
// first client the fill it would have paid anyway.
func (r *Router) warm(s *shard) {
	for _, g := range s.listing() {
		ctx, cancel := context.WithTimeout(context.Background(), warmTimeout)
		_, err := s.client.CC(ctx, g.Name, "", false)
		cancel()
		r.metrics.observeWarm(s.addr)
		if err != nil {
			r.logf("fleet: warm %s on %s: %v", g.Name, s.addr, err)
			continue
		}
	}
}

// candidates returns the holders taking normal traffic (circuit
// closed), ring preference order re-sorted least-loaded first (ties
// keep ring order), plus whether ANY shard — live or not — holds the
// graph (the 404-vs-503 distinction). This is the peek view; the
// query path picks through pick(), which also admits half-open trials.
func (r *Router) candidates(graph string) (cands []*shard, known bool) {
	for _, idx := range r.ring.order(graph) {
		s := r.shards[idx]
		if !s.holds(graph) {
			continue
		}
		known = true
		if s.live() {
			cands = append(cands, s)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].inflight.Load() < cands[b].inflight.Load()
	})
	return cands, known
}

// deadHolders counts graph's holders that cannot take traffic right
// now — the number the router's 503 bodies report.
func (r *Router) deadHolders(graph string) (dead, holders int) {
	for _, idx := range r.ring.order(graph) {
		s := r.shards[idx]
		if !s.holds(graph) {
			continue
		}
		holders++
		if !s.live() {
			dead++
		}
	}
	return dead, holders
}

// pick selects the next shard to try for graph: closed-circuit holders
// least-loaded first, then half-open holders (whose admission is the
// circuit's one trial). Shards in tried are avoided while a fresh
// alternative exists; with none left they are re-admitted — a shard
// may have recovered across a backoff. trial reports whether the
// granted request is a half-open probe the caller must settle.
func (r *Router) pick(graph string, tried map[string]bool) (s *shard, trial, known bool) {
	var closed, half []*shard
	for _, idx := range r.ring.order(graph) {
		sh := r.shards[idx]
		if !sh.holds(graph) {
			continue
		}
		known = true
		if !sh.joined.Load() {
			continue
		}
		switch sh.brk.currentState() {
		case breakerClosed:
			closed = append(closed, sh)
		case breakerHalfOpen:
			half = append(half, sh)
		}
	}
	sort.SliceStable(closed, func(a, b int) bool {
		return closed[a].inflight.Load() < closed[b].inflight.Load()
	})
	for _, skipTried := range []bool{true, false} {
		for _, set := range [][]*shard{closed, half} {
			for _, sh := range set {
				if skipTried && tried[sh.addr] {
					continue
				}
				if ok, tr := sh.brk.allow(); ok {
					return sh, tr, known
				}
			}
		}
	}
	return nil, false, known
}

// retryAfter is the whole-seconds Retry-After hint on 503s: one health
// interval, the soonest the candidate set can plausibly change.
func (r *Router) retryAfter() int {
	s := int((r.cfg.HealthInterval + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// admit applies router-side admission control; a non-nil return is the
// shed answer (503 + Retry-After), recorded before any shard — or the
// stale cache — is touched.
func (r *Router) admit(kind string) *serve.Error {
	if max := r.cfg.MaxInflight; max > 0 && r.inflight.Load() >= int64(max) {
		r.metrics.observeShed(kind)
		return &serve.Error{
			Status:     http.StatusServiceUnavailable,
			RetryAfter: r.retryAfter(),
			Message:    fmt.Sprintf("router at capacity: %d queries in flight", max),
		}
	}
	return nil
}

// backoff sleeps the capped, jittered exponential delay before the
// attempt'th retry (1-based), observing ctx. The jitter draw comes
// from the router's seeded PRNG, landing in [d/2, d].
func (r *Router) backoff(ctx context.Context, attempt int) error {
	d := r.cfg.RetryBackoff << (attempt - 1)
	if d > retryBackoffCap || d <= 0 {
		d = retryBackoffCap
	}
	d = d/2 + time.Duration(r.nextRand()%uint64(d/2+1))
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// hedgeDelay returns the delay after which a query should hedge to a
// second replica, or < 0 when hedging is off (disabled, or no latency
// history yet for the adaptive trigger).
func (r *Router) hedgeDelay(kind string) time.Duration {
	switch {
	case r.cfg.HedgeAfter > 0:
		return r.cfg.HedgeAfter
	case r.cfg.HedgeAfter < 0:
		return -1
	}
	p, ok := r.lat[kind].percentile(hedgePercentile)
	if !ok {
		return -1
	}
	if p < time.Millisecond {
		p = time.Millisecond
	}
	return p
}

// retryableStatus reports whether a shard's application answer is
// worth retrying on a replica: 5xx a replica may not share. 504 is the
// shard's own query deadline firing — a replica would burn the same
// time — and stays final, as do all 4xx (authoritative).
func retryableStatus(code int) bool {
	return code == http.StatusInternalServerError ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// merged copies tried with addr added — the hedge's exclusion set,
// built without mutating the caller's map before the primary settles.
func merged(tried map[string]bool, addr string) map[string]bool {
	m := make(map[string]bool, len(tried)+1)
	for k, v := range tried {
		m[k] = v
	}
	m[addr] = true
	return m
}

// query is one routed request. The three kinds differ only in the
// shard call they make; placement, the retry budget, hedging and the
// breakers treat them alike.
type query struct {
	kind   string // "cc", "bfs" or "sssp"
	graph  string
	algo   string
	root   uint32 // bfs, sssp
	labels bool   // cc
}

// answer is a shard's verified response: the field of the query's
// kind is set.
type answer struct {
	cc   *serve.CCResponse
	bfs  *serve.BFSResponse
	sssp *serve.SSSPResponse
}

// ask makes the query's shard call.
func (q query) ask(ctx context.Context, c *serve.ShardClient) (a answer, err error) {
	switch q.kind {
	case "cc":
		a.cc, err = c.CC(ctx, q.graph, q.algo, q.labels)
	case "bfs":
		a.bfs, err = c.BFS(ctx, q.graph, q.root, q.algo)
	default:
		a.sssp, err = c.SSSP(ctx, q.graph, q.root, q.algo)
	}
	return a, err
}

// leg is one attempt leg's outcome (primary or hedge).
type leg struct {
	out   answer
	err   error
	s     *shard
	trial bool
	hedge bool
	took  time.Duration
}

// attempt runs one budgeted attempt: a primary call on s, hedged onto
// the next admissible replica after the hedge delay. The first
// decisive answer — a success or a final application error — wins and
// the loser's context is cancelled; a transport fault or retryable
// 5xx from one leg is counted (breaker, tried set) and the other leg
// is awaited. The caller's own context error returns unwrapped and is
// never blamed on a shard: a cancelled client is the 499 path, not a
// dead replica.
func (r *Router) attempt(ctx context.Context, q query, s *shard, trial bool, tried map[string]bool) (answer, error) {
	ch := make(chan leg, 2)
	launch := func(cctx context.Context, sh *shard, tr, hedge bool) {
		r.legs.Add(1)
		go func() {
			defer r.legs.Done()
			sh.inflight.Add(1)
			start := time.Now()
			out, err := q.ask(cctx, sh.client)
			sh.inflight.Add(-1)
			ch <- leg{out: out, err: err, s: sh, trial: tr, hedge: hedge, took: time.Since(start)}
		}()
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()

	r.metrics.observeRequest(s.addr, q.kind)
	launch(pctx, s, trial, false)
	outstanding := 1

	var timerC <-chan time.Time
	if hd := r.hedgeDelay(q.kind); hd >= 0 && !trial {
		timer := time.NewTimer(hd)
		defer timer.Stop()
		timerC = timer.C
	}

	var lastErr error
	for {
		select {
		case <-timerC:
			timerC = nil
			// Hedge onto the next admissible replica. Half-open trials
			// are not duplicated — a probe should be one request — so a
			// granted trial slot is returned unused.
			hs, htrial, _ := r.pick(q.graph, merged(tried, s.addr))
			if hs == nil || hs == s {
				continue
			}
			if htrial {
				hs.brk.release()
				continue
			}
			r.metrics.observeHedge(q.kind)
			r.metrics.observeRequest(hs.addr, q.kind)
			launch(hctx, hs, false, true)
			outstanding++
		case lg := <-ch:
			outstanding--
			if lg.err == nil {
				pcancel()
				hcancel()
				r.noteSuccess(lg.s)
				r.lat[q.kind].observe(lg.took)
				if lg.hedge {
					r.metrics.observeHedgeWon(q.kind)
				}
				return lg.out, nil
			}
			if pe := ctx.Err(); pe != nil {
				// The caller died; release any unsettled trial and let
				// the cancelled legs drain on their own.
				if lg.trial {
					lg.s.brk.release()
				}
				pcancel()
				hcancel()
				return answer{}, pe
			}
			var te *serve.TransportError
			var se *serve.Error
			switch {
			case errors.As(lg.err, &te):
				// Genuine transport fault: count it against the shard.
				tried[lg.s.addr] = true
				lastErr = lg.err
				r.noteFailure(lg.s, te.Err.Error())
				r.metrics.observeRetry(lg.s.addr)
			case errors.As(lg.err, &se) && retryableStatus(se.Status):
				// The shard answered (it is alive — the circuit resets),
				// but a replica may do better: retry without blame.
				tried[lg.s.addr] = true
				lastErr = lg.err
				r.noteSuccess(lg.s)
				r.metrics.observeRetry(lg.s.addr)
			default:
				// Final application answer (4xx, 504): decisive.
				pcancel()
				hcancel()
				r.noteSuccess(lg.s)
				return answer{}, lg.err
			}
			if outstanding == 0 {
				return answer{}, lastErr
			}
		}
	}
}

// route is the whole path of one query: admission control, then the
// graph's replica set under the retry budget — each attempt picks the
// least-loaded admissible holder (hedging to a second), transport
// faults and retryable 5xx move on after a jittered backoff, and a
// final application answer ends the query. An exhausted budget answers
// 503 with a Retry-After hint and a body naming the graph and its
// dead-holder count — except for a CC query whose last good answer is
// still within Config.MaxStale, which degrades to that answer, marked
// stale (see stale.go).
func (r *Router) route(ctx context.Context, q query) (answer, error) {
	if se := r.admit(q.kind); se != nil {
		return answer{}, se
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	tried := make(map[string]bool, 2)
	known := false
	var lastErr error
	budget := r.cfg.RetryBudget
	for a := 0; a < budget; a++ {
		if a > 0 {
			if err := r.backoff(ctx, a); err != nil {
				return answer{}, err
			}
		}
		s, trial, k := r.pick(q.graph, tried)
		known = known || k
		if s == nil {
			if !known {
				break // authoritatively absent: don't burn the budget
			}
			// No admissible holder this instant; the next backoff gives
			// a cooldown or the health loop time to return one.
			continue
		}
		out, err := r.attempt(ctx, q, s, trial, tried)
		if err == nil {
			if q.kind == "cc" && r.cfg.MaxStale > 0 {
				if err := r.stale.store(q, out.cc); err != nil {
					r.logf("fleet: CC for %q not kept for stale serving: %v", q.graph, err)
				}
			}
			return out, nil
		}
		var te *serve.TransportError
		var se *serve.Error
		switch {
		case errors.As(err, &te),
			errors.As(err, &se) && retryableStatus(se.Status):
			lastErr = err
			continue
		default:
			// Final application answers and caller-context errors pass
			// through unwrapped (the 4xx/499/504 paths).
			return answer{}, err
		}
	}
	if !known {
		return answer{}, serve.Errorf(http.StatusNotFound, "graph %q not loaded", q.graph)
	}
	r.metrics.observeBudgetExhausted(q.kind)
	if resp, ok := r.staleFor(q); ok {
		return answer{cc: resp}, nil
	}
	dead, holders := r.deadHolders(q.graph)
	msg := fmt.Sprintf("graph %q: no live replica (%d of %d holders dead; retry budget %d exhausted)",
		q.graph, dead, holders, budget)
	if lastErr != nil {
		msg += fmt.Sprintf(": %v", lastErr)
	}
	return answer{}, &serve.Error{
		Status:     http.StatusServiceUnavailable,
		RetryAfter: r.retryAfter(),
		Message:    msg,
	}
}

// CC implements serve.Backend across the fleet.
func (r *Router) CC(ctx context.Context, graph, algo string, labels bool) (*serve.CCResponse, error) {
	out, err := r.route(ctx, query{kind: "cc", graph: graph, algo: algo, labels: labels})
	return out.cc, err
}

// BFS implements serve.Backend across the fleet.
func (r *Router) BFS(ctx context.Context, graph string, root uint32, algo string) (*serve.BFSResponse, error) {
	out, err := r.route(ctx, query{kind: "bfs", graph: graph, algo: algo, root: root})
	return out.bfs, err
}

// SSSP implements serve.Backend across the fleet.
func (r *Router) SSSP(ctx context.Context, graph string, root uint32, algo string) (*serve.SSSPResponse, error) {
	out, err := r.route(ctx, query{kind: "sssp", graph: graph, algo: algo, root: root})
	return out.sssp, err
}

// Graphs implements serve.Backend: the union of the live shards'
// listings, replicated graphs deduplicated (first ring holder wins),
// sorted by name for a stable fleet-wide view.
func (r *Router) Graphs(ctx context.Context) ([]serve.GraphInfo, error) {
	byName := make(map[string]serve.GraphInfo)
	for _, s := range r.shards {
		if !s.live() {
			continue
		}
		for _, g := range s.listing() {
			if _, dup := byName[g.Name]; !dup {
				byName[g.Name] = g
			}
		}
	}
	out := make([]serve.GraphInfo, 0, len(byName))
	for _, g := range byName {
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, nil
}

// Healthz implements serve.Backend: distinct graphs and summed workers
// over the live shards. Status degrades (without failing the probe)
// when no shard is taking traffic.
func (r *Router) Healthz(ctx context.Context) (*serve.Health, error) {
	h := &serve.Health{Status: "ok"}
	names := make(map[string]bool)
	for _, s := range r.shards {
		if !s.live() {
			continue
		}
		h.Shards++
		h.Workers += s.workerCount()
		for _, g := range s.listing() {
			names[g.Name] = true
		}
	}
	h.Graphs = len(names)
	if h.Shards == 0 {
		h.Status = "degraded"
	}
	return h, nil
}

var _ serve.Backend = (*Router)(nil)
