package fleet

// The hardened failure path under deterministic fault injection: every
// router failure feature — breaker transitions, retry budgets, hedging,
// admission control, stale-serve degradation, the 499 classification —
// driven from scripted fault plans, plus the seeded chaos soak that
// replays a whole kill/recover/latency schedule from one uint64 and
// insists every successful answer is byte-identical to a fault-free
// oracle. All of it runs under -race in CI.

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bagraph"
	"bagraph/internal/fault"
	"bagraph/internal/metrics"
	"bagraph/internal/serve"
	"bagraph/internal/testleak"
)

// host strips the scheme, yielding the fault plan's target key (the
// transport addresses targets by URL.Host).
func host(u string) string { return strings.TrimPrefix(u, "http://") }

// newChaosRouter wires a started router whose every shard connection
// flows through the given fault transport, waits for the fleet to go
// live (the transport sees traffic from the start — keep its plan
// empty, or hand it in disarmed, if the join must be clean), and
// attaches a private metrics set the test can read back.
func newChaosRouter(t *testing.T, tr *fault.Transport, mut func(*Config), urls ...string) (*Router, *Metrics) {
	t.Helper()
	cfg := Config{
		Shards:         urls,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
		Client:         &http.Client{Transport: tr},
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(metrics.NewRegistry())
	r.SetMetrics(m)
	r.Start()
	t.Cleanup(r.Close)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, _ := r.Healthz(context.Background())
		if h.Shards == len(urls) {
			return r, m
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never joined: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCtxCancelDoesNotTripBreaker: a caller hanging up (the 499 path)
// is not evidence against the shard. The query must return the
// caller's own context error unwrapped, and the shard must stay live
// with its circuit closed.
func TestCtxCancelDoesNotTripBreaker(t *testing.T) {
	testleak.Check(t)
	g := corpusGraph(t)
	shard := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	script := fault.NewScript()
	r, _ := newChaosRouter(t, fault.NewTransport(script, nil), nil, shard.URL)

	script.Queue(host(shard.URL), fault.Fault{Kind: fault.Latency, Delay: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	_, err := r.CC(ctx, "cm", "", false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	if st := serve.ErrorStatus(err); st != 499 {
		t.Fatalf("cancelled caller maps to %d, want 499", st)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancellation took %v to surface", took)
	}

	s := r.shards[0]
	if !s.live() || s.brk.currentState() != breakerClosed {
		t.Fatalf("caller cancellation tripped the breaker: live=%v state=%v",
			s.live(), s.brk.currentState())
	}
	if _, err := r.CC(context.Background(), "cm", "", false); err != nil {
		t.Fatalf("shard wrongly penalized; follow-up query failed: %v", err)
	}
}

// TestBreakerHalfOpenTrialRecovers walks the circuit through its whole
// life: a transport fault opens it, the open circuit refuses traffic
// with a 503 whose body names the graph and dead-holder count (and
// carries the Retry-After hint), the elapsed cooldown admits exactly
// one trial, and the trial's success closes it.
func TestBreakerHalfOpenTrialRecovers(t *testing.T) {
	testleak.Check(t)
	g := corpusGraph(t)
	shard := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	script := fault.NewScript()
	r, _ := newChaosRouter(t, fault.NewTransport(script, nil), func(c *Config) {
		c.RetryBudget = 1
		c.BreakerCooldown = 50 * time.Millisecond
	}, shard.URL)
	ctx := context.Background()
	s := r.shards[0]

	script.Queue(host(shard.URL), fault.Fault{Kind: fault.Refuse})
	_, err := r.CC(ctx, "cm", "", false)
	var se *serve.Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("refused shard: got %v, want 503", err)
	}
	if se.RetryAfter < 1 {
		t.Fatalf("503 without a Retry-After hint: %+v", se)
	}
	if !strings.Contains(se.Message, `graph "cm"`) || !strings.Contains(se.Message, "1 of 1 holders dead") {
		t.Fatalf("503 body does not name the graph and dead-holder count: %q", se.Message)
	}
	if st := s.brk.currentState(); st != breakerOpen {
		t.Fatalf("circuit is %v after the fault, want open", st)
	}

	// Open circuit: no candidate, still 503, no request reaches the shard.
	if _, err := r.CC(ctx, "cm", "", false); serve.ErrorStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("open circuit answered %v, want 503", err)
	}

	time.Sleep(60 * time.Millisecond)
	if st := s.brk.currentState(); st != breakerHalfOpen {
		t.Fatalf("circuit is %v after the cooldown, want half-open", st)
	}
	cc, err := r.CC(ctx, "cm", "", false)
	if err != nil {
		t.Fatalf("half-open trial failed: %v", err)
	}
	if cc.Stale {
		t.Fatal("trial answer wrongly marked stale")
	}
	if st := s.brk.currentState(); st != breakerClosed {
		t.Fatalf("circuit is %v after the successful trial, want closed", st)
	}
}

// TestRetryableStatusFailsOver: a 5xx ANSWER from a live shard is
// retried on a replica without opening the answering shard's circuit —
// it answered, so it is alive.
func TestRetryableStatusFailsOver(t *testing.T) {
	testleak.Check(t)
	g := corpusGraph(t)
	shard1 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	shard2 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	script := fault.NewScript()
	r, m := newChaosRouter(t, fault.NewTransport(script, nil), nil, shard1.URL, shard2.URL)
	ctx := context.Background()

	cands, _ := r.candidates("cm")
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	preferred := cands[0]
	script.Queue(host(preferred.addr), fault.Fault{Kind: fault.Status, Status: 500})

	cc, err := r.CC(ctx, "cm", "", false)
	if err != nil {
		t.Fatalf("5xx failover did not recover: %v", err)
	}
	if cc.Graph != "cm" {
		t.Fatalf("wrong answer: %+v", cc)
	}
	if !preferred.live() {
		t.Fatal("a 500 ANSWER opened the circuit; only transport faults may")
	}
	if got := m.retries.With(preferred.addr).Value(); got != 1 {
		t.Fatalf("retries on %s = %d, want 1", preferred.addr, got)
	}
}

// TestHedgeRacesSlowReplica: after the hedge delay the query is
// duplicated on the second replica; the fast leg wins, the slow leg is
// cancelled, and nobody's circuit moves.
func TestHedgeRacesSlowReplica(t *testing.T) {
	testleak.Check(t)
	g := corpusGraph(t)
	shard1 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	shard2 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	script := fault.NewScript()
	r, m := newChaosRouter(t, fault.NewTransport(script, nil), func(c *Config) {
		c.HedgeAfter = 10 * time.Millisecond
	}, shard1.URL, shard2.URL)

	cands, _ := r.candidates("cm")
	preferred := cands[0]
	script.Queue(host(preferred.addr), fault.Fault{Kind: fault.Latency, Delay: 2 * time.Second})

	start := time.Now()
	cc, err := r.CC(context.Background(), "cm", "", false)
	if err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("hedge did not race the slow replica: %v", took)
	}
	if !cc.Cached {
		t.Fatalf("hedge answered cold: %+v", cc)
	}
	if got := m.hedges.With("cc").Value(); got != 1 {
		t.Fatalf("hedges fired = %d, want 1", got)
	}
	if got := m.hedgeWins.With("cc").Value(); got != 1 {
		t.Fatalf("hedge wins = %d, want 1", got)
	}
	for _, s := range r.shards {
		if !s.live() {
			t.Fatalf("hedging moved %s's circuit", s.addr)
		}
	}
}

// TestAdmissionShedBypassesStale: at the inflight cap the router sheds
// with 503 + Retry-After BEFORE routing — a shed is a capacity answer,
// so it must not dip into the stale cache even when one exists.
func TestAdmissionShedBypassesStale(t *testing.T) {
	testleak.Check(t)
	g := corpusGraph(t)
	shard := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	script := fault.NewScript()
	r, m := newChaosRouter(t, fault.NewTransport(script, nil), func(c *Config) {
		c.MaxInflight = 1
		c.MaxStale = time.Minute
	}, shard.URL)
	ctx := context.Background()

	if _, err := r.CC(ctx, "cm", "", false); err != nil {
		t.Fatal(err) // primes the stale cache
	}

	script.Queue(host(shard.URL), fault.Fault{Kind: fault.Latency, Delay: 300 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := r.CC(ctx, "cm", "", false); err != nil {
			t.Errorf("occupying query failed: %v", err)
		}
	}()
	time.Sleep(50 * time.Millisecond) // the slow query is now in flight

	_, err := r.CC(ctx, "cm", "", false)
	var se *serve.Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("at capacity: got %v, want 503 (NOT a stale answer)", err)
	}
	if se.RetryAfter < 1 || !strings.Contains(se.Message, "capacity") {
		t.Fatalf("shed answer malformed: %+v", se)
	}
	if got := m.shed.With("cc").Value(); got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}
	wg.Wait()
}

// TestStaleServeOnTotalLoss: with every holder gone, CC degrades to
// the router's last good answer marked "stale", bounded by MaxStale;
// shapes never cached — and traversals, always — stay 503.
func TestStaleServeOnTotalLoss(t *testing.T) {
	testleak.Check(t)
	g := corpusGraph(t)
	shard := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	script := fault.NewScript()
	r, m := newChaosRouter(t, fault.NewTransport(script, nil), func(c *Config) {
		c.MaxStale = time.Minute
	}, shard.URL)
	ctx := context.Background()

	fresh, err := r.CC(ctx, "cm", "", false)
	if err != nil {
		t.Fatal(err)
	}
	shard.CloseClientConnections()
	shard.Close()

	stale, err := r.CC(ctx, "cm", "", false)
	if err != nil {
		t.Fatalf("total holder loss did not degrade to stale: %v", err)
	}
	if !stale.Stale {
		t.Fatal("degraded answer not marked stale")
	}
	if stale.Components != fresh.Components || stale.Epoch != fresh.Epoch {
		t.Fatalf("stale answer diverged: %+v vs %+v", stale, fresh)
	}
	if got := m.staleHits.With("cm").Value(); got != 1 {
		t.Fatalf("stale serves = %d, want 1", got)
	}

	// A request shape never answered has nothing to degrade to.
	if _, err := r.CC(ctx, "cm", "", true); serve.ErrorStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("uncached shape: got %v, want 503", err)
	}
	// Traversals are rooted; a stale answer would be wrong, not degraded.
	if _, err := r.BFS(ctx, "cm", 0, ""); serve.ErrorStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("BFS under total loss: got %v, want 503", err)
	}

	// Entries age out of eligibility.
	r.stale.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	if _, err := r.CC(ctx, "cm", "", false); serve.ErrorStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("expired stale entry still served: %v", err)
	}
}

// TestRetryAfterOverHTTP: the satellite contract at the wire — a
// router-fronted server answers 503 with a Retry-After HEADER and a
// JSON body carrying the same whole-seconds hint plus a message naming
// the graph and its dead-holder count.
func TestRetryAfterOverHTTP(t *testing.T) {
	testleak.Check(t)
	g := corpusGraph(t)
	shard := newShardServer(t, map[string]*bagraph.Graph{"cm": g})

	r, err := New(Config{Shards: []string{shard.URL}, HealthInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	core := serve.NewWithBackend(r, serve.Config{})
	r.Start()
	front := httptest.NewServer(core.Handler())
	t.Cleanup(func() {
		front.Close()
		core.Close() // closes the router backend
	})
	waitLive := time.Now().Add(10 * time.Second)
	for {
		if h, _ := r.Healthz(context.Background()); h.Shards == 1 {
			break
		}
		if time.Now().After(waitLive) {
			t.Fatal("shard never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}

	shard.CloseClientConnections()
	shard.Close()

	resp, err := http.Post(front.URL+"/query/cc", "application/json",
		strings.NewReader(`{"graph":"cm"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	header := resp.Header.Get("Retry-After")
	if header == "" {
		t.Fatal("503 without a Retry-After header")
	}
	var body struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if strconv.Itoa(body.RetryAfter) != header {
		t.Fatalf("body retry_after %d disagrees with header %q", body.RetryAfter, header)
	}
	if !strings.Contains(body.Error, `graph "cm"`) || !strings.Contains(body.Error, "1 of 1 holders dead") {
		t.Fatalf("503 body does not name the graph and dead-holder count: %q", body.Error)
	}
}

// scriptFirst is a fault plan that serves a target's scripted faults
// before the seeded plan's: a soak's fixed opening on top of its seed.
type scriptFirst struct {
	script *fault.Script
	seeded *fault.Seeded
}

func (p scriptFirst) Next(target string) fault.Fault {
	if f := p.script.Next(target); f.Kind != fault.None {
		return f
	}
	return p.seeded.Next(target)
}

// chaosQuery is one query shape the soak replays; serial kernels keep
// every field of the response — stats included — deterministic, so the
// oracle comparison can demand byte identity.
type chaosQuery struct {
	kind  string
	graph string
	root  uint32
}

// TestChaosSoak is the acceptance drill: a seeded fault plan
// (refusals, latency spikes, mid-body hangs, 5xx, truncated and
// corrupted JSON, plus sustained one-victim outage windows) over a
// 2-graph × 2-replica fleet, under concurrent load, under -race.
// Every successful answer must be byte-identical to the fault-free
// oracle (stale answers modulo their marker); every failure must be a
// well-formed 503 carrying Retry-After; no query may be lost. Re-run
// any logged schedule with CHAOS_SEED=<n>.
//
// A hedge is certain, not left to load: the first soak request to each
// cm replica is delayed by MaxDelay, well past HedgeAfter, and one cm
// BFS runs alone before the workers start, so its primary is slow while
// the other replica is healthy. Under load a hedge timer mostly finds
// no other admissible replica (pick returns the primary itself, less
// often nothing or a half-open trial), so the seeded delays alone once
// produced a soak with no hedge at all.
func TestChaosSoak(t *testing.T) {
	testleak.Check(t)
	seed := uint64(1)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)

	gCM := corpusGraph(t)
	gDB, err := bagraph.CorpusGraph("coAuthorsDBLP", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newShardServer(t, map[string]*bagraph.Graph{"cm": gCM})
	s2 := newShardServer(t, map[string]*bagraph.Graph{"cm": gCM})
	s3 := newShardServer(t, map[string]*bagraph.Graph{"dblp": gDB})
	s4 := newShardServer(t, map[string]*bagraph.Graph{"dblp": gDB})
	servers := []*httptest.Server{s1, s2, s3, s4}
	hosts := make([]string, len(servers))
	for i, ts := range servers {
		hosts[i] = host(ts.URL)
	}

	seeded := &fault.Seeded{
		Seed:   seed,
		Refuse: 0.05, Latency: 0.06, Hang: 0.04,
		Status: 0.05, Truncate: 0.03, Corrupt: 0.03,
		MaxDelay:    25 * time.Millisecond,
		OutageEvery: 60,
		OutageRate:  0.35,
		Targets:     hosts,
	}
	script := fault.NewScript()
	for _, h := range hosts[:2] { // the cm replicas
		script.Queue(h, fault.Fault{Kind: fault.Latency, Delay: seeded.MaxDelay})
	}
	tr := fault.NewTransport(scriptFirst{script, seeded}, nil)
	tr.SetEnabled(false) // the join and oracle phases run clean
	r, m := newChaosRouter(t, tr, func(c *Config) {
		c.RetryBudget = 3
		c.HedgeAfter = 5 * time.Millisecond
		c.BreakerCooldown = 30 * time.Millisecond
		c.MaxInflight = 7
		c.MaxStale = time.Minute
		c.Seed = seed
	}, s1.URL, s2.URL, s3.URL, s4.URL)
	ctx := context.Background()

	// Pre-fill every replica's CC cache for the soak's algorithm, so a
	// CC answer is a cache replay (with the fill's deterministic serial
	// stats) no matter which replica serves it.
	for _, ts := range servers {
		c := serve.NewShardClient(ts.URL, nil)
		infos, err := c.Graphs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range infos {
			if _, err := c.CC(ctx, g.Name, "bb", false); err != nil {
				t.Fatal(err)
			}
		}
	}

	queries := []chaosQuery{
		{"cc", "cm", 0}, {"cc", "dblp", 0},
		{"bfs", "cm", 0}, {"bfs", "cm", 1}, {"bfs", "dblp", 0}, {"bfs", "dblp", 2},
		{"sssp", "cm", 0}, {"sssp", "dblp", 1},
	}
	// do answers q with the bytes the router's server would send for it
	// (a stale answer's without its marker).
	do := func(q chaosQuery) (stale bool, raw []byte, err error) {
		switch q.kind {
		case "cc":
			resp, e := r.CC(ctx, q.graph, "bb", false)
			if e != nil {
				return false, nil, e
			}
			stale = resp.Stale
			if stale {
				c := *resp
				c.Stale = false
				resp = &c
			}
			raw, err = resp.Body()
			return stale, raw, err
		case "bfs":
			resp, e := r.BFS(ctx, q.graph, q.root, "bb")
			if e != nil {
				return false, nil, e
			}
			raw, err = resp.Body()
			return false, raw, err
		default:
			resp, e := r.SSSP(ctx, q.graph, q.root, "bb")
			if e != nil {
				return false, nil, e
			}
			raw, err = resp.Body()
			return false, raw, err
		}
	}

	oracle := make(map[chaosQuery][]byte, len(queries))
	for _, q := range queries {
		stale, raw, err := do(q)
		if err != nil || stale {
			t.Fatalf("oracle capture %+v: stale=%v err=%v", q, stale, err)
		}
		oracle[q] = raw
	}

	// Soak under fire, opening with the lone cm BFS whose primary the
	// script delays.
	tr.SetEnabled(true)
	opening := chaosQuery{"bfs", "cm", 0}
	if _, raw, err := do(opening); err != nil || string(raw) != string(oracle[opening]) {
		t.Fatalf("opening %+v: err=%v, answer matches the oracle: %v", opening, err, string(raw) == string(oracle[opening]))
	}
	const workers, perWorker = 8, 40
	var ok, mismatches, degraded, shed, staleServes atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*1315423911 + int64(w)))
			for i := 0; i < perWorker; i++ {
				q := queries[rng.Intn(len(queries))]
				stale, raw, err := do(q)
				if err == nil {
					if stale {
						staleServes.Add(1)
					}
					if string(raw) != string(oracle[q]) {
						mismatches.Add(1)
						t.Errorf("%+v answered bytes diverging from the oracle:\n got %s\nwant %s",
							q, raw, oracle[q])
					} else {
						ok.Add(1)
					}
					continue
				}
				var se *serve.Error
				if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.RetryAfter < 1 {
					t.Errorf("%+v failed outside the 503+Retry-After contract: %v", q, err)
					continue
				}
				if strings.Contains(se.Message, "capacity") {
					shed.Add(1)
				} else {
					degraded.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	tr.SetEnabled(false)

	total := ok.Load() + mismatches.Load() + degraded.Load() + shed.Load()
	if want := uint64(workers * perWorker); total != want {
		t.Fatalf("queries lost: %d accounted, %d sent", total, want)
	}
	t.Logf("soak: %d ok (%d stale), %d degraded 503, %d shed, %d mismatches",
		ok.Load(), staleServes.Load(), degraded.Load(), shed.Load(), mismatches.Load())
	if ok.Load() == 0 {
		t.Fatal("no query survived the soak; the plan is too hostile to mean anything")
	}

	var failovers, retries uint64
	for _, s := range r.shards {
		failovers += m.failovers.With(s.addr).Value()
		retries += m.retries.With(s.addr).Value()
	}
	hedges := m.hedges.With("cc").Value() + m.hedges.With("bfs").Value() + m.hedges.With("sssp").Value()
	if failovers == 0 || retries == 0 || hedges == 0 {
		t.Fatalf("soak exercised too little: failovers=%d retries=%d hedges=%d",
			failovers, retries, hedges)
	}

	// Deterministic epilogue: both cm holders die for real. CC degrades
	// to the stale oracle answer; BFS answers the full 503 contract.
	for _, ts := range []*httptest.Server{s1, s2} {
		ts.CloseClientConnections()
		ts.Close()
	}
	stale, raw, err := do(chaosQuery{"cc", "cm", 0})
	if err != nil || !stale {
		t.Fatalf("total cm loss: stale=%v err=%v, want a stale serve", stale, err)
	}
	if string(raw) != string(oracle[chaosQuery{"cc", "cm", 0}]) {
		t.Fatalf("stale answer diverged from the oracle:\n got %s\nwant %s",
			raw, oracle[chaosQuery{"cc", "cm", 0}])
	}
	_, _, err = do(chaosQuery{"bfs", "cm", 0})
	var se *serve.Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("BFS under total loss: %v, want 503", err)
	}
	if se.RetryAfter < 1 || !strings.Contains(se.Message, `graph "cm"`) ||
		!strings.Contains(se.Message, "2 of 2 holders dead") {
		t.Fatalf("503 contract violated: %+v", se)
	}
	if m.staleHits.With("cm").Value() == 0 {
		t.Fatal("stale-serve metric never moved")
	}
	if m.exhausted.With("bfs").Value() == 0 {
		t.Fatal("retry-budget-exhausted metric never moved")
	}
	if shed.Load() > 0 && m.shed.With("cc").Value()+m.shed.With("bfs").Value()+m.shed.With("sssp").Value() == 0 {
		t.Fatal("shed metric disagrees with observed sheds")
	}
}
