package fleet

// End-to-end router behavior against real shard processes (daemon
// cores behind httptest listeners): placement, failover mid-traffic,
// the 404-vs-503 distinction, the fleet-wide listing, CC warm-on-join
// and zero-downtime rollout. Everything runs under -race in CI, so the
// health loops, query path and admin plane exercise their locking for
// real.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bagraph"
	"bagraph/internal/serve"
)

// newShardServer builds one real shard: a daemon core with the admin
// plane mounted, behind a live HTTP listener.
func newShardServer(t *testing.T, graphs map[string]*bagraph.Graph) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	for name, g := range graphs {
		if _, err := reg.Add(name, g); err != nil {
			t.Fatal(err)
		}
	}
	core := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1, Admin: true})
	ts := httptest.NewServer(core.Handler())
	t.Cleanup(func() {
		ts.Close()
		core.Close()
	})
	return ts
}

// labelsOf is the label array of the body a CC answer is served as: a
// routed answer relays the shard's bytes and keeps no array of its own.
func labelsOf(t *testing.T, resp *serve.CCResponse) []uint32 {
	t.Helper()
	body, err := resp.Body()
	if err != nil {
		t.Fatal(err)
	}
	var decoded serve.CCResponse
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	return decoded.Labels
}

func corpusGraph(t *testing.T) *bagraph.Graph {
	t.Helper()
	g, err := bagraph.CorpusGraph("cond-mat-2005", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTestRouter wires a started router over the shard URLs and waits
// for every shard to go live. A long health interval keeps the router
// from noticing deaths on its own, so tests exercise the query-path
// failover deterministically; the immediate first probe still makes
// joins fast.
func newTestRouter(t *testing.T, interval time.Duration, urls ...string) *Router {
	t.Helper()
	r, err := New(Config{Shards: urls, HealthInterval: interval, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Close)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, _ := r.Healthz(context.Background())
		if h.Shards == len(urls) {
			return r
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never went live: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRouterFailoverMidTraffic(t *testing.T) {
	g := corpusGraph(t)
	shard1 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	shard2 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	r := newTestRouter(t, time.Hour, shard1.URL, shard2.URL)
	ctx := context.Background()

	want, err := r.CC(ctx, "cm", "par-hybrid", true)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the shard the router would pick next, then keep querying:
	// the transport failure must mark it dead and retry on the replica
	// invisibly — every query still answers, with identical bytes.
	cands, known := r.candidates("cm")
	if !known || len(cands) != 2 {
		t.Fatalf("want 2 live candidates, got %d (known %v)", len(cands), known)
	}
	preferred := cands[0]
	for _, ts := range []*httptest.Server{shard1, shard2} {
		if ts.URL == preferred.addr {
			ts.CloseClientConnections()
			ts.Close()
		}
	}
	for i := 0; i < 5; i++ {
		got, err := r.CC(ctx, "cm", "par-hybrid", true)
		if err != nil {
			t.Fatalf("query %d failed during failover: %v", i, err)
		}
		if got.Components != want.Components || len(labelsOf(t, got)) != len(labelsOf(t, want)) {
			t.Fatalf("replica answered differently: %d/%d components", got.Components, want.Components)
		}
	}
	if preferred.live() {
		t.Fatal("failed shard's circuit was not opened by the query path")
	}
	if st := preferred.brk.currentState(); st != breakerOpen {
		t.Fatalf("failed shard's circuit is %v, want open", st)
	}
	if cands, _ := r.candidates("cm"); len(cands) != 1 {
		t.Fatalf("dead shard still a candidate: %d", len(cands))
	}

	// BFS and SSSP ride the same route plane.
	if _, err := r.BFS(ctx, "cm", 0, "par-do"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SSSP(ctx, "cm", 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRouterNoReplicaLeftIs503(t *testing.T) {
	g := corpusGraph(t)
	shard1 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	r := newTestRouter(t, time.Hour, shard1.URL)
	ctx := context.Background()

	if _, err := r.CC(ctx, "cm", "", false); err != nil {
		t.Fatal(err)
	}
	shard1.CloseClientConnections()
	shard1.Close()

	// First query after the death eats the transport error...
	_, err := r.CC(ctx, "cm", "", false)
	if serve.ErrorStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("all replicas down: got %v, want 503", err)
	}
	// ...and from then on the shard is out of the candidate set, but the
	// graph is still KNOWN: 503 (retryable), never 404 (authoritative).
	_, err = r.CC(ctx, "cm", "", false)
	if serve.ErrorStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("known graph with no live replica: got %v, want 503", err)
	}

	// A graph no shard ever held is authoritatively absent.
	_, err = r.CC(ctx, "nope", "", false)
	if serve.ErrorStatus(err) != http.StatusNotFound {
		t.Fatalf("unknown graph: got %v, want 404", err)
	}
}

func TestRouterGraphsUnion(t *testing.T) {
	g := corpusGraph(t)
	g2, err := bagraph.CorpusGraph("coAuthorsDBLP", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	shard1 := newShardServer(t, map[string]*bagraph.Graph{"cm": g, "dblp": g2})
	shard2 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	r := newTestRouter(t, time.Hour, shard1.URL, shard2.URL)

	infos, err := r.Graphs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "cm" || infos[1].Name != "dblp" {
		t.Fatalf("fleet listing wrong: %+v", infos)
	}

	h, err := r.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Shards != 2 || h.Graphs != 2 || h.Workers != 4 {
		t.Fatalf("fleet health wrong: %+v", h)
	}
}

// TestRouterWarmOnJoin: the router refills a joining shard's CC cache
// before it takes traffic, so the FIRST client query already replays
// from the epoch cache.
func TestRouterWarmOnJoin(t *testing.T) {
	g := corpusGraph(t)
	shard1 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	r := newTestRouter(t, time.Hour, shard1.URL)

	cc, err := r.CC(context.Background(), "cm", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !cc.Cached {
		t.Fatal("first client query missed the cache; join did not warm the shard")
	}
}

// p3METIS is a 3-vertex path graph in METIS format, the rollout
// payload (the "new build" a deploy would push).
const p3METIS = "3 2\n2\n1 3\n2\n"

func TestRouterRollout(t *testing.T) {
	g := corpusGraph(t)
	shard1 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	shard2 := newShardServer(t, map[string]*bagraph.Graph{"cm": g})
	r := newTestRouter(t, time.Hour, shard1.URL, shard2.URL)
	ctx := context.Background()

	path := filepath.Join(t.TempDir(), "p3.metis")
	if err := os.WriteFile(path, []byte(p3METIS), 0o644); err != nil {
		t.Fatal(err)
	}

	// A graph new to the fleet lands on the first Replicas live shards
	// in ring order.
	resp := r.rollout(ctx, "p3", path)
	if len(resp.Shards) != 2 {
		t.Fatalf("new graph placed on %d shards, want 2: %+v", len(resp.Shards), resp.Shards)
	}
	for _, s := range resp.Shards {
		if s.Error != "" {
			t.Fatalf("rollout failed on %s: %s", s.Shard, s.Error)
		}
	}

	// The listing refresh makes the new graph routable immediately, and
	// the per-shard warm makes the first query a cache replay.
	cc, err := r.CC(ctx, "p3", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Components != 1 || !cc.Cached {
		t.Fatalf("rolled-out graph answered %+v, want 1 cached component", cc)
	}

	// Rolling the SAME graph again bumps the epoch on every holder,
	// one shard at a time.
	resp = r.rollout(ctx, "p3", path)
	if len(resp.Shards) != 2 {
		t.Fatalf("existing graph rolled to %d shards, want its 2 holders", len(resp.Shards))
	}
	for _, s := range resp.Shards {
		if s.Error != "" || s.Epoch < 2 {
			t.Fatalf("re-rollout on %s: epoch %d err %q, want epoch >= 2", s.Shard, s.Epoch, s.Error)
		}
	}
	if cc2, err := r.CC(ctx, "p3", "", false); err != nil || cc2.Epoch <= cc.Epoch {
		t.Fatalf("epoch did not advance after rollout: %+v err %v", cc2, err)
	}
}

// TestRouterRecovery: a shard that was down when the router started
// joins the fleet as soon as a probe lands, passing through the
// warming state.
func TestRouterRecovery(t *testing.T) {
	g := corpusGraph(t)
	// A started-then-stopped httptest server leaves us a dead address
	// the router can be pointed at before anything listens there.
	down := httptest.NewServer(http.NotFoundHandler())
	addr := down.Listener.Addr().String()
	down.Close()

	r, err := New(Config{
		Shards:         []string{addr},
		HealthInterval: 20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Close)

	// Nothing listening: the shard never joins, its graphs are unknown.
	time.Sleep(60 * time.Millisecond)
	if _, err := r.CC(context.Background(), "cm", "", false); serve.ErrorStatus(err) != http.StatusNotFound {
		t.Fatalf("query against a fleet with no live shard: %v, want 404", err)
	}

	// Bring a real shard up on that same address.
	reg := serve.NewRegistry()
	if _, err := reg.Add("cm", g); err != nil {
		t.Fatal(err)
	}
	core := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1})
	srv := &http.Server{Handler: core.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		core.Close()
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		cc, err := r.CC(context.Background(), "cm", "", false)
		if err == nil {
			if !cc.Cached {
				t.Fatal("recovered shard took traffic before its CC warm")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never rejoined: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
