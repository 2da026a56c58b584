package serve

import (
	"bagraph"

	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/sssp"
	"bagraph/internal/testutil"
)

// newTestEntry publishes a mid-size generated graph (disconnected, so
// sentinel handling is exercised) in a fresh registry.
func newTestEntry(t testing.TB) *Entry {
	t.Helper()
	r := NewRegistry()
	g := gen.GNM(400, 900, 11)
	e, err := r.Add("gnm", g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBatcherCoalescesBFS fires maxBatch concurrent queries with a long
// window: the size trigger must dispatch them as one batch and every
// response must match the sequential oracle.
func TestBatcherCoalescesBFS(t *testing.T) {
	e := newTestEntry(t)
	const k = 8
	b := NewBatcher(2, k, 5*time.Second, bagraph.ScheduleStatic)
	defer b.Close()

	results := make([]Result, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = b.BFS(context.Background(), e, "ba", uint32(i))
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("root %d: %v", i, res.Err)
		}
		if res.Batch != k {
			t.Fatalf("root %d dispatched in batch of %d, want %d", i, res.Batch, k)
		}
		want, _ := bfs.TopDownBranchBased(e.Graph(), uint32(i))
		for v := range want {
			if res.Hops[v] != want[v] {
				t.Fatalf("root %d: dist[%d] = %d, want %d", i, v, res.Hops[v], want[v])
			}
		}
	}
}

// TestBatcherSeparatesKeys checks that different algorithms never share
// a batch even when concurrent.
func TestBatcherSeparatesKeys(t *testing.T) {
	e := newTestEntry(t)
	b := NewBatcher(2, 16, 50*time.Millisecond, bagraph.ScheduleStatic)
	defer b.Close()

	var wg sync.WaitGroup
	var ba, bb Result
	wg.Add(2)
	go func() { defer wg.Done(); ba = b.BFS(context.Background(), e, "ba", 0) }()
	go func() { defer wg.Done(); bb = b.BFS(context.Background(), e, "bb", 0) }()
	wg.Wait()
	if ba.Err != nil || bb.Err != nil {
		t.Fatalf("errs: %v %v", ba.Err, bb.Err)
	}
	if ba.Batch != 1 || bb.Batch != 1 {
		t.Fatalf("distinct algorithms coalesced: batches %d and %d", ba.Batch, bb.Batch)
	}
}

// TestBatcherImmediateWindow covers the window <= 0 fast path: requests
// dispatch inline without waiting.
func TestBatcherImmediateWindow(t *testing.T) {
	e := newTestEntry(t)
	b := NewBatcher(1, 4, -1, bagraph.ScheduleStatic)
	defer b.Close()
	res := b.BFS(context.Background(), e, "par-do", 3)
	if res.Err != nil || res.Batch != 1 {
		t.Fatalf("immediate dispatch: batch %d err %v", res.Batch, res.Err)
	}
	want, _, _ := bfs.ParallelDO(testutil.Exec(t, 1, par.Static), e.Graph(), 3, nil, new(bfs.Scratch))
	for v := range want {
		if res.Hops[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Hops[v], want[v])
		}
	}
}

// TestBatcherSSSP checks the weighted family end to end: sequential
// and parallel kernels alike, the batcher's distances must equal the
// Dijkstra oracle on the entry's shared view.
func TestBatcherSSSP(t *testing.T) {
	e := newTestEntry(t)
	b := NewBatcher(2, 4, -1, bagraph.ScheduleStatic)
	defer b.Close()
	for _, algo := range []string{"bb", "ba", "dijkstra", "par-bb", "par-ba", "par-hybrid"} {
		res := b.SSSP(context.Background(), e, algo, 5)
		if res.Err != nil {
			t.Fatalf("%s: %v", algo, res.Err)
		}
		w, err := e.Weighted()
		if err != nil {
			t.Fatal(err)
		}
		want := sssp.Dijkstra(w, 5)
		for v := range want {
			if res.Dists[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", algo, v, res.Dists[v], want[v])
			}
		}
	}
}

// TestBatcherSSSPRealWeights pins the weighted-entry path: a weighted
// registry entry serves SSSP on its real edge weights, not the unit
// view, for every algorithm.
func TestBatcherSSSPRealWeights(t *testing.T) {
	r := NewRegistry()
	w := testutil.RandomWeighted(300, 800, 25, 21)
	e, err := r.AddWeighted("wg", w)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasEdgeWeights() {
		t.Fatal("weighted entry not marked weighted")
	}
	b := NewBatcher(2, 4, -1, bagraph.ScheduleStatic)
	defer b.Close()
	want := sssp.Dijkstra(w, 2)
	for _, algo := range []string{"bb", "ba", "dijkstra", "par-bb", "par-ba", "par-hybrid"} {
		res := b.SSSP(context.Background(), e, algo, 2)
		if res.Err != nil {
			t.Fatalf("%s: %v", algo, res.Err)
		}
		for v := range want {
			if res.Dists[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", algo, v, res.Dists[v], want[v])
			}
		}
	}
}

// TestBatcherMultiSourceBFS fires a full batch of "ms" queries: the
// size trigger must coalesce them into ONE multi-source kernel run and
// every response must match an independent sequential traversal.
func TestBatcherMultiSourceBFS(t *testing.T) {
	e := newTestEntry(t)
	const k = 6
	b := NewBatcher(2, k, 5*time.Second, bagraph.ScheduleStatic)
	defer b.Close()

	results := make([]Result, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = b.BFS(context.Background(), e, "ms", uint32(i*7))
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("req %d: %v", i, res.Err)
		}
		if res.Batch != k {
			t.Fatalf("req %d dispatched in batch of %d, want %d", i, res.Batch, k)
		}
		want, _ := bfs.TopDownBranchBased(e.Graph(), uint32(i*7))
		for v := range want {
			if res.Hops[v] != want[v] {
				t.Fatalf("req %d: dist[%d] = %d, want %d", i, v, res.Hops[v], want[v])
			}
		}
	}

	// A lone "ms" query (batch of one, immediate dispatch) also
	// answers correctly.
	b1 := NewBatcher(2, 4, -1, bagraph.ScheduleStatic)
	defer b1.Close()
	solo := b1.BFS(context.Background(), e, "ms", 3)
	if solo.Err != nil {
		t.Fatal(solo.Err)
	}
	if solo.Batch != 1 {
		t.Fatalf("solo batch = %d, want 1", solo.Batch)
	}
	want, _ := bfs.TopDownBranchBased(e.Graph(), 3)
	for v := range want {
		if solo.Hops[v] != want[v] {
			t.Fatalf("solo: dist[%d] = %d, want %d", v, solo.Hops[v], want[v])
		}
	}
}

// TestBatcherCCCoalescesAndCaches checks the CC path: one kernel run
// per (entry, algorithm) epoch, shared labels, and independent cache
// slots per algorithm.
func TestBatcherCCCoalescesAndCaches(t *testing.T) {
	e := newTestEntry(t)
	b := NewBatcher(2, 4, -1, bagraph.ScheduleStatic)
	defer b.Close()

	labels1, comps1, _, shared1, err := b.CC(context.Background(), e, "par-hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if shared1 {
		t.Fatal("first CC query reported shared")
	}
	labels2, comps2, _, shared2, err := b.CC(context.Background(), e, "par-hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if !shared2 {
		t.Fatal("second CC query recomputed")
	}
	if &labels1[0] != &labels2[0] || comps1 != comps2 {
		t.Fatal("cached CC result not shared")
	}
	want, _ := cc.SVBranchBased(e.Graph())
	for v := range want {
		if labels1[v] != want[v] {
			t.Fatalf("labels[%d] = %d, want %d", v, labels1[v], want[v])
		}
	}
	if comps1 != cc.CountComponents(want) {
		t.Fatalf("components = %d, want %d", comps1, cc.CountComponents(want))
	}

	// A different algorithm gets its own slot (fresh computation).
	_, _, _, sharedOther, err := b.CC(context.Background(), e, "unionfind")
	if err != nil {
		t.Fatal(err)
	}
	if sharedOther {
		t.Fatal("distinct algorithm shared a cache slot")
	}

	// Concurrent identical queries coalesce onto one run.
	e2 := newTestEntry(t)
	const k = 6
	sharedCount := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, shared, err := b.CC(context.Background(), e2, "hybrid")
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if shared {
				sharedCount++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if sharedCount != k-1 {
		t.Fatalf("shared count = %d, want %d (exactly one computation)", sharedCount, k-1)
	}
}

// TestReplaceInvalidatesCCCache checks epoch-based invalidation: a
// replaced graph starts with an empty cache.
func TestReplaceInvalidatesCCCache(t *testing.T) {
	r := NewRegistry()
	e1, err := r.Add("g", gen.Path(20))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(1, 4, -1, bagraph.ScheduleStatic)
	defer b.Close()
	if _, _, _, shared, err := b.CC(context.Background(), e1, "hybrid"); err != nil || shared {
		t.Fatalf("first query: shared=%v err=%v", shared, err)
	}
	e2, err := r.Replace("g", gen.Star(20))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Epoch() != e1.Epoch()+1 {
		t.Fatalf("epoch = %d, want %d", e2.Epoch(), e1.Epoch()+1)
	}
	_, comps, _, shared, err := b.CC(context.Background(), e2, "hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("replaced graph served a stale cache")
	}
	if comps != 1 {
		t.Fatalf("star components = %d, want 1", comps)
	}

	// Over HTTP: the filler's answer is encoded fresh, every later one
	// of either shape is its epoch's cached body — and each is exactly
	// what encoding/json makes of the answer — until the epoch retires.
	r = NewRegistry()
	e1, err = r.Add("g", gen.Path(20))
	if err != nil {
		t.Fatal(err)
	}
	core := New(r, Config{Workers: 1, BatchWindow: -1, Autotune: true})
	ts := httptest.NewServer(core.Handler())
	defer func() {
		ts.Close()
		core.Close()
	}()
	post := func(algo string, labels bool) ([]byte, error) {
		body, _ := json.Marshal(ccQuery{Graph: "g", Algo: algo, Labels: labels})
		resp, err := http.Post(ts.URL+"/query/cc", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s labels=%v: status %d: %s", algo, labels, resp.StatusCode, raw)
		}
		return raw, err
	}
	query := func(algo string, labels bool) []byte {
		t.Helper()
		raw, err := post(algo, labels)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := func(e *Entry, algo string, labels, cached bool) []byte {
		t.Helper()
		lab, comps, stats, _, err := core.Batcher().CC(context.Background(), e, algo)
		if err != nil {
			t.Fatal(err)
		}
		resp := CCResponse{Graph: "g", Epoch: e.Epoch(), Algo: algo, Components: comps, Cached: cached, Stats: statsPayload(stats)}
		if labels {
			resp.Labels = lab
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var old []byte
	for i, labels := range []bool{false, true, false, true, true, false} {
		got := query("hybrid", labels)
		if w := want(e1, "hybrid", labels, i > 0); !bytes.Equal(got, w) {
			t.Fatalf("epoch 1 query %d (labels=%v):\ngot  %s\nwant %s", i, labels, got, w)
		}
		if labels {
			old = got
		}
	}
	// "auto" resolves to the tuner's pick, whose cache it shares.
	var head struct{ Algo string }
	if err := json.Unmarshal(query("auto", true), &head); err != nil || head.Algo == "" || head.Algo == "auto" {
		t.Fatalf("auto resolved to %q (%v)", head.Algo, err)
	}
	auto, named := query("auto", true), query(head.Algo, true)
	if w := want(e1, head.Algo, true, true); !bytes.Equal(auto, w) || !bytes.Equal(named, w) {
		t.Fatalf("auto and %s disagree:\nauto  %s\nnamed %s\nwant  %s", head.Algo, auto, named, w)
	}

	e2, err = r.Replace("g", graph.MustBuild(24, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	got := query("hybrid", true)
	if w := want(e2, "hybrid", true, false); !bytes.Equal(got, w) {
		t.Fatalf("epoch 2 filler:\ngot  %s\nwant %s", got, w)
	}
	// The first hits of each shape race to encode the new epoch's bodies.
	wants := map[bool][]byte{false: want(e2, "hybrid", false, true), true: want(e2, "hybrid", true, true)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		labels := i%2 == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := post("hybrid", labels)
			if err != nil || !bytes.Equal(got, wants[labels]) {
				t.Errorf("epoch 2 hit (labels=%v), err %v:\ngot  %s\nwant %s", labels, err, got, wants[labels])
			}
			if bytes.Equal(got, old) || !strings.Contains(string(got), `"epoch":2,`) {
				t.Errorf("epoch 2 hit served epoch 1's body: %s", got)
			}
		}()
	}
	wg.Wait()
}

// TestCloseWaitsForTimerDispatchedBatch: Close must not release the
// pool under a kernel the window timer dispatched — no handler waits on
// the timer's goroutine, so only the batcher can. The query's client is
// still waiting here, which keeps the par-hybrid kernel (hundreds of
// passes on a 300x300 grid) mid-run when Close starts; a pool closed
// under it would make its next pass send on a closed channel.
func TestCloseWaitsForTimerDispatchedBatch(t *testing.T) {
	reg := NewRegistry()
	e, err := reg.Add("grid", gen.Grid2D(300, 300, false))
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{Workers: 2, BatchWindow: 20 * time.Millisecond})
	type answer struct {
		res *SSSPResponse
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := s.Backend().SSSP(context.Background(), "grid", 0, "par-hybrid")
		got <- answer{res, err}
	}()

	// The batch is dispatched by its window timer once it leaves the
	// pending table.
	key := batchKey{entry: e, kind: KindSSSP, algo: "par-hybrid"}
	deadline := time.Now().Add(10 * time.Second)
	for seen := false; ; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the window timer never dispatched the batch")
		}
		n := s.Batcher().enqueuedLen(key)
		if n > 0 {
			seen = true
		} else if seen {
			break
		}
	}
	s.Close()

	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	w, err := e.Weighted()
	if err != nil {
		t.Fatal(err)
	}
	want := sssp.Dijkstra(w, 0)
	for v := range want {
		if a.res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, a.res.Dist[v], want[v])
		}
	}
}

// TestClosePendingBatch: a batch still waiting for its window at Close
// is claimed — its timer stopped, its requests answered — so Close does
// not wait out the window.
func TestClosePendingBatch(t *testing.T) {
	e := newTestEntry(t)
	b := NewBatcher(2, 8, time.Hour, bagraph.ScheduleStatic)
	key := batchKey{entry: e, kind: KindBFS, algo: "ba"}
	res := make(chan Result, 1)
	go func() { res <- b.BFS(context.Background(), e, "ba", 0) }()
	for b.enqueuedLen(key) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited for an hour-long batch window")
	}
	if r := <-res; !errors.Is(r.Err, errClosed) {
		t.Fatalf("pending request: Err = %v, want errClosed", r.Err)
	}
}
