package serve_test

// Black-box equivalence: every query answered over HTTP must carry
// exactly the arrays a direct facade call produces — the daemon is a
// transport, not a different algorithm.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bagraph"
	"bagraph/internal/serve"
)

// newTestServer publishes one small disconnected graph and returns the
// HTTP test harness around the daemon core.
func newTestServer(t testing.TB) (*httptest.Server, *bagraph.Graph) {
	t.Helper()
	g, err := bagraph.CorpusGraph("cond-mat-2005", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Add("cm", g); err != nil {
		t.Fatal(err)
	}
	core := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1})
	ts := httptest.NewServer(core.Handler())
	t.Cleanup(func() {
		ts.Close()
		core.Close()
	})
	return ts, g
}

// post sends a JSON query and decodes a JSON response of type R.
func post[R any](t *testing.T, url string, body any) (int, R) {
	t.Helper()
	var r R
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, r
}

// statsResp mirrors the response's per-query kernel stats object.
type statsResp struct {
	Passes         int    `json:"passes"`
	LabelStores    uint64 `json:"label_stores"`
	DistStores     uint64 `json:"dist_stores"`
	QueueStores    uint64 `json:"queue_stores"`
	CandStores     uint64 `json:"cand_stores"`
	TopDownLevels  int    `json:"top_down_levels"`
	BottomUpLevels int    `json:"bottom_up_levels"`
	Buckets        int    `json:"buckets"`
	Chunks         int    `json:"chunks"`
	Steals         uint64 `json:"steals"`
	StealPasses    uint64 `json:"steal_passes"`
	WordsScanned   uint64 `json:"words_scanned"`
	LightRelaxed   uint64 `json:"light_relaxed"`
}

type ccResp struct {
	Graph      string    `json:"graph"`
	Epoch      uint64    `json:"epoch"`
	Algo       string    `json:"algo"`
	Components int       `json:"components"`
	Cached     bool      `json:"cached"`
	Stats      statsResp `json:"stats"`
	Labels     []uint32  `json:"labels"`
}

type travResp struct {
	Graph   string    `json:"graph"`
	Algo    string    `json:"algo"`
	Root    uint32    `json:"root"`
	Batch   int       `json:"batch"`
	Reached int       `json:"reached"`
	Stats   statsResp `json:"stats"`
	Dist    []uint32  `json:"dist"`
}

type ssspResp struct {
	Dist    []uint64  `json:"dist"`
	Reached int       `json:"reached"`
	Sum     uint64    `json:"sum"`
	Batch   int       `json:"batch"`
	Stats   statsResp `json:"stats"`
}

type errResp struct {
	Error string `json:"error"`
}

func TestServerCCMatchesFacade(t *testing.T) {
	ts, g := newTestServer(t)
	facade := map[string]bagraph.CCAlgorithm{
		"sv-bb":     bagraph.CCBranchBased,
		"sv-ba":     bagraph.CCBranchAvoiding,
		"hybrid":    bagraph.CCHybrid,
		"unionfind": bagraph.CCUnionFind,
	}
	for algo, alg := range facade {
		code, got := post[ccResp](t, ts.URL+"/query/cc",
			map[string]any{"graph": "cm", "algo": algo, "labels": true})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", algo, code)
		}
		res, err := bagraph.Run(context.Background(), g, bagraph.Request{Kind: bagraph.KindCC, CC: alg})
		if err != nil {
			t.Fatal(err)
		}
		want := res.Labels
		if !equalU32(got.Labels, want) {
			t.Fatalf("%s: labels differ from facade", algo)
		}
		if got.Components != bagraph.ComponentCount(want) {
			t.Fatalf("%s: components = %d, want %d", algo, got.Components, bagraph.ComponentCount(want))
		}
	}
	// Parallel forms against the parallel facade.
	parallel := map[string]bagraph.CCAlgorithm{
		"par-bb":     bagraph.CCBranchBased,
		"par-ba":     bagraph.CCBranchAvoiding,
		"par-hybrid": bagraph.CCHybrid,
	}
	for algo, alg := range parallel {
		_, got := post[ccResp](t, ts.URL+"/query/cc",
			map[string]any{"graph": "cm", "algo": algo, "labels": true})
		res, err := bagraph.Run(context.Background(), g, bagraph.Request{
			Kind: bagraph.KindCC, CC: alg, Parallel: true, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !equalU32(got.Labels, res.Labels) {
			t.Fatalf("%s: labels differ from parallel facade", algo)
		}
	}
	// Second identical query is served from the epoch cache.
	_, again := post[ccResp](t, ts.URL+"/query/cc",
		map[string]any{"graph": "cm", "algo": "hybrid"})
	if !again.Cached {
		t.Fatal("repeat CC query was not cached")
	}
	if len(again.Labels) != 0 {
		t.Fatal("labels sent without being requested")
	}
	if again.Stats.Passes == 0 || again.Stats.LabelStores == 0 {
		t.Fatalf("cached CC response carries no fill stats: %+v", again.Stats)
	}
}

// TestServerQueryStats: every query family surfaces the kernel's
// counters in a "stats" object, including the scheduler's chunk/steal
// accounting for parallel algos — per-query observability without a
// daemon-side aggregator.
func TestServerQueryStats(t *testing.T) {
	ts, _ := newTestServer(t)
	_, bfsRes := post[travResp](t, ts.URL+"/query/bfs",
		map[string]any{"graph": "cm", "root": 0, "algo": "dir-opt"})
	if bfsRes.Stats.Passes == 0 || bfsRes.Stats.DistStores == 0 {
		t.Fatalf("BFS stats empty: %+v", bfsRes.Stats)
	}
	if bfsRes.Stats.TopDownLevels+bfsRes.Stats.BottomUpLevels != bfsRes.Stats.Passes {
		t.Fatalf("BFS level split inconsistent: %+v", bfsRes.Stats)
	}
	_, parRes := post[travResp](t, ts.URL+"/query/bfs",
		map[string]any{"graph": "cm", "root": 0, "algo": "par-do"})
	if parRes.Stats.Chunks == 0 {
		t.Fatalf("parallel BFS reported no scheduler chunks: %+v", parRes.Stats)
	}
	_, ssspRes := post[ssspResp](t, ts.URL+"/query/sssp",
		map[string]any{"graph": "cm", "root": 0, "algo": "par-hybrid"})
	if ssspRes.Stats.Passes == 0 || ssspRes.Stats.Buckets == 0 {
		t.Fatalf("SSSP stats empty: %+v", ssspRes.Stats)
	}
	if ssspRes.Stats.LightRelaxed == 0 {
		t.Fatalf("SSSP reported no relaxations: %+v", ssspRes.Stats)
	}
}

// TestServerQueryTimeout: an expired per-query deadline maps to 504 on
// every query endpoint (the negative timeout expires the context
// before the kernel starts, making the status deterministic), and a
// generous deadline changes nothing.
func TestServerQueryTimeout(t *testing.T) {
	g, err := bagraph.CorpusGraph("cond-mat-2005", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Add("cm", g); err != nil {
		t.Fatal(err)
	}
	expired := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1, QueryTimeout: -time.Nanosecond})
	tsExpired := httptest.NewServer(expired.Handler())
	defer func() {
		tsExpired.Close()
		expired.Close()
	}()
	for _, q := range []struct {
		path string
		body map[string]any
	}{
		{"/query/cc", map[string]any{"graph": "cm", "algo": "hybrid"}},
		{"/query/bfs", map[string]any{"graph": "cm", "root": 0, "algo": "dir-opt"}},
		{"/query/sssp", map[string]any{"graph": "cm", "root": 0, "algo": "par-hybrid"}},
	} {
		code, e := post[errResp](t, tsExpired.URL+q.path, q.body)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d (%s), want 504", q.path, code, e.Error)
		}
		if e.Error == "" {
			t.Fatalf("%s: no error body on timeout", q.path)
		}
	}

	roomy := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1, QueryTimeout: time.Minute})
	tsRoomy := httptest.NewServer(roomy.Handler())
	defer func() {
		tsRoomy.Close()
		roomy.Close()
	}()
	code, res := post[travResp](t, tsRoomy.URL+"/query/bfs",
		map[string]any{"graph": "cm", "root": 0, "algo": "dir-opt"})
	if code != http.StatusOK || res.Reached == 0 {
		t.Fatalf("roomy deadline: status %d reached %d", code, res.Reached)
	}
}

func TestServerBFSMatchesFacade(t *testing.T) {
	ts, g := newTestServer(t)
	hops := func(req bagraph.Request) func() ([]uint32, error) {
		return func() ([]uint32, error) {
			res, err := bagraph.Run(context.Background(), g, req)
			if err != nil {
				return nil, err
			}
			if req.Kind == bagraph.KindBFSBatch {
				return res.HopsBatch[0], nil
			}
			return res.Hops, nil
		}
	}
	variants := map[string]func() ([]uint32, error){
		"bb":      hops(bagraph.Request{Kind: bagraph.KindBFS, BFS: bagraph.BFSBranchBased, Root: 3}),
		"ba":      hops(bagraph.Request{Kind: bagraph.KindBFS, BFS: bagraph.BFSBranchAvoiding, Root: 3}),
		"dir-opt": hops(bagraph.Request{Kind: bagraph.KindBFS, BFS: bagraph.BFSDirectionOptimizing, Root: 3}),
		"par-do":  hops(bagraph.Request{Kind: bagraph.KindBFS, Parallel: true, Root: 3, Workers: 2}),
		"ms":      hops(bagraph.Request{Kind: bagraph.KindBFSBatch, Roots: []uint32{3}, Workers: 2}),
	}
	for algo, oracle := range variants {
		code, got := post[travResp](t, ts.URL+"/query/bfs",
			map[string]any{"graph": "cm", "root": 3, "algo": algo})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", algo, code)
		}
		want, err := oracle()
		if err != nil {
			t.Fatal(err)
		}
		if !equalU32(got.Dist, want) {
			t.Fatalf("%s: distances differ from facade", algo)
		}
		reached := 0
		for _, d := range want {
			if d != bagraph.Unreached {
				reached++
			}
		}
		if got.Reached != reached {
			t.Fatalf("%s: reached = %d, want %d", algo, got.Reached, reached)
		}
	}
}

func TestServerSSSPMatchesFacade(t *testing.T) {
	ts, g := newTestServer(t)
	w, err := bagraph.AttachWeights(g, func(u, v uint32) uint32 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	paths := func(req bagraph.Request) func() ([]uint64, error) {
		return func() ([]uint64, error) {
			res, err := bagraph.Run(context.Background(), w, req)
			if err != nil {
				return nil, err
			}
			return res.Dists, nil
		}
	}
	facade := map[string]func() ([]uint64, error){
		"bb":         paths(bagraph.Request{Kind: bagraph.KindSSSP, SSSP: bagraph.SSSPBellmanFord, Root: 7}),
		"ba":         paths(bagraph.Request{Kind: bagraph.KindSSSP, SSSP: bagraph.SSSPBellmanFordBranchAvoiding, Root: 7}),
		"dijkstra":   paths(bagraph.Request{Kind: bagraph.KindSSSP, SSSP: bagraph.SSSPDijkstra, Root: 7}),
		"par-bb":     paths(bagraph.Request{Kind: bagraph.KindSSSP, SSSP: bagraph.SSSPBellmanFord, Parallel: true, Root: 7, Workers: 2}),
		"par-ba":     paths(bagraph.Request{Kind: bagraph.KindSSSP, SSSP: bagraph.SSSPBellmanFordBranchAvoiding, Parallel: true, Root: 7, Workers: 2}),
		"par-hybrid": paths(bagraph.Request{Kind: bagraph.KindSSSP, SSSP: bagraph.SSSPHybrid, Parallel: true, Root: 7, Workers: 2}),
	}
	for algo, oracle := range facade {
		code, got := post[ssspResp](t, ts.URL+"/query/sssp",
			map[string]any{"graph": "cm", "root": 7, "algo": algo})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", algo, code)
		}
		want, err := oracle()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Dist) != len(want) {
			t.Fatalf("%s: length %d, want %d", algo, len(got.Dist), len(want))
		}
		var sum uint64
		for v := range want {
			if got.Dist[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", algo, v, got.Dist[v], want[v])
			}
			if want[v] != bagraph.InfDistance {
				sum += want[v]
			}
		}
		if got.Sum != sum {
			t.Fatalf("%s: sum = %d, want %d", algo, got.Sum, sum)
		}
	}
}

func TestServerMetaEndpoints(t *testing.T) {
	ts, g := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Graphs  int    `json:"graphs"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Graphs != 1 || health.Workers != 2 {
		t.Fatalf("health = %+v", health)
	}

	resp2, err := http.Get(ts.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var listing struct {
		Graphs []struct {
			Name     string `json:"name"`
			Vertices int    `json:"vertices"`
			Edges    int64  `json:"edges"`
			Epoch    uint64 `json:"epoch"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 1 {
		t.Fatalf("graphs = %+v", listing.Graphs)
	}
	row := listing.Graphs[0]
	if row.Name != "cm" || row.Vertices != g.NumVertices() || row.Edges != g.NumEdges() || row.Epoch != 1 {
		t.Fatalf("graph row = %+v", row)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		url  string
		body any
		code int
	}{
		{"unknown graph", "/query/cc", map[string]any{"graph": "nope"}, http.StatusNotFound},
		{"missing graph", "/query/cc", map[string]any{}, http.StatusBadRequest},
		{"unknown cc algo", "/query/cc", map[string]any{"graph": "cm", "algo": "quantum"}, http.StatusBadRequest},
		{"unknown bfs algo", "/query/bfs", map[string]any{"graph": "cm", "algo": "quantum"}, http.StatusBadRequest},
		{"unknown sssp algo", "/query/sssp", map[string]any{"graph": "cm", "algo": "quantum"}, http.StatusBadRequest},
		{"root out of range", "/query/bfs", map[string]any{"graph": "cm", "root": 1 << 30}, http.StatusBadRequest},
		{"sssp root out of range", "/query/sssp", map[string]any{"graph": "cm", "root": 1 << 30}, http.StatusBadRequest},
		{"unknown field", "/query/bfs", map[string]any{"graph": "cm", "seed": 3}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := post[errResp](t, ts.URL+tc.url, tc.body)
		if code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.code)
		}
		if body.Error == "" {
			t.Fatalf("%s: empty error body", tc.name)
		}
	}
	// Method and body-shape errors.
	resp, err := http.Get(ts.URL + "/query/cc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on query endpoint: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/query/cc", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: %d", resp.StatusCode)
	}
}

// TestServerBodyTooLarge: a body over the configured cap answers 413
// naming the limit, not a generic 400 — and a body exactly at the cap
// still parses. Regression: http.MaxBytesReader's error used to fall
// through the generic bad-body branch.
func TestServerBodyTooLarge(t *testing.T) {
	g, err := bagraph.CorpusGraph("cond-mat-2005", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Add("cm", g); err != nil {
		t.Fatal(err)
	}
	const cap = 64
	core := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1, MaxBodyBytes: cap})
	ts := httptest.NewServer(core.Handler())
	defer func() {
		ts.Close()
		core.Close()
	}()

	// Pad a valid query with trailing spaces (whitespace is legal JSON
	// filler) to hit the cap exactly, then overshoot by one byte.
	query := []byte(`{"graph":"cm"}`)
	atCap := append(query, bytes.Repeat([]byte(" "), cap-len(query))...)
	overCap := append(query, bytes.Repeat([]byte(" "), cap-len(query)+1)...)

	resp, err := http.Post(ts.URL+"/query/cc", "application/json", bytes.NewReader(atCap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body at the %d-byte cap: status %d, want 200", cap, resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/query/cc", "application/json", bytes.NewReader(overCap))
	if err != nil {
		t.Fatal(err)
	}
	var e errResp
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: status %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "64-byte limit") {
		t.Fatalf("413 body does not name the limit: %q", e.Error)
	}
}

// TestServerTrailingGarbage: bytes after the first JSON value reject
// with 400 instead of silently half-parsing a concatenated payload.
func TestServerTrailingGarbage(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"graph":"cm"}{"graph":"cm"}`,
		`{"graph":"cm"} trailing`,
		`{"graph":"cm"}]`,
	} {
		resp, err := http.Post(ts.URL+"/query/cc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errResp
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(e.Error, "trailing data") {
			t.Fatalf("body %q: error %q does not mention trailing data", body, e.Error)
		}
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzQuery throws arbitrary bodies at the three query routes of a
// daemon over a small weighted graph. Every answer is either a 200
// whose body the strict shard reader accepts and which names the
// queried graph, or a 4xx carrying a JSON error; no body may produce a
// 5xx or a panic.
func FuzzQuery(f *testing.F) {
	const maxBody = 256
	g, err := bagraph.NewWeightedGraph(8, []bagraph.WeightedEdge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 7}, {U: 3, V: 4, W: 2}, {U: 5, V: 6, W: 9},
	})
	if err != nil {
		f.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.AddWeighted("w", g); err != nil {
		f.Fatal(err)
	}
	core := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1, MaxBodyBytes: maxBody})
	f.Cleanup(core.Close)
	kinds := []string{"cc", "bfs", "sssp"}

	for k := range kinds {
		for _, body := range []string{
			`{"graph":"w"}`,
			`{"graph":"w","root":3}`,
			`{"graph":"w","algo":"par-hybrid","labels":true}`,
			`{"graph":"w","root":2,"algo":"ba"}`,
			`{"graph":"w","root":7}`,
			`{"graph":"nope"}`,
			`{"graph":"w","algo":"auto"}`,
			`{"graph":"w","algo":"zzz"}`,
			`{"graph":"w","bogus":1}`,
			`{"graph":"w"} {}`,
			`{"graph":"w"}x`,
			`{"graph":"w","root":8}`,
			`{"graph":"w","root":4294967295}`,
			`{"graph":"w","root":4294967296}`,
			`{"graph":"w","root":1e400}`,
			`{"graph":"w","root":-1}`,
			`{"graph":"w","labels":99999999999999999999}`,
			`null`,
			``,
			`{"graph":"w"}` + strings.Repeat(" ", maxBody),
		} {
			f.Add(uint8(k), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		name := kinds[int(kind)%len(kinds)]
		req := httptest.NewRequest(http.MethodPost, "/query/"+name, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		core.Handler().ServeHTTP(rec, req)
		out := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			ans, err := serve.DecodeAnswer(name, out)
			if err != nil {
				t.Fatalf("%s %q: 200 body the strict reader refuses (%v): %q", name, body, err, out)
			}
			var graph string
			switch a := ans.(type) {
			case *serve.CCResponse:
				graph = a.Graph
			case *serve.BFSResponse:
				graph = a.Graph
			case *serve.SSSPResponse:
				graph = a.Graph
			}
			if graph != "w" {
				t.Fatalf("%s %q: answer names graph %q, want %q", name, body, graph, "w")
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s %q: status %d, want 200 or 4xx; body %q", name, body, rec.Code, out)
		}
		var e errResp
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Fatalf("%s %q: %d body is not a JSON error (%v): %q", name, body, rec.Code, err, out)
		}
	})
}
