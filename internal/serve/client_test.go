package serve_test

// ShardClient's bounded read: a 200 answer is refused — as a transport
// fault, the class the router retries elsewhere — once it is longer
// than the listed vertex count of its graph allows, whether or not the
// shard announced the length; unless a fresh listing shows the graph
// grew, in which case the answer is asked for again under the new cap.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"bagraph/internal/graph"
	"bagraph/internal/serve"
)

// servedArray is the array of the body a query answer is served as —
// a relayed answer keeps its elements there, not in the struct.
func servedArray(t *testing.T, resp interface{ Body() ([]byte, error) }) []uint64 {
	t.Helper()
	body, err := resp.Body()
	if err != nil {
		t.Fatal(err)
	}
	var arrays struct {
		Labels []uint64 `json:"labels"`
		Dist   []uint64 `json:"dist"`
	}
	if err := json.Unmarshal(body, &arrays); err != nil {
		t.Fatal(err)
	}
	return append(arrays.Labels, arrays.Dist...)
}

func TestShardClientRefusesOversizedAnswer(t *testing.T) {
	const listed = 4
	var vertices atomic.Int64 // how many elements the fake shard really sends
	var announce atomic.Bool  // with a Content-Length, or chunked
	var listings atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/graphs" {
			listings.Add(1)
			fmt.Fprintf(w, `{"graphs":[{"name":"g","vertices":%d,"edges":3}]}`+"\n", listed)
			return
		}
		n := int(vertices.Load())
		body := `{"graph":"g","epoch":1,"algo":"bb","root":0,"batch":1,"reached":1,"stats":{"passes":1},"dist":[0` +
			strings.Repeat(",4294967295", n-1) + "]}\n"
		if announce.Load() {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.Write([]byte(body))
			return
		}
		w.Write([]byte(body[:len(body)/2]))
		w.(http.Flusher).Flush()
		w.Write([]byte(body[len(body)/2:]))
	}))
	defer ts.Close()
	client := serve.NewShardClient(ts.URL, nil)
	ctx := context.Background()

	for _, withLength := range []bool{true, false} {
		announce.Store(withLength)

		// Every element at its widest still fits a graph of the listed size.
		vertices.Store(listed)
		resp, err := client.BFS(ctx, "g", 0, "bb")
		if err != nil || len(servedArray(t, resp)) != listed {
			t.Fatalf("announced=%v: full-width answer refused: %v", withLength, err)
		}

		vertices.Store(listed + 1000)
		_, err = client.BFS(ctx, "g", 0, "bb")
		var te *serve.TransportError
		if !errors.As(err, &te) || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("announced=%v: oversized answer: got %v, want a transport error naming the cap", withLength, err)
		}
	}
	// The size came from one listing, fetched on first need, plus one
	// refresh per oversized answer — which showed the graph had not grown.
	if got := listings.Load(); got != 3 {
		t.Fatalf("%d /graphs calls, want 3", got)
	}
}

// TestShardClientReadsOlderListing: a shard from before the listing
// lost its "directed" key still lists; the reader skips keys it does
// not know.
func TestShardClientReadsOlderListing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"graphs":[{"name":"g","vertices":4,"edges":3,"directed":false,"weighted":true,"epoch":2}]}`)
	}))
	defer ts.Close()
	infos, err := serve.NewShardClient(ts.URL, nil).Graphs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := serve.GraphInfo{Name: "g", Vertices: 4, Edges: 3, Weighted: true, Epoch: 2}
	if len(infos) != 1 || infos[0] != want {
		t.Fatalf("listing = %+v, want [%+v]", infos, want)
	}
}

// TestShardClientFollowsReplacedGraph: a graph replaced on the shard by
// a larger one, behind the client's back, leaves the client's listing
// stale; the next answer overruns the stale cap, and the client must
// re-list and re-ask rather than fail the query as a dead shard.
func TestShardClientFollowsReplacedGraph(t *testing.T) {
	// One edge, the rest isolated vertices: unreached hops and distances
	// are the widest elements there are, and labels are vertex ids.
	isolated := func(n int) *graph.Graph {
		return graph.MustBuild(n, []graph.Edge{{U: 0, V: 1}}, graph.Options{})
	}
	n := 500
	reg := serve.NewRegistry()
	if _, err := reg.Add("g", isolated(n)); err != nil {
		t.Fatal(err)
	}
	core := serve.New(reg, serve.Config{Workers: 1, BatchWindow: -1})
	ts := httptest.NewServer(core.Handler())
	defer func() {
		ts.Close()
		core.Close()
	}()
	client := serve.NewShardClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := client.Graphs(ctx); err != nil {
		t.Fatal(err)
	}

	// Each kind meets a stale listing: the graph grows 4x before each.
	for _, kind := range []string{"bfs", "sssp", "cc"} {
		n *= 4
		if _, err := reg.Replace("g", isolated(n)); err != nil {
			t.Fatal(err)
		}
		var got int
		var err error
		switch kind {
		case "bfs":
			var resp *serve.BFSResponse
			if resp, err = client.BFS(ctx, "g", 0, "bb"); err == nil {
				got = len(servedArray(t, resp))
			}
		case "sssp":
			var resp *serve.SSSPResponse
			if resp, err = client.SSSP(ctx, "g", 0, "dijkstra"); err == nil {
				got = len(servedArray(t, resp))
			}
		default:
			var resp *serve.CCResponse
			if resp, err = client.CC(ctx, "g", "unionfind", true); err == nil {
				got = len(servedArray(t, resp))
			}
		}
		if err != nil || got != n {
			t.Fatalf("%s after a 4x replace: %d elements, want %d; err %v", kind, got, n, err)
		}
	}
}
