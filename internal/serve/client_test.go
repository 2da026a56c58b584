package serve_test

// ShardClient's bounded read: a 200 answer is refused — as a transport
// fault, the class the router retries elsewhere — once it is longer
// than the listed vertex count of its graph allows, whether or not the
// shard announced the length.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"bagraph/internal/serve"
)

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
		if err != nil || len(resp.Dist) != listed {
			t.Fatalf("announced=%v: full-width answer refused: %v", withLength, err)
		}

		vertices.Store(listed + 1000)
		_, err = client.BFS(ctx, "g", 0, "bb")
		var te *serve.TransportError
		if !errors.As(err, &te) || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("announced=%v: oversized answer: got %v, want a transport error naming the cap", withLength, err)
		}
	}
	// The size came from one listing, fetched on first need.
	if got := listings.Load(); got != 1 {
		t.Fatalf("%d /graphs calls, want 1", got)
	}
}
