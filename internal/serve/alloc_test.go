package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"bagraph/internal/serve"
	"bagraph/internal/testutil"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a measured query allocates nothing on the client side.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestWarmQueriesAllocateLittle: once the batcher's workspace has
// served a query of each kind, a BFS or SSSP query through the HTTP
// handler — engine or sequential kernel — allocates less than one
// distance array, with a garbage collection before every query. The
// answer arrays, the kernels' scratch and the encoded answer body live
// in a workspace the batcher keeps on a plain free list, which a
// collection does not empty the way it empties a sync.Pool.
func TestWarmQueriesAllocateLittle(t *testing.T) {
	g := testutil.RandomWeighted(20000, 80000, 40, 23)
	n := g.NumVertices()
	reg := serve.NewRegistry()
	if _, err := reg.AddWeighted("w", g); err != nil {
		t.Fatal(err)
	}
	core := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1})
	t.Cleanup(core.Close)
	h := core.Handler()

	queries := []struct {
		path, algo string
		distBytes  int // one distance array of the query's kind
	}{
		{"/query/bfs", "par-do", 4 * n},
		{"/query/bfs", "bb", 4 * n},
		{"/query/sssp", "par-hybrid", 8 * n},
		{"/query/sssp", "dijkstra", 8 * n},
	}
	roots := []int{0, 7, 12345}
	serveOne := func(path, algo string, root int) (uint64, *discardWriter) {
		body := fmt.Sprintf(`{"graph":"w","root":%d,"algo":%q}`, root, algo)
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := &discardWriter{header: make(http.Header)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, w
	}
	for _, q := range queries {
		for _, root := range roots {
			if _, w := serveOne(q.path, q.algo, root); w.code != http.StatusOK {
				t.Fatalf("warm-up %s root %d: status %d", q.path, root, w.code)
			}
		}
	}
	for _, q := range queries {
		for _, root := range roots {
			runtime.GC()
			bytes, w := serveOne(q.path, q.algo, root)
			if w.code != http.StatusOK || w.n == 0 {
				t.Fatalf("%s root %d: status %d, %d body bytes", q.path, root, w.code, w.n)
			}
			if bytes >= uint64(q.distBytes) {
				t.Errorf("%s %s root %d: a warm query allocated %d bytes, a distance array is %d", q.path, q.algo, root, bytes, q.distBytes)
			}
		}
	}
}
