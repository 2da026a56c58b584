package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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

// handlerTransport answers the router's shard calls from a shard's
// handler in the same process, streaming its body through a pipe. A
// measured query then pays for the router and the shard, not for the
// buffers of an HTTP connection that net/http pools — and, with a
// collection before every query, would make afresh each time.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	w := &pipeWriter{header: make(http.Header), pw: pw, sent: make(chan int, 1)}
	go func() {
		t.h.ServeHTTP(w, req)
		w.WriteHeader(http.StatusOK) // a no-op once the handler wrote one
		pw.Close()
	}()
	code := <-w.sent
	length := int64(-1)
	if cl := w.header.Get("Content-Length"); cl != "" {
		length, _ = strconv.ParseInt(cl, 10, 64) // the shard's own handler set it
	}
	return &http.Response{StatusCode: code, Header: w.header, Body: pr, ContentLength: length, Request: req}, nil
}

// pipeWriter is the shard side of a handlerTransport call.
type pipeWriter struct {
	header http.Header
	pw     *io.PipeWriter
	sent   chan int // the status, once
	once   bool
}

func (w *pipeWriter) Header() http.Header { return w.header }

func (w *pipeWriter) WriteHeader(code int) {
	if !w.once {
		w.once = true
		w.sent <- code
	}
}

func (w *pipeWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

// TestRoutedQueriesAllocateLittle: once a router-fronted handler has
// relayed a query of each kind, a BFS, SSSP or labelled CC query through
// it allocates less than one 4·|V| array — router and shard together,
// with a garbage collection before every query. The shard's answer is
// read into a relay buffer the shard client keeps on a plain free list,
// which a collection does not empty the way it empties a sync.Pool,
// verified without decoding its array, and written from that buffer.
func TestRoutedQueriesAllocateLittle(t *testing.T) {
	g := testutil.RandomWeighted(20000, 80000, 40, 23)
	n := g.NumVertices()
	reg := serve.NewRegistry()
	if _, err := reg.AddWeighted("w", g); err != nil {
		t.Fatal(err)
	}
	shard := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1})
	t.Cleanup(shard.Close)
	r, err := New(Config{
		Shards:         []string{"shard"},
		HealthInterval: time.Hour,
		Logf:           t.Logf,
		Client:         &http.Client{Transport: handlerTransport{shard.Handler()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Close)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if h, _ := r.Healthz(context.Background()); h.Shards == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the shard never joined")
		}
	}
	h := serve.NewWithBackend(r, serve.Config{}).Handler()

	type query struct{ path, body string }
	var queries []query
	for _, root := range []int{0, 7, 12345} {
		queries = append(queries,
			query{"/query/bfs", fmt.Sprintf(`{"graph":"w","root":%d,"algo":"par-do"}`, root)},
			query{"/query/sssp", fmt.Sprintf(`{"graph":"w","root":%d,"algo":"par-hybrid"}`, root)},
			query{"/query/cc", `{"graph":"w","labels":true}`})
	}
	serveOne := func(q query) (uint64, *discardWriter) {
		req, err := http.NewRequest(http.MethodPost, q.path, strings.NewReader(q.body))
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{header: make(http.Header)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, w
	}
	for _, q := range queries {
		if _, w := serveOne(q); w.code != http.StatusOK {
			t.Fatalf("warm-up %s %s: status %d", q.path, q.body, w.code)
		}
	}
	limit := uint64(4 * n)
	for _, q := range queries {
		runtime.GC()
		bytes, w := serveOne(q)
		if w.code != http.StatusOK || w.n < n {
			t.Fatalf("%s %s: status %d, %d body bytes", q.path, q.body, w.code, w.n)
		}
		if bytes >= limit {
			t.Errorf("%s %s: a warm routed query allocated %d bytes, a 4·|V| array is %d", q.path, q.body, bytes, limit)
		}
	}
}
