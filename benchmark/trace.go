package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bagraph/internal/serve"
)

// The tracer is the benchmark's own: the program under test has no
// spans yet, so the benchmark wraps every seam the public constructors
// expose — http.Handler, serve.Backend, http.RoundTripper — and records
// a span around each call. Spans of one request share the id the client
// put in a header; the id and the parent span travel router → shard
// through the request context into the wrapped RoundTripper, which
// writes them back into the outgoing headers.

const (
	headerReq    = "X-Bench-Req"
	headerParent = "X-Bench-Parent"
)

// Span names, outermost first.
const (
	spanClient    = "client"
	spanRouter    = "router.handler"
	spanRouterBE  = "router.backend"
	spanRoundTrip = "shard.roundtrip"
	spanServer    = "server.handler"
	spanLocal     = "local.backend"
	spanAdmin     = "admin.replace"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint32
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint32 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCtx is what a span hands its callees.
type traceCtx struct {
	req    uint64
	parent uint32
	kind   string
}

type traceKey struct{}

func withTrace(ctx context.Context, tc traceCtx) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

func traceFrom(ctx context.Context) (traceCtx, bool) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	return tc, ok
}

// kindOfPath maps an API path to the query kind its spans carry.
func kindOfPath(path string) string {
	switch {
	case strings.HasPrefix(path, "/query/"):
		return strings.TrimPrefix(path, "/query/")
	case strings.HasPrefix(path, "/admin/"):
		return "replace"
	default:
		return ""
	}
}

// handlerSpans wraps an http.Handler: one span per traced request,
// child of the span named in the headers.
func (t *tracer) handlerSpans(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r) // health probes, warm-ups, scrapes
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(headerParent), 10, 32) // absent: a root span, parent 0
		s := span{Req: req, ID: t.newID(), Parent: uint32(parent), Name: name, Kind: kindOfPath(r.URL.Path), Start: t.now()}
		ctx := withTrace(r.Context(), traceCtx{req: req, parent: s.ID, kind: s.Kind})
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.record(s)
	})
}

// around records a span around fn when ctx carries a trace, and hands fn
// the context its own callees should see.
func (t *tracer) around(ctx context.Context, name string, fn func(context.Context)) {
	tc, ok := traceFrom(ctx)
	if !ok {
		fn(ctx)
		return
	}
	s := span{Req: tc.req, ID: t.newID(), Parent: tc.parent, Name: name, Kind: tc.kind, Start: t.now()}
	fn(withTrace(ctx, traceCtx{req: tc.req, parent: s.ID, kind: tc.kind}))
	s.End = t.now()
	t.record(s)
}

// tracedBackend wraps a serve.Backend, forwarding the admin mount and
// Close so the server treats it like the backend it wraps.
type tracedBackend struct {
	inner serve.Backend
	t     *tracer
	name  string
}

func (b *tracedBackend) CC(ctx context.Context, graph, algo string, labels bool) (resp *serve.CCResponse, err error) {
	b.t.around(ctx, b.name, func(ctx context.Context) { resp, err = b.inner.CC(ctx, graph, algo, labels) })
	return resp, err
}

func (b *tracedBackend) BFS(ctx context.Context, graph string, root uint32, algo string) (resp *serve.BFSResponse, err error) {
	b.t.around(ctx, b.name, func(ctx context.Context) { resp, err = b.inner.BFS(ctx, graph, root, algo) })
	return resp, err
}

func (b *tracedBackend) SSSP(ctx context.Context, graph string, root uint32, algo string) (resp *serve.SSSPResponse, err error) {
	b.t.around(ctx, b.name, func(ctx context.Context) { resp, err = b.inner.SSSP(ctx, graph, root, algo) })
	return resp, err
}

func (b *tracedBackend) Graphs(ctx context.Context) ([]serve.GraphInfo, error) {
	return b.inner.Graphs(ctx)
}

func (b *tracedBackend) Healthz(ctx context.Context) (*serve.Health, error) {
	return b.inner.Healthz(ctx)
}

// MountAdmin mounts the inner backend's admin routes behind a span, so
// the admin plane's own time (parse, publish) is a layer of its own.
func (b *tracedBackend) MountAdmin(mux *http.ServeMux) {
	ab, ok := b.inner.(serve.AdminBackend)
	if !ok {
		return
	}
	inner := http.NewServeMux()
	ab.MountAdmin(inner)
	mux.Handle("/admin/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.t.around(r.Context(), spanAdmin, func(ctx context.Context) { inner.ServeHTTP(w, r.WithContext(ctx)) })
	}))
}

func (b *tracedBackend) Close() {
	if c, ok := b.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// tracedTransport wraps the RoundTripper the router's shard clients
// share. Its span ends when the response body has been read to EOF (or
// closed), which is where ShardClient's decode begins.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (rt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tc, ok := traceFrom(r.Context())
	if !ok {
		return rt.inner.RoundTrip(r)
	}
	s := span{Req: tc.req, ID: rt.t.newID(), Parent: tc.parent, Name: spanRoundTrip, Kind: tc.kind, Start: rt.t.now()}
	out := r.Clone(r.Context())
	out.Header.Set(headerReq, strconv.FormatUint(tc.req, 10))
	out.Header.Set(headerParent, strconv.FormatUint(uint64(s.ID), 10))
	resp, err := rt.inner.RoundTrip(out)
	if err != nil {
		s.End = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// CloseIdleConnections lets fleet.Router.Close release the shard
// connections through the http.Client that holds this transport.
func (rt *tracedTransport) CloseIdleConnections() {
	if c, ok := rt.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// spanBody ends its span at the first EOF, error or Close.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) end() {
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

// requestTree is the spans of one request, indexed for attribution.
type requestTree struct {
	byName   map[string][]span
	children map[uint32][]interval
}

func groupByRequest(spans []span) map[uint64]*requestTree {
	trees := make(map[uint64]*requestTree)
	for _, s := range spans {
		t := trees[s.Req]
		if t == nil {
			t = &requestTree{byName: make(map[string][]span), children: make(map[uint32][]interval)}
			trees[s.Req] = t
		}
		t.byName[s.Name] = append(t.byName[s.Name], s)
		t.children[s.Parent] = append(t.children[s.Parent], interval{s.Start, s.End})
	}
	return trees
}

// only returns the single span of that name, if there is exactly one.
func (t *requestTree) only(name string) (span, bool) {
	if ss := t.byName[name]; len(ss) == 1 {
		return ss[0], true
	}
	return span{}, false
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// selfMs is the span's duration minus the part its children cover.
func (t *requestTree) selfMs(s span) float64 {
	return float64(selfTime(s.Start, s.End, t.children[s.ID])) / 1e6
}
