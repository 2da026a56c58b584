package serve

// ShardClient is the remote Backend: it speaks the daemon's own
// HTTP+JSON API against one shard process. A 200 query answer is read
// whole into a relay buffer the client reuses by capacity, verified
// element by element by the strict reader in wire.go — which decodes
// the head fields and keeps no element of the array — and relayed: the
// router's server forwards the shard's bytes instead of encoding them a
// second time, and nothing is passed on before the last byte has been
// verified. The handler that writes the answer gives the buffer back.
// Failures split into two families the fleet router routes on: an
// application answer from a live shard (any non-200 status, surfaced as
// *Error so the router passes it through) versus a transport failure
// (the shard is unreachable, died mid-response, or sent a body that
// does not verify — the router retries the query on a replica). The
// caller's context errors pass through unwrapped, so a cancelled client
// still maps to 499 and a fired deadline to 504, exactly as with the
// in-process backend.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
)

// ShardClient implements Backend over one shard's HTTP API.
type ShardClient struct {
	base string
	hc   *http.Client

	mu       sync.Mutex
	vertices map[string]int // graph sizes, from the last listing and Replace answers
	relays   []*relayBuf    // free relay buffers, at most GOMAXPROCS
}

// relayBuf is a buffer a ShardClient reads query answers into. It is
// lent to the answer whose body it holds until the handler writing that
// answer releases it, then read into again. The free list is a plain
// slice, not a sync.Pool, for the reason the batcher's workspace list
// is: a garbage collection would empty a pool. It holds at most
// GOMAXPROCS buffers, each grown to the largest answer it has held; one
// released beyond that, or never released (a losing hedge leg, an
// in-process caller's answer), goes to the GC.
type relayBuf struct {
	b []byte
	c *ShardClient
}

// takeRelay takes a buffer off the free list, or makes an empty one.
func (c *ShardClient) takeRelay() *relayBuf {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.relays)
	if n == 0 {
		return &relayBuf{c: c}
	}
	rb := c.relays[n-1]
	c.relays = c.relays[:n-1]
	return rb
}

// release returns the buffer to its client's free list; nil is a
// no-op. The answer it was lent to must not be read afterwards.
func (rb *relayBuf) release() {
	if rb == nil {
		return
	}
	c := rb.c
	c.mu.Lock()
	if len(c.relays) < runtime.GOMAXPROCS(0) {
		c.relays = append(c.relays, rb)
	}
	c.mu.Unlock()
}

// NewShardClient builds a client for a shard at addr (host:port, or a
// full http:// base URL). hc nil means a dedicated client with
// keep-alives and no overall timeout (per-query contexts bound each
// call).
func NewShardClient(addr string, hc *http.Client) *ShardClient {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if hc == nil {
		hc = &http.Client{}
	}
	return &ShardClient{base: strings.TrimSuffix(addr, "/"), hc: hc, vertices: map[string]int{}}
}

// Addr returns the shard's base URL.
func (c *ShardClient) Addr() string { return c.base }

// TransportError marks a failure to reach the shard at all (dial,
// reset, mid-body disconnect) or to get a body that verifies: the
// query never got an answer and is safe to retry on a replica.
// Application answers — any non-200 HTTP status — are *Error instead.
type TransportError struct {
	Shard string
	Err   error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("shard %s unreachable: %v", e.Shard, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// controlBodyCap bounds the bodies of the small-answer calls (/graphs,
// /healthz, /admin/replace), which no graph sizes.
const controlBodyCap = 8 << 20

// do sends one API call (POST with a JSON body, or GET with a nil one)
// and reads the whole answer into dst, reused by capacity, refusing one
// longer than limit bytes. A 200 returns the body; any other status
// returns the *Error it carries. Failing to get or finish an answer is
// a *TransportError, unless the caller's own context ended: that is not
// a shard fault and surfaces unwrapped, so it maps to 499/504 like an
// in-process query.
func (c *ShardClient) do(ctx context.Context, method, path string, body any, limit int64, dst []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, c.failed(ctx, err)
	}
	raw, err := readBody(resp, limit, dst)
	if err != nil {
		return nil, c.failed(ctx, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.Unmarshal(raw, &e) != nil || e.Error == "" {
			e.Error = fmt.Sprintf("shard %s: %s", c.base, strings.TrimSpace(string(raw)))
		}
		return nil, &Error{Status: resp.StatusCode, Message: e.Error, RetryAfter: e.RetryAfter}
	}
	return raw, nil
}

// failed classifies a call that got no complete answer.
func (c *ShardClient) failed(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return &TransportError{Shard: c.base, Err: err}
}

// overCapError is readBody's refusal of a body longer than its cap.
type overCapError struct {
	length, limit int64 // length < 0: not announced
}

func (e *overCapError) Error() string {
	if e.length < 0 {
		return fmt.Sprintf("response body exceeds the %d-byte cap", e.limit)
	}
	return fmt.Sprintf("response body of %d bytes exceeds the %d-byte cap", e.length, e.limit)
}

// readBody reads and closes the response body into dst, reused by
// capacity and sized from the Content-Length when the shard sent one.
func readBody(resp *http.Response, limit int64, dst []byte) ([]byte, error) {
	defer resp.Body.Close()
	if resp.ContentLength > limit {
		return nil, &overCapError{resp.ContentLength, limit}
	}
	buf := bytes.NewBuffer(dst[:0])
	if resp.ContentLength > 0 {
		// MinRead of slack lets ReadFrom see EOF without growing.
		buf.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, &overCapError{-1, limit}
	}
	return buf.Bytes(), nil
}

// badBody is the transport fault for a 200 whose body does not verify:
// the shard did not deliver an answer, whatever it meant to send.
func (c *ShardClient) badBody(err error) error {
	return &TransportError{Shard: c.base, Err: fmt.Errorf("bad response body: %w", err)}
}

// roundTrip makes one small-answer call and decodes its JSON into out.
func (c *ShardClient) roundTrip(ctx context.Context, method, path string, body, out any) error {
	raw, err := c.do(ctx, method, path, body, controlBodyCap, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return c.badBody(err)
	}
	return nil
}

// vertexCount is the graph's size in the shard's last listing. A graph
// the listing lacks (none was fetched yet, or the shard loaded the
// graph since) costs one /graphs call, as does a refresh; one the shard
// does not hold counts zero vertices, and its 404 fits in the head room
// alone.
func (c *ShardClient) vertexCount(ctx context.Context, graph string, refresh bool) (int, error) {
	c.mu.Lock()
	n, ok := c.vertices[graph]
	c.mu.Unlock()
	if ok && !refresh {
		return n, nil
	}
	if _, err := c.Graphs(ctx); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vertices[graph], nil
}

// query makes one /query call for v, a response struct whose array
// holds elements of type T under key, and relays the verified body on
// v's served. The body is read whole into a relay buffer — never longer
// than the graph's vertex count allows — and verified before anything
// is returned: a truncated, corrupted, oversized or merely unfamiliar
// body is a transport fault the router retries elsewhere, never a
// partly trusted answer. An oversized body may only mean the listing is
// stale — the graph was replaced by a larger one since — so the listing
// is refreshed once, and the query asked again if the graph grew.
func query[T uint32 | uint64](ctx context.Context, c *ShardClient, path, graph string, req any, key string, v any, s *served) error {
	n, err := c.vertexCount(ctx, graph, false)
	if err != nil {
		return err
	}
	rb := c.takeRelay()
	raw, err := c.do(ctx, http.MethodPost, path, req, answerCap(graph, n, uint64(^T(0))), rb.b)
	var over *overCapError
	if errors.As(err, &over) {
		if m, lerr := c.vertexCount(ctx, graph, true); lerr == nil && m > n {
			raw, err = c.do(ctx, http.MethodPost, path, req, answerCap(graph, m, uint64(^T(0))), rb.b)
		}
	}
	if err == nil {
		rb.b = raw
		if err = decodeAnswer[T](raw, key, headRoom(graph), v, nil); err != nil {
			err = c.badBody(err)
		}
	}
	if err != nil {
		rb.release()
		return err
	}
	s.wire, s.relay = raw, rb
	return nil
}

// CC implements Backend by forwarding to the shard's /query/cc.
func (c *ShardClient) CC(ctx context.Context, graph, algo string, labels bool) (*CCResponse, error) {
	out := new(CCResponse)
	err := query[uint32](ctx, c, "/query/cc", graph,
		ccQuery{Graph: graph, Algo: algo, Labels: labels}, "labels", out, &out.served)
	if err != nil {
		return nil, err
	}
	out.Labels = nil // the head's empty array: the elements stay in the body
	return out, nil
}

// BFS implements Backend by forwarding to the shard's /query/bfs.
func (c *ShardClient) BFS(ctx context.Context, graph string, root uint32, algo string) (*BFSResponse, error) {
	out := new(BFSResponse)
	err := query[uint32](ctx, c, "/query/bfs", graph,
		traversalQuery{Graph: graph, Root: root, Algo: algo}, "dist", out, &out.served)
	if err != nil {
		return nil, err
	}
	out.Dist = nil // the head's empty array: the elements stay in the body
	return out, nil
}

// SSSP implements Backend by forwarding to the shard's /query/sssp.
func (c *ShardClient) SSSP(ctx context.Context, graph string, root uint32, algo string) (*SSSPResponse, error) {
	out := new(SSSPResponse)
	err := query[uint64](ctx, c, "/query/sssp", graph,
		traversalQuery{Graph: graph, Root: root, Algo: algo}, "dist", out, &out.served)
	if err != nil {
		return nil, err
	}
	out.Dist = nil // the head's empty array: the elements stay in the body
	return out, nil
}

// Graphs implements Backend by forwarding to the shard's /graphs. The
// listing's vertex counts become the sizes query answers are capped by.
func (c *ShardClient) Graphs(ctx context.Context) ([]GraphInfo, error) {
	var out struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if err := c.roundTrip(ctx, http.MethodGet, "/graphs", nil, &out); err != nil {
		return nil, err
	}
	vertices := make(map[string]int, len(out.Graphs))
	for _, g := range out.Graphs {
		vertices[g.Name] = g.Vertices
	}
	c.mu.Lock()
	c.vertices = vertices
	c.mu.Unlock()
	return out.Graphs, nil
}

// Healthz implements Backend by probing the shard's /healthz.
func (c *ShardClient) Healthz(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.roundTrip(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Replace drives the shard's admin rollout endpoint: swap the named
// graph for a fresh load of the METIS file at path (a path on the
// SHARD's filesystem).
func (c *ShardClient) Replace(ctx context.Context, graph, path string) (*ReplaceResponse, error) {
	var out ReplaceResponse
	err := c.roundTrip(ctx, http.MethodPost, "/admin/replace",
		replaceRequest{Graph: graph, Path: path}, &out)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.vertices[graph] = out.Vertices
	c.mu.Unlock()
	return &out, nil
}

var _ Backend = (*ShardClient)(nil)
