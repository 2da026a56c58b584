package fleet

// The router is a proxy: what a client reads from a router-fronted
// server is the body the shard wrote, byte for byte — on the clean
// path, after corrupted and truncated attempts were retried, and (the
// marker apart) when the answer is served stale, even after the relay
// buffer it arrived in has carried other answers. The chaos soak calls
// the Router directly and never crosses the server's write path, where
// relay buffers are given back; this test does.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bagraph"
	"bagraph/internal/fault"
	"bagraph/internal/serve"
	"bagraph/internal/testleak"
)

func TestRoutedAnswersAreTheShardsBytes(t *testing.T) {
	testleak.Check(t)
	shard := newShardServer(t, map[string]*bagraph.Graph{"cm": corpusGraph(t)})
	script := fault.NewScript()
	// One holder, hedging off, a breaker that tolerates the two faults:
	// every retry lands on the same shard, in script order.
	r, m := newChaosRouter(t, fault.NewTransport(script, nil), func(c *Config) {
		c.HedgeAfter = -1
		c.BreakerThreshold = 10
		c.RetryBackoff = time.Millisecond
		c.MaxStale = time.Minute
	}, shard.URL)
	front := httptest.NewServer(serve.NewWithBackend(r, serve.Config{}).Handler())
	t.Cleanup(front.Close)

	post := func(base, path, query string) (body []byte, contentType string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s%s: status %d, err %v: %s", base, path, resp.StatusCode, err, body)
		}
		if int64(len(body)) != resp.ContentLength {
			t.Fatalf("%s%s: Content-Length %d on a %d-byte answer", base, path, resp.ContentLength, len(body))
		}
		return body, resp.Header.Get("Content-Type")
	}

	// Serial kernels, so the stats are the same on every run.
	queries := []struct{ path, query string }{
		{"/query/cc", `{"graph":"cm","algo":"bb","labels":true}`},
		{"/query/bfs", `{"graph":"cm","algo":"bb","root":3}`},
		{"/query/sssp", `{"graph":"cm","algo":"bb","root":3}`},
	}
	post(shard.URL, queries[0].path, queries[0].query) // fill the CC cache: "cached" is part of the bytes
	for _, q := range queries {
		want, wantType := post(shard.URL, q.path, q.query)

		got, gotType := post(front.URL, q.path, q.query)
		if !bytes.Equal(got, want) || gotType != wantType {
			t.Fatalf("%s: routed answer differs from the shard's own\n got %s %s\nwant %s %s", q.path, gotType, got, wantType, want)
		}

		retries := m.retries.With(shard.URL).Value()
		script.Queue(host(shard.URL), fault.Fault{Kind: fault.Corrupt}, fault.Fault{Kind: fault.Truncate})
		got, gotType = post(front.URL, q.path, q.query)
		if !bytes.Equal(got, want) || gotType != wantType {
			t.Fatalf("%s: answer after a corrupted and a truncated attempt differs from the shard's own", q.path)
		}
		if moved := m.retries.With(shard.URL).Value() - retries; moved != 2 {
			t.Fatalf("%s: baserved_router_retries_total moved by %d, want 2", q.path, moved)
		}
	}

	// A router that serves nothing stale keeps nothing for it.
	r0 := newTestRouter(t, time.Hour, shard.URL)
	if _, err := r0.CC(context.Background(), "cm", "bb", true); err != nil {
		t.Fatal(err)
	}
	r0.stale.mu.RLock()
	kept := len(r0.stale.m)
	r0.stale.mu.RUnlock()
	if kept != 0 {
		t.Fatalf("MaxStale 0: %d CC answers kept for stale serving", kept)
	}

	// Stale serve: the marker is the only difference, so the kept bytes
	// (which lack it) were dropped and the answer encoded afresh. The
	// BFS and SSSP between are read into the relay buffer the fresh CC
	// answer was, so a stale entry aliasing it would serve their bytes.
	fresh, _ := post(front.URL, queries[0].path, queries[0].query)
	for _, q := range queries[1:] {
		post(front.URL, q.path, q.query)
	}
	shard.CloseClientConnections()
	shard.Close()
	stale, _ := post(front.URL, queries[0].path, queries[0].query)
	if !bytes.Contains(stale, []byte(`"stale":true,`)) {
		t.Fatalf("degraded answer not marked stale: %.200s", stale)
	}
	if !bytes.Equal(bytes.Replace(stale, []byte(`"stale":true,`), nil, 1), fresh) {
		t.Fatalf("stale answer differs from the fresh one beyond the marker\n got %.300s\nwant %.300s", stale, fresh)
	}
}
