package serve_test

// Backend conformance: the in-process Local backend and the HTTP
// ShardClient are two implementations of the same dispatch plane, so a
// query answered through either must be served as the same bytes (its
// Body) — that equivalence is what lets the fleet router relay a
// shard's answer as if it had computed it. The suite drives both backends over
// identically-seeded registries with a static schedule (deterministic
// kernels), and pins the typed-error contract: *Error statuses and
// messages match, a pre-cancelled context maps to 499 and an expired
// deadline to 504 on both sides.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"bagraph"
	"bagraph/internal/serve"
)

// conformanceBackends builds the two backends over identically-seeded
// registries: Local straight off one daemon core, and a ShardClient
// pointed at a second, identical core behind a real HTTP listener.
func conformanceBackends(t *testing.T) (local, remote serve.Backend) {
	t.Helper()
	cores := make([]*serve.Server, 2)
	for i := range cores {
		g, err := bagraph.CorpusGraph("cond-mat-2005", 0.02, 9)
		if err != nil {
			t.Fatal(err)
		}
		reg := serve.NewRegistry()
		if _, err := reg.Add("cm", g); err != nil {
			t.Fatal(err)
		}
		cores[i] = serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1})
	}
	ts := httptest.NewServer(cores[1].Handler())
	t.Cleanup(func() {
		ts.Close()
		cores[0].Close()
		cores[1].Close()
	})
	return cores[0].Backend(), serve.NewShardClient(ts.URL, nil)
}

// servedBytes is what a response goes out as: a query answer's Body,
// or the JSON encoding of anything else.
func servedBytes(t *testing.T, v any) string {
	t.Helper()
	var buf []byte
	var err error
	if a, ok := v.(interface{ Body() ([]byte, error) }); ok {
		buf, err = a.Body()
	} else {
		buf, err = json.Marshal(v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestBackendConformanceResponses(t *testing.T) {
	local, remote := conformanceBackends(t)
	ctx := context.Background()

	steps := []struct {
		name string
		call func(b serve.Backend) (any, error)
	}{
		{"cc labels", func(b serve.Backend) (any, error) {
			return b.CC(ctx, "cm", "par-hybrid", true)
		}},
		// The second identical CC query must replay from the epoch cache
		// on BOTH backends — Cached is part of the response bytes.
		{"cc cached", func(b serve.Backend) (any, error) {
			return b.CC(ctx, "cm", "par-hybrid", true)
		}},
		{"bfs par-do", func(b serve.Backend) (any, error) {
			return b.BFS(ctx, "cm", 0, "par-do")
		}},
		{"bfs ms", func(b serve.Backend) (any, error) {
			return b.BFS(ctx, "cm", 3, "ms")
		}},
		{"sssp par-hybrid", func(b serve.Backend) (any, error) {
			return b.SSSP(ctx, "cm", 0, "par-hybrid")
		}},
		{"graphs", func(b serve.Backend) (any, error) {
			return b.Graphs(ctx)
		}},
		{"healthz", func(b serve.Backend) (any, error) {
			return b.Healthz(ctx)
		}},
	}
	for _, step := range steps {
		lv, lerr := step.call(local)
		rv, rerr := step.call(remote)
		if lerr != nil || rerr != nil {
			t.Fatalf("%s: local err %v, remote err %v", step.name, lerr, rerr)
		}
		lj, rj := servedBytes(t, lv), servedBytes(t, rv)
		if lj != rj {
			t.Fatalf("%s: backends disagree\nlocal:  %s\nremote: %s", step.name, lj, rj)
		}
	}

	cc, err := local.CC(ctx, "cm", "par-hybrid", false)
	if err != nil {
		t.Fatal(err)
	}
	if !cc.Cached {
		t.Fatal("third cc query not served from cache")
	}
}

func TestBackendConformanceErrors(t *testing.T) {
	local, remote := conformanceBackends(t)
	ctx := context.Background()

	cases := []struct {
		name   string
		call   func(b serve.Backend) error
		status int
	}{
		{"unknown graph", func(b serve.Backend) error {
			_, err := b.CC(ctx, "nope", "", false)
			return err
		}, 404},
		{"missing graph name", func(b serve.Backend) error {
			_, err := b.CC(ctx, "", "", false)
			return err
		}, 400},
		{"bad algo", func(b serve.Backend) error {
			_, err := b.BFS(ctx, "cm", 0, "quantum")
			return err
		}, 400},
		{"root out of range", func(b serve.Backend) error {
			_, err := b.SSSP(ctx, "cm", 1<<30, "")
			return err
		}, 400},
	}
	for _, tc := range cases {
		lerr, rerr := tc.call(local), tc.call(remote)
		if lerr == nil || rerr == nil {
			t.Fatalf("%s: expected failures, got local %v, remote %v", tc.name, lerr, rerr)
		}
		if ls, rs := serve.ErrorStatus(lerr), serve.ErrorStatus(rerr); ls != tc.status || rs != tc.status {
			t.Fatalf("%s: status local %d, remote %d, want %d", tc.name, ls, rs, tc.status)
		}
		if lerr.Error() != rerr.Error() {
			t.Fatalf("%s: messages disagree\nlocal:  %q\nremote: %q", tc.name, lerr.Error(), rerr.Error())
		}
	}
}

// TestBackendConformanceContext: the caller's context dying maps the
// same way through both backends — cancellation to 499, a passed
// deadline to 504 — even though the remote path sees it as a transport
// failure first.
func TestBackendConformanceContext(t *testing.T) {
	local, remote := conformanceBackends(t)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()

	for _, tc := range []struct {
		name   string
		ctx    context.Context
		status int
	}{
		{"cancelled", cancelled, 499},
		{"deadline", expired, 504},
	} {
		for which, b := range map[string]serve.Backend{"local": local, "remote": remote} {
			_, err := b.CC(tc.ctx, "cm", "", false)
			if err == nil {
				t.Fatalf("%s/%s: query succeeded under a dead context", tc.name, which)
			}
			if got := serve.ErrorStatus(err); got != tc.status {
				t.Fatalf("%s/%s: status %d (err %v), want %d", tc.name, which, got, err, tc.status)
			}
		}
	}
}
