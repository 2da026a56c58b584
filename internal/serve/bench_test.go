package serve

// BenchmarkServeBatch measures the serving-layer thesis: for small
// frequent queries — the regime where the paper's branch-avoiding
// kernels matter — dispatching a coalesced batch through the resident
// engine beats spawning a goroutine per request. Two families:
//
//   - bfs/*: k distinct sources, batched fan-out over the warm pool vs
//     k independent goroutines. The gap is pool parallelism plus
//     scheduler churn, so on single-core CI runners it narrows to
//     noise — per the ROADMAP, speedups are reported, never asserted.
//   - cc/*: k identical component queries. Coalescing collapses them
//     into one kernel run per epoch, so batched wins by ~k on any
//     hardware; this is the daemon's structural advantage, independent
//     of core count.
//
// The RMAT graph is kept small (scale 10) on purpose: serving-shaped
// queries are the small frequent ones.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bagraph"
	"bagraph/internal/bfs"
	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
)

// benchGraph builds the skewed RMAT shape the parallel engine
// benchmarks use, at query-serving size.
func benchGraph() *graph.Graph {
	return gen.RMAT(10, 8, gen.DefaultRMAT, 42)
}

func BenchmarkServeBatch(b *testing.B) {
	g := benchGraph()
	r := NewRegistry()
	e, err := r.Add("rmat", g)
	if err != nil {
		b.Fatal(err)
	}
	n := uint32(g.NumVertices())
	for _, k := range []int{1, 8, 32} {
		roots := make([]uint32, k)
		for i := range roots {
			roots[i] = uint32(i*977) % n
		}

		// Batched BFS: one claimed batch of k sources fanned across
		// the resident pool — the dispatcher's steady-state hot path.
		b.Run(fmt.Sprintf("bfs/batched/k=%d", k), func(b *testing.B) {
			bt := NewBatcher(0, k, -1, bagraph.ScheduleStatic)
			defer bt.Close()
			key := batchKey{entry: e, kind: KindBFS, algo: "ba"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reqs := make([]*Request, k)
				for j := range reqs {
					reqs[j] = &Request{
						entry: e, kind: KindBFS, algo: "ba", root: roots[j], ctx: context.Background(),
						done: make(chan Result, 1),
					}
				}
				bt.dispatch(key, reqs)
				for _, req := range reqs {
					res := <-req.done
					if res.Err != nil || len(res.Hops) == 0 {
						b.Fatal("bad result")
					}
				}
			}
			reportQueries(b, k)
		})

		// Spawned BFS: the model the daemon replaces — one goroutine
		// per request.
		b.Run(fmt.Sprintf("bfs/spawned/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < k; j++ {
					wg.Add(1)
					go func(root uint32) {
						defer wg.Done()
						dist, _, _ := bfs.TopDown(context.Background(), g, root, core.BranchAvoiding, nil, new(bfs.Scratch))
						if len(dist) == 0 {
							b.Error("bad result")
						}
					}(roots[j])
				}
				wg.Wait()
			}
			reportQueries(b, k)
		})

		// Batched CC: k concurrent identical queries coalesce into one
		// kernel run per graph epoch (a fresh epoch each iteration so
		// every iteration pays exactly one computation).
		b.Run(fmt.Sprintf("cc/batched/k=%d", k), func(b *testing.B) {
			bt := NewBatcher(0, k, -1, bagraph.ScheduleStatic)
			defer bt.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh, err := r.Replace("rmat", g)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for j := 0; j < k; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, comps, _, _, err := bt.CC(context.Background(), fresh, "hybrid"); err != nil || comps == 0 {
							b.Error("bad result")
						}
					}()
				}
				wg.Wait()
			}
			reportQueries(b, k)
		})

		// Spawned CC: without coalescing every request runs the kernel.
		b.Run(fmt.Sprintf("cc/spawned/k=%d", k), func(b *testing.B) {
			bt := NewBatcher(0, k, -1, bagraph.ScheduleStatic)
			defer bt.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < k; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := bagraph.Run(context.Background(), g,
							bagraph.Request{Kind: bagraph.KindCC, CC: bagraph.CCHybrid})
						if err != nil || len(res.Labels) == 0 {
							b.Error("bad result")
						}
					}()
				}
				wg.Wait()
			}
			reportQueries(b, k)
		})
	}
}

// BenchmarkServeMultiSourceBFS measures the batch-aware kernel thesis:
// k batched BFS sources answered by ONE multi-source kernel run
// (shared bottom-up mask sweeps, one graph pass per level for the
// whole batch) versus the same batch fanned out as k independent
// traversals. The multi-source win is structural — each level reads
// the adjacency arrays once instead of k times — so unlike the pool
// fan-out it survives single-core CI runners.
func BenchmarkServeMultiSourceBFS(b *testing.B) {
	g := benchGraph()
	r := NewRegistry()
	e, err := r.Add("rmat", g)
	if err != nil {
		b.Fatal(err)
	}
	n := uint32(g.NumVertices())
	for _, k := range []int{8, 32, 64} {
		roots := make([]uint32, k)
		for i := range roots {
			roots[i] = uint32(i*977) % n
		}
		newReqs := func(algo string) []*Request {
			reqs := make([]*Request, k)
			for j := range reqs {
				reqs[j] = &Request{
					entry: e, kind: KindBFS, algo: algo, root: roots[j], ctx: context.Background(),
					done: make(chan Result, 1),
				}
			}
			return reqs
		}
		drain := func(reqs []*Request) {
			for _, req := range reqs {
				res := <-req.done
				if res.Err != nil || len(res.Hops) == 0 {
					b.Fatal("bad result")
				}
			}
		}
		b.Run(fmt.Sprintf("multi-source/k=%d", k), func(b *testing.B) {
			bt := NewBatcher(0, k, -1, bagraph.ScheduleStatic)
			defer bt.Close()
			key := batchKey{entry: e, kind: KindBFS, algo: "ms"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reqs := newReqs("ms")
				bt.dispatch(key, reqs)
				drain(reqs)
			}
			reportQueries(b, k)
		})
		b.Run(fmt.Sprintf("independent/k=%d", k), func(b *testing.B) {
			bt := NewBatcher(0, k, -1, bagraph.ScheduleStatic)
			defer bt.Close()
			key := batchKey{entry: e, kind: KindBFS, algo: "ba"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reqs := newReqs("ba")
				bt.dispatch(key, reqs)
				drain(reqs)
			}
			reportQueries(b, k)
		})
	}
}

// BenchmarkServeCCCache measures the epoch cache: the steady-state cost
// of a CC query is a map hit, not a kernel run (batcher), and a cached
// answer over HTTP — decode, dispatch, write the labels — sends bytes
// the cache already holds rather than encoding them (handler).
func BenchmarkServeCCCache(b *testing.B) {
	r := NewRegistry()
	e, err := r.Add("rmat", benchGraph())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batcher", func(b *testing.B) {
		bt := NewBatcher(0, 4, -1, bagraph.ScheduleStatic)
		defer bt.Close()
		if _, _, _, _, err := bt.CC(context.Background(), e, "par-hybrid"); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, _, shared, err := bt.CC(context.Background(), e, "par-hybrid")
			if err != nil || !shared {
				b.Fatal("cache miss")
			}
		}
	})
	b.Run("handler", func(b *testing.B) {
		s := New(r, Config{Workers: 4, BatchWindow: -1})
		defer s.Close()
		h := s.Handler()
		query := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/cc",
				strings.NewReader(`{"graph":"rmat","algo":"par-hybrid","labels":true}`)))
			return rec
		}
		query() // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := query(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
				b.Fatalf("status %d, cache miss", rec.Code)
			}
		}
	})
}

// BenchmarkMetricsOverhead measures what the aggregation plane costs
// per dispatched query: the same single-request BFS dispatch with the
// instruments dark (bare) and lit (instrumented). Every instrument on
// the path is an atomic add or a fixed-bucket histogram observe, so
// the two must sit within noise of each other — the CI gate runs both
// so a regression that makes observability expensive shows up as a
// diverging pair, not a silent tax on every serving benchmark.
func BenchmarkMetricsOverhead(b *testing.B) {
	g := benchGraph()
	r := NewRegistry()
	e, err := r.Add("rmat", g)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, bt *Batcher) {
		key := batchKey{entry: e, kind: KindBFS, algo: "ba"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := &Request{
				entry: e, kind: KindBFS, algo: "ba", root: uint32(i*977) % uint32(g.NumVertices()),
				ctx: context.Background(), done: make(chan Result, 1),
			}
			bt.dispatch(key, []*Request{req})
			if res := <-req.done; res.Err != nil || len(res.Hops) == 0 {
				b.Fatal("bad result")
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		bt := NewBatcher(0, 1, -1, bagraph.ScheduleStatic)
		defer bt.Close()
		run(b, bt)
	})
	b.Run("instrumented", func(b *testing.B) {
		bt := NewBatcher(0, 1, -1, bagraph.ScheduleStatic)
		defer bt.Close()
		bt.SetMetrics(NewMetrics())
		run(b, bt)
	})
}

// reportQueries normalizes throughput to queries per second.
func reportQueries(b *testing.B, k int) {
	b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
