// Command baserved is the branch-avoiding graph query daemon: it loads
// a set of named graphs at startup, keeps their CSR representations and
// a warm worker pool resident, and serves connected-components, BFS and
// SSSP queries over an HTTP+JSON API with batched kernel dispatch (see
// internal/serve). METIS files carrying per-edge weights (format code
// "1", e.g. from bagen -wmax) publish weighted graphs whose SSSP
// queries run on the real weights; unweighted files serve SSSP through
// a unit-weight view.
//
// Usage:
//
//	baserved -corpus cond-mat-2005,coAuthorsDBLP -scale 0.02
//	baserved -graph web=crawl.metis -graph road=weighted-roads.metis -listen :9090
//	baserved -corpus all -workers 8 -batch-max 64 -batch-window 1ms
//
// Fleet mode promotes the daemon to many processes: shards are
// ordinary daemons (usually with -admin, so graphs can be rolled out
// in place), and a router is a stateless front that owns no graphs —
// it places queries on shards by consistent hashing over graph names,
// fans replicated graphs to the least-loaded live replica, health-
// checks shards with retry/backoff, and fails over to replicas when a
// shard dies (503 only when no live replica holds the graph):
//
//	baserved -graph web=crawl.metis -listen :9101 -admin   # shard 1
//	baserved -graph web=crawl.metis -listen :9102 -admin   # shard 2
//	baserved -router -shard 127.0.0.1:9101,127.0.0.1:9102 -listen :8080
//
// With -admin on the router, POST /admin/rollout
// {"graph":"web","path":"new.metis"} replaces the graph one replica at
// a time (Registry.Replace under each shard's epoch machinery) and
// re-warms each shard's CC cache before the next swap — zero-downtime
// rollout. Shard rotation reuses the SIGTERM drain path: kill a shard,
// the router reroutes to replicas, restart it, and the router warms
// its CC cache before returning it to traffic.
//
// Queries:
//
//	curl -s localhost:8080/graphs
//	curl -s -d '{"graph":"cond-mat-2005","algo":"par-hybrid"}' localhost:8080/query/cc
//	curl -s -d '{"graph":"cond-mat-2005","root":0,"algo":"par-do"}' localhost:8080/query/bfs
//	curl -s -d '{"graph":"cond-mat-2005","root":0,"algo":"ms"}' localhost:8080/query/bfs
//	curl -s -d '{"graph":"road","root":0,"algo":"par-hybrid"}' localhost:8080/query/sssp
//
// BFS algo "ms" opts a query into the batch-aware multi-source kernel:
// every concurrent "ms" query against the same graph joins one shared
// traversal. SSSP algos par-bb / par-ba / par-hybrid (the default) run
// the delta-stepping kernel on the resident pool.
//
// GET /metrics exposes the daemon's aggregation plane in the
// Prometheus text format: query counts and latency by kind, batch
// sizes, multi-source wave occupancy, CC cache hit/miss/retry counts,
// per-kind kernel counters (passes, steals, words scanned, applied
// relaxations) and — with -autotune — the controller's knob picks. A
// router additionally exposes the fleet plane: per-shard request
// counts, retries, failovers, health checks and per-shard up gauges.
// -autotune turns on the adaptive controller: schedule, delta-stepping
// width and the bb/ba/hybrid cutover are chosen per (graph, kernel)
// from live counters (algo "auto", the default when the flag is set);
// results stay byte-identical to the static flags.
//
// The daemon drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bagraph"
	"bagraph/internal/corpus"
	"bagraph/internal/fleet"
	"bagraph/internal/serve"
)

// graphFlags collects repeated -graph name=path.metis arguments.
type graphFlags []struct{ name, path string }

func (g *graphFlags) String() string { return fmt.Sprint(*g) }

func (g *graphFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path.metis, got %q", v)
	}
	*g = append(*g, struct{ name, path string }{name, path})
	return nil
}

// shardFlags collects -shard addresses (repeatable, comma-splittable).
type shardFlags []string

func (s *shardFlags) String() string { return strings.Join(*s, ",") }

func (s *shardFlags) Set(v string) error {
	for _, addr := range strings.Split(v, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			*s = append(*s, addr)
		}
	}
	return nil
}

func main() {
	var graphs graphFlags
	var shards shardFlags
	flag.Var(&graphs, "graph", "load a METIS graph as name=path (repeatable)")
	corpusList := flag.String("corpus", "", "comma-separated corpus graphs to load, or \"all\"")
	scale := flag.Float64("scale", 0.01, "corpus scale in (0, 1]")
	seed := flag.Uint64("seed", 42, "corpus generator seed")
	listen := flag.String("listen", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 0, "resident pool size (0 = GOMAXPROCS)")
	batchMax := flag.Int("batch-max", 32, "max traversals per dispatch")
	batchWindow := flag.Duration("batch-window", 500*time.Microsecond,
		"how long the first query of a batch waits for company (negative: dispatch immediately)")
	queryTimeout := flag.Duration("query-timeout", 0,
		"per-query deadline; kernels stop at their next pass barrier and the query answers 504 (0 = none)")
	schedule := flag.String("schedule", "static",
		"chunk schedule for the dispatched parallel kernels: static | steal")
	autotune := flag.Bool("autotune", false,
		"pick schedule, delta and the bb/ba/hybrid cutover per (graph, kernel) from live counters")
	relabelOn := flag.Bool("relabel", false,
		"store graphs degree-ordered (hub clustering); queries and results keep original vertex ids")
	admin := flag.Bool("admin", false,
		"mount the admin plane: /admin/replace (zero-downtime graph rollout) on a daemon/shard, /admin/rollout on a router")
	router := flag.Bool("router", false,
		"run as a stateless fleet router over the -shard addresses instead of serving graphs in-process")
	flag.Var(&shards, "shard", "router mode: shard address host:port (repeatable or comma-separated)")
	replicas := flag.Int("replicas", 2, "router mode: shards a rollout places a NEW graph on")
	healthInterval := flag.Duration("health-interval", time.Second,
		"router mode: live-shard probe period (dead shards back off to 8x); also the Retry-After hint on 503s")
	retryBudget := flag.Int("retry-budget", 3,
		"router mode: max attempts one query spends across a graph's replicas")
	hedgeAfter := flag.Duration("hedge-after", 0,
		"router mode: duplicate a slow query on the next live replica after this delay (0: adapt to the observed p95; negative: never hedge)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second,
		"router mode: first open->half-open wait of a shard's circuit breaker (doubles per consecutive open, capped at 8x)")
	maxInflight := flag.Int("max-inflight", 0,
		"router mode: concurrent-query cap; excess answers 503 + Retry-After before touching any shard (0: unlimited)")
	maxStale := flag.Duration("max-stale", 0,
		"router mode: serve the last good CC answer, marked \"stale\", for up to this long when no live replica holds the graph (0: never)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown limit")
	flag.Parse()

	if *queryTimeout < 0 {
		log.Fatal("baserved: -query-timeout must be >= 0")
	}

	var core *serve.Server
	if *router {
		if len(graphs) != 0 || *corpusList != "" {
			log.Fatal("baserved: -router owns no graphs; drop -graph/-corpus (load them on the shards)")
		}
		if len(shards) == 0 {
			log.Fatal("baserved: -router needs at least one -shard address")
		}
		fl, err := fleet.New(fleet.Config{
			Shards:          shards,
			Replicas:        *replicas,
			HealthInterval:  *healthInterval,
			RetryBudget:     *retryBudget,
			HedgeAfter:      *hedgeAfter,
			BreakerCooldown: *breakerCooldown,
			MaxInflight:     *maxInflight,
			MaxStale:        *maxStale,
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatalf("baserved: %v", err)
		}
		core = serve.NewWithBackend(fl, serve.Config{
			QueryTimeout: *queryTimeout,
			Admin:        *admin,
		})
		fl.SetMetrics(fleet.NewMetrics(core.Metrics().Registry()))
		fl.Start()
		log.Printf("routing over %d shards on %s: %s", len(shards), *listen, shards.String())
	} else {
		if len(shards) != 0 {
			log.Fatal("baserved: -shard only applies with -router")
		}
		sched, err := bagraph.ParseSchedule(*schedule)
		if err != nil {
			log.Fatalf("baserved: %v", err)
		}
		if len(graphs) == 0 && *corpusList == "" {
			log.Fatal("baserved: nothing to serve; pass -graph and/or -corpus (e.g. -corpus all)")
		}
		reg := serve.NewRegistry()
		reg.SetRelabel(*relabelOn)
		for _, gf := range graphs {
			e, err := reg.LoadMETISFile(gf.name, gf.path)
			if err != nil {
				log.Fatalf("baserved: %v", err)
			}
			log.Printf("loaded %s: %v", gf.name, e.Graph())
		}
		if *corpusList != "" {
			names := corpus.Names()
			if *corpusList != "all" {
				names = strings.Split(*corpusList, ",")
			}
			for _, name := range names {
				e, err := reg.AddCorpus(name, *scale, *seed)
				if err != nil {
					log.Fatalf("baserved: %v", err)
				}
				log.Printf("generated %s: %v", name, e.Graph())
			}
		}
		window := *batchWindow
		if window == 0 {
			// Config treats 0 as "default"; the flag's 0 means immediate.
			window = -1
		}
		core = serve.New(reg, serve.Config{
			Workers:      *workers,
			MaxBatch:     *batchMax,
			BatchWindow:  window,
			QueryTimeout: *queryTimeout,
			Schedule:     sched,
			Autotune:     *autotune,
			Admin:        *admin,
		})
		log.Printf("serving %d graphs on %s (workers %d, batch %d/%v)",
			len(reg.Entries()), *listen, core.Batcher().Workers(), *batchMax, window)
	}
	defer core.Close()

	srv := &http.Server{Addr: *listen, Handler: core.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("baserved: shutdown: %v", err)
		}
		log.Print("drained, bye")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("baserved: %v", err)
		}
	}
}
