package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bagraph"
	"bagraph/internal/fleet"
	"bagraph/internal/metis"
	"bagraph/internal/serve"
)

// The serve workloads run the daemon stack in this process, behind real
// loopback listeners, built from the same constructors cmd/baserved
// calls and at its defaults.

const (
	batchWindow = 500 * time.Microsecond
	maxBatch    = 32
)

// serveInputs is what the serve workloads generate before any stack is
// built: the graphs, and for serve-rollout the two METIS files.
type serveInputs struct {
	graph string   // the published name
	ins   []*input // one, or the two alternating graphs of serve-rollout
	files []string // serve-rollout: the METIS file of each input

	// Set by buildOracles, outside set-up time.
	roots    []uint32             // the root pool the clients draw from
	oracleOf func(uint64) *oracle // the oracle of the graph an epoch published
}

func generateServeInputs(cfg runConfig) (*serveInputs, error) {
	if cfg.workload != wRollout {
		in, err := generate(specSocial, cfg.seed, cfg.quick)
		if err != nil {
			return nil, err
		}
		return &serveInputs{graph: in.spec.name, ins: []*input{in}}, nil
	}
	si := &serveInputs{graph: specSmall.name}
	for i, spec := range []graphSpec{specSmall, specSmallNext} {
		in, err := generate(spec, cfg.seed, cfg.quick)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("rollout-%d-%d.metis", cfg.seed, i))
		if err := writeMETIS(path, in.w); err != nil {
			return nil, err
		}
		si.ins = append(si.ins, in)
		si.files = append(si.files, path)
	}
	return si, nil
}

func writeMETIS(path string, w *bagraph.WeightedGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metis.WriteWeighted(f, w); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemon is one serve.Server behind a loopback listener.
type daemon struct {
	core *serve.Server
	srv  *http.Server
	url  string
	done chan struct{}
}

func startDaemon(core *serve.Server, h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		core.Close()
		return nil, err
	}
	d := &daemon{core: core, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // past the deadline the listener is closed anyway
	<-d.done
	d.core.Close()
}

// stack is a running topology: the entry daemon the clients talk to and
// whatever stands behind it.
type stack struct {
	entry   *daemon
	shards  []*daemon
	regs    []*serve.Registry // one per graph-holding daemon
	batcher *serve.Batcher    // the first graph-holding daemon's
}

func (s *stack) close() {
	if s.entry != nil {
		s.entry.close() // closes the router through Server.Close
	}
	for _, d := range s.shards {
		d.close()
	}
}

// stackOptions select the traced variant. wrapLocal is for the
// attribution test: it slips a decorator between the local-backend span
// and serve.Local.
type stackOptions struct {
	tracer    *tracer
	wrapLocal func(serve.Backend) serve.Backend
}

// newGraphDaemon builds one graph-holding daemon: serve.New in the stock
// stack; in the traced one the same parts from the public constructors,
// with a span around the handler and around serve.Local.
func newGraphDaemon(cfg runConfig, reg *serve.Registry, admin bool, opt stackOptions) (*daemon, *serve.Batcher, error) {
	scfg := serve.Config{Workers: cfg.procs, MaxBatch: maxBatch, BatchWindow: batchWindow, Schedule: bagraph.ScheduleStatic, Admin: admin}
	if opt.tracer == nil {
		core := serve.New(reg, scfg)
		d, err := startDaemon(core, core.Handler())
		return d, core.Batcher(), err
	}
	metrics := serve.NewMetrics()
	batcher := serve.NewBatcher(scfg.Workers, scfg.MaxBatch, scfg.BatchWindow, scfg.Schedule)
	batcher.SetMetrics(metrics)
	var backend serve.Backend = serve.NewLocal(reg, batcher, metrics, nil)
	if opt.wrapLocal != nil {
		backend = opt.wrapLocal(backend)
	}
	core := serve.NewWithBackend(&tracedBackend{inner: backend, t: opt.tracer, name: spanLocal}, scfg)
	d, err := startDaemon(core, opt.tracer.handlerSpans(spanServer, core.Handler()))
	return d, batcher, err
}

// buildStack publishes the inputs and starts the workload's topology. It
// returns once the entry point has answered a first query.
func buildStack(cfg runConfig, si *serveInputs, opt stackOptions) (*stack, error) {
	s := &stack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	holders := 1
	if cfg.workload == wFleet {
		holders = 2
	}
	for i := 0; i < holders; i++ {
		reg := serve.NewRegistry()
		var err error
		if cfg.workload == wRollout {
			_, err = reg.LoadMETISFile(si.graph, si.files[0])
		} else {
			_, err = reg.AddWeighted(si.graph, si.ins[0].w)
		}
		if err != nil {
			return nil, err
		}
		d, batcher, err := newGraphDaemon(cfg, reg, cfg.workload != wDirect, opt)
		if err != nil {
			return nil, err
		}
		s.regs = append(s.regs, reg)
		if i == 0 {
			s.batcher = batcher
		}
		if cfg.workload == wFleet {
			s.shards = append(s.shards, d)
		} else {
			s.entry = d
		}
	}
	if cfg.workload == wFleet {
		if err := s.startRouter(opt); err != nil {
			return nil, err
		}
	}
	if err := firstQuery(s.entry.url, si.graph); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// startRouter fronts the shards with a fleet.Router at fleet.Config's
// defaults, wired as cmd/baserved -router wires it, and waits until both
// shards have joined (which includes their CC warm-up).
func (s *stack) startRouter(opt stackOptions) error {
	fcfg := fleet.Config{}
	for _, d := range s.shards {
		fcfg.Shards = append(fcfg.Shards, d.url)
	}
	if opt.tracer != nil {
		fcfg.Client = &http.Client{Transport: &tracedTransport{inner: &http.Transport{}, t: opt.tracer}}
	}
	router, err := fleet.New(fcfg)
	if err != nil {
		return err
	}
	var backend serve.Backend = router
	if opt.tracer != nil {
		backend = &tracedBackend{inner: router, t: opt.tracer, name: spanRouterBE}
	}
	core := serve.NewWithBackend(backend, serve.Config{})
	router.SetMetrics(fleet.NewMetrics(core.Metrics().Registry()))
	router.Start()
	handler := core.Handler()
	if opt.tracer != nil {
		handler = opt.tracer.handlerSpans(spanRouter, handler)
	}
	s.entry, err = startDaemon(core, handler)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, _ := router.Healthz(context.Background())
		if h.Shards == len(s.shards) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d shards joined within 60s", h.Shards, len(s.shards))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// firstQuery is where set-up ends: the entry point answers a CC query.
func firstQuery(url, graph string) error {
	body := fmt.Sprintf(`{"graph":%q,"labels":false}`, graph)
	resp, err := http.Post(url+"/query/cc", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first query: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return nil
}
