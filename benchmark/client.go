package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bagraph/internal/bfs"
	"bagraph/internal/sssp"
	"bagraph/internal/xrand"
)

// The load generator: closed loop, numClients callers that each wait
// for a reply on one keep-alive connection before sending the next
// request. What it cannot show is queueing under an arrival schedule.

const numClients = 2

const (
	kindCC      = "cc"
	kindBFS     = "bfs"
	kindSSSP    = "sssp"
	kindReplace = "replace"
)

// opKinds are the kinds a client's latency is reported by.
var opKinds = []string{kindCC, kindBFS, kindSSSP, kindReplace}

// The op mixes; names are the contract, the order is the schedule.
var (
	mixServe   = []string{kindBFS, kindCC, kindBFS, kindSSSP}
	mixRollout = []string{kindCC, kindBFS, kindBFS, kindSSSP}
)

// readsPerReplace is how many reads the replacing client of
// serve-rollout sends between two replaces.
const readsPerReplace = 15

// op is one request of the schedule.
type op struct {
	kind string
	root uint32
	file int // replace: which of the two METIS files it publishes
	// epoch is the epoch a replace must publish: one client replaces, so
	// its k-th replace publishes epoch k+1.
	epoch uint64
	path  string
	body  []byte
}

// schedule yields one client's ops. It is a pure function of the seed,
// the workload, the client index and the root pool.
type schedule struct {
	workload string
	client   int
	graph    string
	roots    []uint32
	files    []string
	rng      *xrand.Rand
	reads    int // reads issued
	replaces int // replaces issued
	sinceRep int // reads since the last replace; starts "due"
}

func newSchedule(workload string, client int, seed uint64, graph string, roots []uint32, files []string) *schedule {
	return &schedule{
		workload: workload, client: client, graph: graph, roots: roots, files: files,
		rng:      xrand.New(xrand.Hash64(seed ^ uint64(client+1)*0x9e3779b97f4a7c15)),
		sinceRep: readsPerReplace,
	}
}

func (s *schedule) next() op {
	if s.workload == wRollout && s.client == 1 && s.sinceRep == readsPerReplace {
		s.sinceRep = 0
		s.replaces++
		file := s.replaces % 2 // the daemon starts on file 0, so the first replace publishes file 1
		return op{
			kind: kindReplace, file: file, epoch: uint64(s.replaces) + 1, path: "/admin/replace",
			body: []byte(fmt.Sprintf(`{"graph":%q,"path":%q}`, s.graph, s.files[file])),
		}
	}
	mix := mixServe
	if s.workload == wRollout {
		mix = mixRollout
	}
	kind := mix[s.reads%len(mix)]
	s.reads++
	s.sinceRep++
	o := op{kind: kind, path: "/query/" + kind}
	if kind == kindCC {
		o.body = []byte(fmt.Sprintf(`{"graph":%q,"labels":true}`, s.graph))
		return o
	}
	o.root = s.roots[s.rng.Intn(len(s.roots))]
	o.body = []byte(fmt.Sprintf(`{"graph":%q,"root":%d}`, s.graph, o.root))
	return o
}

// answer is what verification reads off a good response.
type answer struct {
	epoch  uint64
	cached bool // cc: served from the epoch cache
	batch  int  // bfs, sssp: requests dispatched together
}

// verify checks one response against the oracle of the graph its epoch
// names. oracleOf returns nil for an epoch that was never published. A
// non-200, an unparseable body or any mismatch is an error.
func verify(o op, status int, body []byte, oracleOf func(epoch uint64) *oracle) (answer, error) {
	var a answer
	if status != http.StatusOK {
		return a, fmt.Errorf("%s: HTTP %d: %s", o.kind, status, bytes.TrimSpace(body[:min(len(body), 200)]))
	}
	epoch, err := fieldUint(body, "epoch")
	if err != nil {
		return a, err
	}
	a.epoch = epoch
	orc := oracleOf(epoch)
	if orc == nil {
		return a, fmt.Errorf("%s: epoch %d was never published", o.kind, epoch)
	}
	switch o.kind {
	case kindReplace:
		if epoch != o.epoch {
			return a, fmt.Errorf("replace: published epoch %d, want %d", epoch, o.epoch)
		}
		vertices, err1 := fieldUint(body, "vertices")
		edges, err2 := fieldUint(body, "edges")
		if err1 != nil || err2 != nil || int(vertices) != orc.vertices || int64(edges) != orc.edges {
			return a, fmt.Errorf("replace: published %d vertices / %d edges, want %d / %d", vertices, edges, orc.vertices, orc.edges)
		}
	case kindCC:
		a.cached = fieldTrue(body, "cached")
		components, err := fieldUint(body, "components")
		if err != nil || int(components) != orc.components {
			return a, fmt.Errorf("cc: %d components, want %d", components, orc.components)
		}
		arr, err := scanArray(body, "labels", ^uint64(0))
		if err != nil {
			return a, err
		}
		if arr.n != orc.vertices || arr.digest != orc.labelsDigest {
			return a, fmt.Errorf("cc: labels digest mismatch (%d elements)", arr.n)
		}
	case kindBFS:
		ro := orc.byRoot[o.root]
		reached, err := fieldUint(body, "reached")
		if err != nil || int(reached) != ro.hopsReached {
			return a, fmt.Errorf("bfs root %d: reached %d, want %d", o.root, reached, ro.hopsReached)
		}
		arr, err := scanArray(body, "dist", uint64(bfs.Inf))
		if err != nil {
			return a, err
		}
		if arr.n != orc.vertices || arr.reached != ro.hopsReached || arr.digest != ro.hopsDigest {
			return a, fmt.Errorf("bfs root %d: dist digest mismatch (%d elements)", o.root, arr.n)
		}
	case kindSSSP:
		ro := orc.byRoot[o.root]
		sum, err := fieldUint(body, "sum")
		if err != nil || sum != ro.distSum {
			return a, fmt.Errorf("sssp root %d: sum %d, want %d", o.root, sum, ro.distSum)
		}
		arr, err := scanArray(body, "dist", sssp.Inf)
		if err != nil {
			return a, err
		}
		if arr.n != orc.vertices || arr.sum != ro.distSum || arr.reached != ro.distReached || arr.digest != ro.distDigest {
			return a, fmt.Errorf("sssp root %d: dist digest mismatch (%d elements)", o.root, arr.n)
		}
	}
	if o.kind == kindBFS || o.kind == kindSSSP {
		batch, err := fieldUint(body, "batch")
		if err != nil {
			return a, err
		}
		a.batch = int(batch)
	}
	return a, nil
}

// sample is one completed op as the client saw it.
type sample struct {
	kind  string
	start time.Time
	ms    float64 // send → last body byte
	bytes int
	err   error
	answer
}

// client is one closed-loop caller.
type client struct {
	url      string
	hc       *http.Client
	sched    *schedule
	oracleOf func(uint64) *oracle
	tracer   *tracer        // nil when tracing is off
	reqSeq   *atomic.Uint64 // request ids, shared by the clients of a run
	buf      bytes.Buffer
	samples  []sample
}

func (c *client) do(o op) sample {
	s := sample{kind: o.kind, start: time.Now()}
	req, err := http.NewRequest(http.MethodPost, c.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if c.tracer != nil {
		sp = span{Req: c.reqSeq.Add(1), ID: c.tracer.newID(), Name: spanClient, Kind: o.kind}
		req.Header.Set(headerReq, strconv.FormatUint(sp.Req, 10))
		req.Header.Set(headerParent, strconv.FormatUint(uint64(sp.ID), 10))
		sp.Start = c.tracer.now()
	}
	s.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	s.ms = ms(time.Since(s.start))
	if c.tracer != nil {
		sp.End = c.tracer.now()
		c.tracer.record(sp)
	}
	resp.Body.Close()
	if err != nil {
		s.err = err
		return s
	}
	// The clock has stopped; verification is the load generator's own time.
	s.bytes = c.buf.Len()
	s.answer, s.err = verify(o, resp.StatusCode, c.buf.Bytes(), c.oracleOf)
	return s
}

func (c *client) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.samples = append(c.samples, c.do(c.sched.next()))
	}
}

// loadPhase is one closed-loop pass: a discarded warm-up, then the
// measured window.
type loadPhase struct {
	samples []sample // started inside the measured window
	window  *window
	// windowStartNs is the window's start on the tracer's clock.
	windowStartNs int64
}

// runLoad drives the stack at url with numClients clients for warmup +
// measure. atWindowStart runs when the warm-up ends, while the clients
// keep going (it scrapes the daemon's counters).
func runLoad(cfg runConfig, url string, si *serveInputs, t *tracer, warmup, measure time.Duration, atWindowStart func()) *loadPhase {
	var reqSeq atomic.Uint64
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = &client{
			url: url, oracleOf: si.oracleOf, tracer: t, reqSeq: &reqSeq,
			hc:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			sched: newSchedule(cfg.workload, i, cfg.seed, si.graph, si.roots, si.files),
		}
	}
	begin := time.Now()
	deadline := begin.Add(warmup + measure)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	time.Sleep(warmup)
	if atWindowStart != nil {
		atWindowStart()
	}
	p := &loadPhase{}
	if t != nil {
		p.windowStartNs = t.now()
	}
	w := startWindow()
	wg.Wait()
	w.stop()
	p.window = w
	for _, c := range clients {
		c.hc.CloseIdleConnections()
		for _, s := range c.samples {
			if !s.start.Before(w.t0) {
				p.samples = append(p.samples, s)
			}
		}
	}
	return p
}

// ops counts the phase's attempts and failures.
func (p *loadPhase) ops() *opCounter {
	oc := &opCounter{}
	for _, s := range p.samples {
		oc.count(s.err)
	}
	return oc
}

// latencies returns the verified samples' latencies of one kind.
func (p *loadPhase) latencies(kind string) []float64 {
	var xs []float64
	for _, s := range p.samples {
		if s.kind == kind && s.err == nil {
			xs = append(xs, s.ms)
		}
	}
	return xs
}
