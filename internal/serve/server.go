// Package serve is the query-serving layer: a long-lived daemon core
// that keeps named CSR graphs and a warm worker pool resident and
// answers connected-components, BFS and SSSP queries over an HTTP+JSON
// API, batching concurrent traversals into shared kernel dispatches
// (see batcher.go). cmd/baserved wraps it in a binary; tests drive it
// in-process through Handler.
//
// The HTTP handlers front a Backend (see backend.go): the in-process
// Local backend (registry + batcher) in a single daemon or fleet
// shard, or a fleet router fanning the same queries across remote
// shards through ShardClients. Handlers decode, delegate and write the
// body the response is served as — a shard's verified bytes when the
// backend is a router relaying one, a local CC answer's encoding cached
// for its epoch — or else the struct's encoding (wire.go's append
// encoder), then release the buffer the body was in; every dispatch
// decision lives behind the interface.
//
// Endpoints:
//
//	GET  /healthz     — liveness: status, graph count, pool size
//	GET  /metrics     — Prometheus text exposition of the aggregation
//	                    plane: query counts and latency, batch sizes,
//	                    wave occupancy, CC cache events, kernel
//	                    counters, autotune decisions
//	GET  /graphs      — the resident graphs with sizes, epochs, and
//	                    whether they carry real edge weights
//	POST /query/cc    — {"graph","algo","labels"} → component count
//	                    (+labels on request); cached per graph epoch
//	POST /query/bfs   — {"graph","root","algo"} → hop distances; algo
//	                    "ms" lets concurrent queries share one
//	                    multi-source kernel run
//	POST /query/sssp  — {"graph","root","algo"} → weighted distances
//	                    (real edge weights for graphs loaded from
//	                    weighted METIS files, unit weights otherwise)
//	POST /admin/replace — (Config.Admin only) zero-downtime graph
//	                    rollout via Registry.Replace/ReplaceWeighted
//
// Distance arrays use in-band sentinels for unreached vertices
// (4294967295 for BFS hops, 2^62 for SSSP), mirroring the library's
// Unreached/InfDistance constants. SSSP responses also carry the sum
// of finite distances, the cheap cross-check the smoke script compares
// against the CLI kernels.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bagraph"
	"bagraph/internal/tune"
)

// Config sizes the daemon core. The zero value serves with GOMAXPROCS
// workers, batches of up to 32, and a 500µs coalescing window.
type Config struct {
	// Workers is the resident pool size; < 1 means GOMAXPROCS.
	Workers int
	// MaxBatch caps how many traversals one dispatch carries; < 1
	// means 32.
	MaxBatch int
	// BatchWindow is how long the first request of a batch waits for
	// company. 0 means the 500µs default; negative dispatches every
	// request immediately on its own (no added latency, no
	// coalescing).
	BatchWindow time.Duration
	// MaxBodyBytes caps query bodies; < 1 means 1 MiB.
	MaxBodyBytes int64
	// QueryTimeout caps each query's end-to-end time: the handlers
	// derive a context.WithTimeout from the request's own context, the
	// kernels observe it at their next pass barrier, and an expired
	// deadline maps to HTTP 504. 0 means no server-imposed deadline
	// (the client's connection is still honored).
	QueryTimeout time.Duration
	// Schedule is the chunk schedule the dispatched parallel kernels
	// run under: bagraph.ScheduleStatic (default) or
	// bagraph.ScheduleStealing for skew-heavy graphs.
	Schedule bagraph.Schedule
	// Autotune turns on the adaptive controller (internal/tune): the
	// schedule and delta-stepping width of each dispatch come from the
	// per-(graph, kernel) cell's live counters instead of the static
	// flags above, queries may name algorithm "auto" to let the cell
	// pick the bb/ba/hybrid form, and an empty algorithm defaults to
	// "auto" instead of the static default. Every
	// knob the controller turns is result-invariant: responses stay
	// byte-identical to the static configuration.
	Autotune bool
	// Admin mounts the backend's admin routes (POST /admin/replace on
	// a local backend, POST /admin/rollout on a fleet router). Off by
	// default: the admin plane loads files from the daemon's
	// filesystem and belongs behind the operator's network boundary,
	// not in query traffic.
	Admin bool
}

// Server routes the HTTP API onto a Backend.
type Server struct {
	backend      Backend
	mux          *http.ServeMux
	queryTimeout time.Duration
	metrics      *Metrics
	local        *Local // non-nil when the backend is in-process
}

// New builds a single-process server core over the registry: the
// backend is a Local wrapping a fresh Batcher. Release with Close.
func New(reg *Registry, cfg Config) *Server {
	window := cfg.BatchWindow
	if window == 0 {
		window = 500 * time.Microsecond
	}
	metrics := NewMetrics()
	batcher := NewBatcher(cfg.Workers, cfg.MaxBatch, window, cfg.Schedule)
	batcher.SetMetrics(metrics)
	var tuner *tune.Controller
	if cfg.Autotune {
		tuner = tune.New()
		batcher.SetTuner(tuner)
	}
	local := NewLocal(reg, batcher, metrics, tuner)
	s := newServer(local, cfg, metrics)
	s.local = local
	return s
}

// NewWithBackend builds a server core over an arbitrary backend (the
// fleet router hands in itself). The batching knobs of cfg are unused
// — the backend owns dispatch — but QueryTimeout, MaxBodyBytes and
// Admin apply as usual.
func NewWithBackend(b Backend, cfg Config) *Server {
	return newServer(b, cfg, NewMetrics())
}

func newServer(b Backend, cfg Config, metrics *Metrics) *Server {
	maxBody := cfg.MaxBodyBytes
	if maxBody < 1 {
		maxBody = 1 << 20
	}
	s := &Server{
		backend:      b,
		mux:          http.NewServeMux(),
		queryTimeout: cfg.QueryTimeout,
		metrics:      metrics,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	s.mux.HandleFunc("GET /graphs", s.handleGraphs)
	s.mux.HandleFunc("POST /query/cc", s.instrument(tune.KindCC, bodyLimited(maxBody, s.handleCC)))
	s.mux.HandleFunc("POST /query/bfs", s.instrument(tune.KindBFS, bodyLimited(maxBody, s.handleBFS)))
	s.mux.HandleFunc("POST /query/sssp", s.instrument(tune.KindSSSP, bodyLimited(maxBody, s.handleSSSP)))
	if cfg.Admin {
		if ab, ok := b.(AdminBackend); ok {
			ab.MountAdmin(s.mux)
		}
	}
	return s
}

// Handler returns the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Backend exposes the dispatch plane the handlers front.
func (s *Server) Backend() Backend { return s.backend }

// Batcher exposes the in-process dispatcher (benchmarks drive it
// directly); nil when the server fronts a remote backend.
func (s *Server) Batcher() *Batcher {
	if s.local == nil {
		return nil
	}
	return s.local.Batcher()
}

// Metrics exposes the aggregation plane (tests read it in-process).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusWriter captures the response status for the query counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusLabel buckets an HTTP status into the low-cardinality outcome
// classes the queries_total counter carries.
func statusLabel(code int) string {
	switch {
	case code < 300:
		return "ok"
	case code == statusClientClosedRequest:
		return "canceled"
	case code == http.StatusGatewayTimeout:
		return "timeout"
	case code >= 400 && code < 500:
		return "bad_request"
	default:
		return "error"
	}
}

// instrument wraps a query handler with the per-kind count and latency
// instruments.
func (s *Server) instrument(kind string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.metrics.ObserveQuery(kind, statusLabel(sw.code), time.Since(start).Seconds())
	}
}

// Close releases the backend's resources (the worker pool for a local
// backend, the health checkers for a router). Call after the HTTP
// server has drained in-flight requests.
func (s *Server) Close() {
	if c, ok := s.backend.(closableBackend); ok {
		c.Close()
	}
}

// bodyLimited wraps a handler with a request-body size cap.
func bodyLimited(maxBody int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		h(w, r)
	}
}

// errorResponse is the uniform failure body. RetryAfter mirrors the
// Retry-After header on backoff-worthy failures (router 503s), so
// clients that never see headers (logs, body-only tooling) still get
// the hint.
type errorResponse struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// statusClientClosedRequest is the (nginx-popularized) status for a
// request abandoned by its client: the response is written for logs
// and middleware — the client is no longer listening.
const statusClientClosedRequest = 499

// queryContext derives the context a query runs under: the request's
// own (so a departed client still cancels the work) capped by the
// configured per-query deadline. cancel must be called when the query
// finishes. A negative timeout yields an already-expired context —
// deterministic 504s, which the timeout tests rely on.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.queryTimeout != 0 {
		return context.WithTimeout(r.Context(), s.queryTimeout)
	}
	return r.Context(), func() {}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection owns delivery; nothing to do on failure
}

// answer is a query response: the bytes it is served as, and what it
// borrows until they are written.
type answer interface {
	Body() ([]byte, error)
	release()
}

// writeAnswer sends a 200 query answer with its Content-Length, in one
// Write of v's Body — made before the status line goes out, so the
// length is known — and then releases what v borrows.
func writeAnswer(w http.ResponseWriter, v answer) {
	defer v.release()
	body, err := v.Body()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode answer: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the connection owns delivery; nothing to do on failure
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeBackendError maps a backend failure onto the wire: the status
// from ErrorStatus, plus — when the typed *Error carries a retry hint
// — a Retry-After header and the matching retry_after body field.
func writeBackendError(w http.ResponseWriter, err error) {
	retry := 0
	var se *Error
	if errors.As(err, &se) {
		retry = se.RetryAfter
	}
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	writeJSON(w, ErrorStatus(err), errorResponse{Error: err.Error(), RetryAfter: retry})
}

// decodeQuery parses a JSON query body: exactly one JSON value, within
// the configured size cap. A body that tripped http.MaxBytesReader
// answers 413 naming the limit (not a generic 400 — the client must
// know shrinking the body is the fix), and trailing data after the
// first value is rejected rather than silently ignored, so a
// concatenated or corrupted payload cannot half-parse into a valid
// query.
func decodeQuery(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"query body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad query body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			// The value parsed, but the body keeps going past the cap.
			writeError(w, http.StatusRequestEntityTooLarge,
				"query body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad query body: trailing data after JSON value")
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, err := s.backend.Healthz(r.Context())
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	infos, err := s.backend.Graphs(r.Context())
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Graphs []GraphInfo `json:"graphs"`
	}{infos})
}

// ccQuery is the /query/cc request body.
type ccQuery struct {
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	// Labels requests the full per-vertex label array (sized |V|; omit
	// for large graphs when only the count matters).
	Labels bool `json:"labels"`
}

func (s *Server) handleCC(w http.ResponseWriter, r *http.Request) {
	var q ccQuery
	if !decodeQuery(w, r, &q) {
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	resp, err := s.backend.CC(ctx, q.Graph, q.Algo, q.Labels)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeAnswer(w, resp)
}

// traversalQuery is the /query/bfs and /query/sssp request body.
type traversalQuery struct {
	Graph string `json:"graph"`
	Root  uint32 `json:"root"`
	Algo  string `json:"algo"`
}

func (s *Server) handleBFS(w http.ResponseWriter, r *http.Request) {
	var q traversalQuery
	if !decodeQuery(w, r, &q) {
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	resp, err := s.backend.BFS(ctx, q.Graph, q.Root, q.Algo)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeAnswer(w, resp)
}

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	var q traversalQuery
	if !decodeQuery(w, r, &q) {
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	resp, err := s.backend.SSSP(ctx, q.Graph, q.Root, q.Algo)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeAnswer(w, resp)
}
