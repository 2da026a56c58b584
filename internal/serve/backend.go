package serve

// The dispatch plane behind the HTTP handlers. A Backend answers the
// daemon's five logical operations — CC, BFS, SSSP, the graph listing
// and the health probe — in terms of graph NAMES, not registry
// entries, which is exactly the boundary that lets the same handlers
// front either an in-process batcher (Local, the single-daemon and
// shard configuration) or a remote shard over HTTP (ShardClient, what
// the fleet router fans queries through). Both implementations answer
// with the same response types, serve the same bytes and return the
// same typed errors. A response may carry the body it is served as (the
// unexported wire field): a ShardClient relays the verified bytes the
// shard sent, so a response that travelled router → shard → router IS
// the one the shard served, and Local hands a CC cache hit the encoding
// its epoch's cache already holds. The server writes those bytes
// instead of encoding the struct; Body returns them either way.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"

	"bagraph"
)

// Backend is the dispatch plane: everything the query handlers need,
// addressed by graph name. Implementations must map failures to *Error
// when the failure has a definite HTTP status (unknown graph, bad
// algorithm, out-of-range root) and pass context errors through
// unwrapped so the transport maps them to 504/499 uniformly.
//
// A query answer's head fields are always set. Its array (Labels or
// Dist) may not be: a relayed answer — a ShardClient's, and so a fleet
// router's — carries the shard's verified body and leaves the array
// nil, because no element of it is read on the way through. Body
// returns what the answer says in full, whichever the backend.
type Backend interface {
	// CC answers a connected-components query. labels requests the full
	// per-vertex array.
	CC(ctx context.Context, graph, algo string, labels bool) (*CCResponse, error)
	// BFS answers a hop-distance query from root.
	BFS(ctx context.Context, graph string, root uint32, algo string) (*BFSResponse, error)
	// SSSP answers a weighted shortest-distance query from root.
	SSSP(ctx context.Context, graph string, root uint32, algo string) (*SSSPResponse, error)
	// Graphs lists the resident graphs.
	Graphs(ctx context.Context) ([]GraphInfo, error)
	// Healthz reports liveness and capacity.
	Healthz(ctx context.Context) (*Health, error)
}

// Error is a query failure carrying the HTTP status it must surface
// as. Backends return it for failures with a definite status; the
// handlers (and the fleet router, which distinguishes an application
// error from a dead shard by this type) unwrap it with errors.As.
type Error struct {
	Status  int
	Message string
	// RetryAfter, when positive, is the whole-seconds hint the client
	// should wait before retrying; the HTTP edge emits it as a
	// Retry-After header and a retry_after body field. Routers set it
	// on 503s (no live replica, admission shed) so well-behaved
	// clients back off instead of hammering a degraded fleet.
	RetryAfter int
}

func (e *Error) Error() string { return e.Message }

// Errorf builds a typed query failure.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Message: fmt.Sprintf(format, args...)}
}

// ErrorStatus maps a backend failure to its HTTP status: a typed
// *Error carries its own, a passed deadline is the query timeout
// firing (504), a plain cancellation means the client went away (499),
// and anything else is a server fault.
func ErrorStatus(err error) int {
	var se *Error
	if errors.As(err, &se) {
		return se.Status
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// Health is the /healthz body. Shards reports live shards and is only
// present on a fleet router (omitted by in-process backends, keeping
// the single-daemon body unchanged).
type Health struct {
	Status  string `json:"status"`
	Graphs  int    `json:"graphs"`
	Workers int    `json:"workers"`
	Shards  int    `json:"shards,omitempty"`
}

// GraphInfo is one row of the /graphs listing.
type GraphInfo struct {
	Name      string `json:"name"`
	Vertices  int    `json:"vertices"`
	Edges     int64  `json:"edges"`
	Weighted  bool   `json:"weighted"`
	Relabeled bool   `json:"relabeled"`
	Epoch     uint64 `json:"epoch"`
}

// QueryStats is the per-query kernel observability object: the pass
// structure, store counters and scheduler behavior of the run that
// served the query, so batching and steal behavior are visible per
// response without a daemon-side aggregator. Fields irrelevant to the
// kernel that ran are omitted.
type QueryStats struct {
	Passes         int    `json:"passes"`
	LabelStores    uint64 `json:"label_stores,omitempty"`
	DistStores     uint64 `json:"dist_stores,omitempty"`
	QueueStores    uint64 `json:"queue_stores,omitempty"`
	CandStores     uint64 `json:"cand_stores,omitempty"`
	TopDownLevels  int    `json:"top_down_levels,omitempty"`
	BottomUpLevels int    `json:"bottom_up_levels,omitempty"`
	Waves          int    `json:"waves,omitempty"`
	Buckets        int    `json:"buckets,omitempty"`
	Chunks         int    `json:"chunks,omitempty"`
	Steals         uint64 `json:"steals,omitempty"`
	StealPasses    uint64 `json:"steal_passes,omitempty"`
	WordsScanned   uint64 `json:"words_scanned,omitempty"`
	LightRelaxed   uint64 `json:"light_relaxed,omitempty"`
}

// statsPayload projects the facade's Stats onto the response object.
func statsPayload(st bagraph.Stats) QueryStats {
	return QueryStats{
		Passes:         st.Passes,
		LabelStores:    st.LabelStores,
		DistStores:     st.DistStores,
		QueueStores:    st.QueueStores,
		CandStores:     st.CandStores,
		TopDownLevels:  st.TopDownLevels,
		BottomUpLevels: st.BottomUpLevels,
		Waves:          st.Waves,
		Buckets:        st.Buckets,
		Chunks:         st.Chunks,
		Steals:         st.Steals,
		StealPasses:    st.StealPasses,
		WordsScanned:   st.WordsScanned,
		LightRelaxed:   st.LightRelaxed,
	}
}

// CCResponse is the /query/cc response body. Stats describe the run
// that filled the cache; a cached response repeats the fill's stats.
// Stale marks a degraded answer a fleet router served from its own
// cache because no live replica held the graph (bounded by the
// router's -max-stale age); in-process backends never set it.
type CCResponse struct {
	Graph      string     `json:"graph"`
	Epoch      uint64     `json:"epoch"`
	Algo       string     `json:"algo"`
	Components int        `json:"components"`
	Cached     bool       `json:"cached"`
	Stale      bool       `json:"stale,omitempty"`
	Stats      QueryStats `json:"stats"`
	Labels     []uint32   `json:"labels,omitempty"`

	served
}

// served is how a query answer goes out, beside what it says.
type served struct {
	// wire, when set, is the body the answer is served as: the shard's
	// bytes a ShardClient verified and relays, or the encoding Local's
	// per-epoch CC cache holds for a hit. Code that changes any field
	// of the answer must clear it.
	wire []byte
	// What the answer borrows until the handler that writes it calls
	// release: the batcher workspace its array aliases and its body is
	// encoded into, or the relay buffer wire was read into. An answer
	// no handler writes leaves them to the garbage collector.
	ws    *workspace
	relay *relayBuf
}

// release gives back what the answer borrows; the answer must not be
// read afterwards.
func (s *served) release() {
	s.ws.release()
	s.relay.release()
}

// encode makes the body of an answer that carries none (see
// appendAnswer), in the buffer of the workspace ws — a fresh one when
// ws is nil.
func encode[T uint32 | uint64](ws *workspace, v, head any, key string, elems []T) ([]byte, error) {
	buf := ws.answerBuf()
	var err error
	*buf, err = appendAnswer((*buf)[:0], v, head, key, elems)
	return *buf, err
}

// Body returns the bytes the response is served as: the body it
// carries — a relayed shard answer, a cached CC hit — or else its
// encoding. They stay valid until the response is released.
func (r *CCResponse) Body() ([]byte, error) {
	if r.wire != nil {
		return r.wire, nil
	}
	head := *r
	head.Labels = nil
	return encode(r.ws, r, &head, "labels", r.Labels)
}

// Detach returns a copy of the response that borrows nothing: it
// carries its own copy of the bytes the response is served as, so it
// outlives the response's release. Labels, when set, is shared with
// the receiver, read-only.
func (r *CCResponse) Detach() (*CCResponse, error) {
	body, err := r.Body()
	if err != nil {
		return nil, err
	}
	c := *r
	c.served = served{wire: bytes.Clone(body)}
	return &c, nil
}

// MarkStale returns a copy of the response marked stale, without the
// body it carries (which does not carry the marker), so the server
// encodes the copy. A relayed response's labels are decoded from that
// body here; otherwise Labels is shared with the receiver, read-only.
func (r *CCResponse) MarkStale() (*CCResponse, error) {
	c := *r
	if c.Labels == nil && r.wire != nil {
		if err := decodeAnswer(r.wire, "labels", headRoom(r.Graph), &c, &c.Labels); err != nil {
			return nil, err
		}
	}
	c.Stale = true
	c.served = served{}
	return &c, nil
}

// BFSResponse is the /query/bfs response body.
type BFSResponse struct {
	Graph   string     `json:"graph"`
	Epoch   uint64     `json:"epoch"`
	Algo    string     `json:"algo"`
	Root    uint32     `json:"root"`
	Batch   int        `json:"batch"`
	Reached int        `json:"reached"`
	Stats   QueryStats `json:"stats"`
	Dist    []uint32   `json:"dist"`

	served
}

// Body returns the bytes the response is served as (see CCResponse).
func (r *BFSResponse) Body() ([]byte, error) {
	if r.wire != nil {
		return r.wire, nil
	}
	head := *r
	head.Dist = []uint32{}
	return encode(r.ws, r, &head, "dist", r.Dist)
}

// SSSPResponse is the /query/sssp response body. Sum (of finite
// distances) is the order-independent digest the smoke script compares
// against the CLI kernels without parsing the whole array.
type SSSPResponse struct {
	Graph   string     `json:"graph"`
	Epoch   uint64     `json:"epoch"`
	Algo    string     `json:"algo"`
	Root    uint32     `json:"root"`
	Batch   int        `json:"batch"`
	Reached int        `json:"reached"`
	Sum     uint64     `json:"sum"`
	Stats   QueryStats `json:"stats"`
	Dist    []uint64   `json:"dist"`

	served
}

// Body returns the bytes the response is served as (see CCResponse).
func (r *SSSPResponse) Body() ([]byte, error) {
	if r.wire != nil {
		return r.wire, nil
	}
	head := *r
	head.Dist = []uint64{}
	return encode(r.ws, r, &head, "dist", r.Dist)
}
