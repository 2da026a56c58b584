package fleet

// The router-side degradation cache: the last good CC answer per
// (graph, algo, labels) request shape, served — marked "stale": true —
// when every replica holding the graph is gone and the entry is still
// younger than Config.MaxStale. CC is the one query this is sound for:
// the answer is per-graph (no per-query root), so the last response IS
// the best available approximation of the current one. Traversals stay
// 503 — a stale distance array rooted at someone else's vertex is not
// a degraded answer, it is a wrong one. The cache is filled only when
// stale serving is on (MaxStale > 0): each entry costs a copy of the
// body, which the fresh path otherwise relays without keeping.

import (
	"sync"
	"time"

	"bagraph/internal/serve"
)

// staleEntry is a last-good answer with its own copy of the body the
// shard sent — never the relay buffer that body was read into, which
// goes back to the shard client once the answer is written. Its labels
// are decoded only if it is ever served stale.
type staleEntry struct {
	resp *serve.CCResponse
	at   time.Time
}

// staleCache holds last-good CC responses by the query that got them.
// now is injectable so tests can age entries without sleeping.
type staleCache struct {
	now func() time.Time

	mu sync.RWMutex
	m  map[query]staleEntry
}

func newStaleCache() *staleCache {
	return &staleCache{now: time.Now, m: make(map[query]staleEntry)}
}

// store records a copy of a fresh answer for its request shape.
func (c *staleCache) store(q query, resp *serve.CCResponse) error {
	kept, err := resp.Detach()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.m[q] = staleEntry{resp: kept, at: c.now()}
	c.mu.Unlock()
	return nil
}

// get returns the answer kept for q and its age, when one exists
// within maxAge.
func (c *staleCache) get(q query, maxAge time.Duration) (*serve.CCResponse, time.Duration, bool) {
	c.mu.RLock()
	e, ok := c.m[q]
	c.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	age := c.now().Sub(e.at)
	if age > maxAge {
		return nil, 0, false
	}
	return e.resp, age, true
}

// staleFor serves the degraded answer when the retry budget found no
// live replica: the last good response to the same CC query, if it is
// younger than MaxStale, marked "stale": true — a copy without the
// shard's bytes, which the server therefore encodes afresh, marker
// included.
func (r *Router) staleFor(q query) (*serve.CCResponse, bool) {
	if r.cfg.MaxStale <= 0 {
		return nil, false
	}
	kept, age, ok := r.stale.get(q, r.cfg.MaxStale)
	if !ok {
		return nil, false
	}
	resp, err := kept.MarkStale()
	if err != nil {
		r.logf("fleet: stale CC for %q unusable: %v", q.graph, err)
		return nil, false
	}
	r.metrics.observeStale(q.graph)
	r.logf("fleet: serving stale CC for %q (age %v, no live replica)", q.graph, age.Round(time.Millisecond))
	return resp, true
}
