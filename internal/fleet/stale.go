package fleet

// The router-side degradation cache: the last good CC answer per
// (graph, algo, labels) request shape, served — marked "stale": true —
// when every replica holding the graph is gone and the entry is still
// younger than Config.MaxStale. CC is the one query this is sound for:
// the answer is per-graph (no per-query root), so the last response IS
// the best available approximation of the current one. Traversals stay
// 503 — a stale distance array rooted at someone else's vertex is not
// a degraded answer, it is a wrong one.

import (
	"sync"
	"time"

	"bagraph/internal/serve"
)

// staleEntry is a last-good answer as the shard client returned it —
// stored, not copied: the fresh path pays nothing for the cache.
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

// store records a fresh answer for its request shape.
func (c *staleCache) store(q query, resp *serve.CCResponse) {
	c.mu.Lock()
	c.m[q] = staleEntry{resp: resp, at: c.now()}
	c.mu.Unlock()
}

// get returns the cached answer marked stale — a copy without the
// shard's retained bytes, which the server therefore encodes afresh,
// marker included — plus its age, when one exists within maxAge.
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
	return e.resp.MarkStale(), age, true
}

// staleFor serves the degraded answer when the retry budget found no
// live replica: the last good response to the same CC query, if it is
// younger than MaxStale, marked "stale": true.
func (r *Router) staleFor(q query) (*serve.CCResponse, bool) {
	if r.cfg.MaxStale <= 0 {
		return nil, false
	}
	resp, age, ok := r.stale.get(q, r.cfg.MaxStale)
	if !ok {
		return nil, false
	}
	r.metrics.observeStale(q.graph)
	r.logf("fleet: serving stale CC for %q (age %v, no live replica)", q.graph, age.Round(time.Millisecond))
	return resp, true
}
