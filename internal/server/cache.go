// Package server exposes a segment index over HTTP: JSON endpoints for
// search, stab, count, insert, delete, and bulk load, an epoch-invalidated
// LRU result cache in front of the read path, and a /metrics endpoint
// surfacing cache, per-endpoint latency, and engine counters.
//
// The server is a thin shell: every query goes through the public segidx
// facade (reads go through SearchBatch/StabBatch: a one-query batch runs on
// the request's goroutine, a larger one on the worker pool), so
// the zero-allocation engine path, sharded scatter-gather, and WAL
// durability all apply unchanged. The one piece of state the server adds —
// the result cache — is kept correct by the index's commit epoch
// (Index.CommitEpoch); see cache.go and DESIGN.md §10 for the invalidation
// protocol. The hot response bodies are appended without encoding/json;
// see encode.go.
package server

import (
	"container/list"
	"sync"
)

// cache is a fixed-capacity LRU of encoded query results keyed by
// (endpoint, query) strings. Correctness under mutations comes from an
// epoch check, not from eager invalidation: every entry records the
// index's commit epoch (Index.CommitEpoch) observed *before* its query
// ran, and a lookup only returns entries stamped with the current epoch.
// Every committed mutation bumps that epoch, which implicitly invalidates
// the whole cache;
// stale entries are evicted lazily when a lookup trips over them or when
// LRU pressure recycles their slots. The engine's read path is therefore
// untouched on a miss — no locks, callbacks, or bookkeeping are added to
// the zero-alloc query itself.
//
// The epoch protocol is safe against the read/write race: a reader
// snapshots the epoch first and queries second, so a result computed
// concurrently with a mutation is stored under the pre-mutation epoch and
// can never be served after the mutation's bump. The worst case is a
// wasted store (a fresh result stamped with an epoch that is already
// stale), never a stale hit.
type cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element holding *centry

	hits          uint64
	misses        uint64
	evictions     uint64 // entries dropped for capacity
	invalidations uint64 // stale-epoch entries dropped on lookup
}

// centry is one cached result: the response fragment exactly as it will be
// written to clients (encoded JSON), plus the epoch it was computed under.
type centry struct {
	key   string
	epoch uint64
	val   []byte
}

// newCache returns an LRU holding at most capacity entries; capacity <= 0
// disables caching (every lookup misses, stores are dropped).
func newCache(capacity int) *cache {
	c := &cache{cap: capacity}
	if capacity > 0 {
		c.ll = list.New()
		c.items = make(map[string]*list.Element, capacity)
	}
	return c
}

// get returns the cached value for key if it was stored under the given
// epoch. A present entry with a stale epoch is removed (lazy
// invalidation) and counts as a miss.
func (c *cache) get(key string, epoch uint64) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	ce := el.Value.(*centry)
	if ce.epoch != epoch {
		c.ll.Remove(el)
		delete(c.items, key)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return ce.val, true
}

// put stores an exact-size copy of val under key at the given epoch,
// evicting the least recently used entry if the cache is full. An
// existing entry for the key is replaced regardless of its epoch.
func (c *cache) put(key string, epoch uint64, val []byte) {
	if c.cap <= 0 {
		return
	}
	val = append(make([]byte, 0, len(val)), val...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ce := el.Value.(*centry)
		ce.epoch = epoch
		ce.val = val
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.items, old.Value.(*centry).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&centry{key: key, epoch: epoch, val: val})
}

// CacheStats is a snapshot of result-cache counters for /metrics.
type CacheStats struct {
	Capacity      int     `json:"capacity"`
	Entries       int     `json:"entries"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// stats returns a consistent snapshot of the cache counters.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
	if c.ll != nil {
		s.Entries = c.ll.Len()
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
