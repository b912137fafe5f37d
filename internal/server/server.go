package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"segidx"
	"segidx/internal/store"
)

// Config tunes a Server. The zero value picks usable defaults.
type Config struct {
	// CacheEntries caps the result cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// FlushEvery, when positive, flushes the index after every n
	// acknowledged mutations — a group commit bounding how much
	// acknowledged-but-volatile state a crash can lose. Zero flushes only
	// at Close (graceful shutdown still loses nothing).
	FlushEvery int
}

// Server serves a segment index over HTTP. Create one with New, mount
// Handler on an http.Server, and call Close on the way out to flush the
// index (Close does not close the index itself unless the server was
// built with OwnIndex).
//
// A Server is safe for concurrent use: all added state is either atomic
// (metrics) or internally locked (result cache); the index's own locking
// covers the engine. The cache invalidation epoch is the index's own MVCC
// commit epoch — the same stamp that versions snapshot reads — so the
// server carries no mutation counter of its own.
type Server struct {
	idx   *segidx.Index
	cache *cache
	cfg   Config

	mutations atomic.Uint64 // total acknowledged mutation requests
	started   time.Time

	mux *http.ServeMux

	search   epMetrics
	stab     epMetrics
	count    epMetrics
	insert   epMetrics
	delete   epMetrics
	bulkload epMetrics
	metrics  epMetrics
}

// New wraps idx in a Server. The caller keeps ownership of idx: closing
// the server flushes but does not close it.
func New(idx *segidx.Index, cfg Config) *Server {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		idx:     idx,
		cache:   newCache(cfg.CacheEntries),
		cfg:     cfg,
		started: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", s.instrument(&s.search, http.MethodPost, s.handleSearch))
	s.mux.HandleFunc("/stab", s.instrument(&s.stab, http.MethodPost, s.handleStab))
	s.mux.HandleFunc("/count", s.instrument(&s.count, http.MethodPost, s.handleCount))
	s.mux.HandleFunc("/insert", s.instrument(&s.insert, http.MethodPost, s.handleInsert))
	s.mux.HandleFunc("/delete", s.instrument(&s.delete, http.MethodPost, s.handleDelete))
	s.mux.HandleFunc("/bulkload", s.instrument(&s.bulkload, http.MethodPost, s.handleBulkload))
	s.mux.HandleFunc("/metrics", s.instrument(&s.metrics, http.MethodGet, s.handleMetrics))
	s.mux.HandleFunc("/healthz", s.instrument(&s.metrics, http.MethodGet, s.handleHealthz))
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Epoch returns the index's commit epoch (0 before the first mutation on
// a fresh index): the stamp the result cache is keyed on.
func (s *Server) Epoch() uint64 { return s.idx.CommitEpoch() }

// Close flushes the index so every acknowledged mutation is durable. It
// does not close the index; the owner does that (segidx.Index.Close also
// flushes, so daemons typically call only idx.Close after draining HTTP).
func (s *Server) Close() error { return s.idx.Flush() }

// errorJSON is every non-2xx response body.
type errorJSON struct {
	Error string `json:"error"`
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// An encode failure past WriteHeader cannot be reported to the
	// client; the connection error is the client's signal.
	_ = enc.Encode(v)
}

// writeError maps err to its HTTP status and writes the JSON error body.
// The mapping is: decoder errors carry their own status (400/413), engine
// validation errors are 400, a broken store is 503 (the daemon is up but
// its durable state refuses further writes), everything else is 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, segidx.ErrDims), errors.Is(err, segidx.ErrBadRect):
		status = http.StatusBadRequest
	case errors.Is(err, store.ErrBroken):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with method enforcement, request counting,
// and latency observation.
func (s *Server) instrument(m *epMetrics, method string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if r.Method != method {
			rec.Header().Set("Allow", method)
			writeJSON(rec, http.StatusMethodNotAllowed,
				errorJSON{Error: "method " + r.Method + " not allowed; use " + method})
		} else {
			h(rec, r)
		}
		if rec.status >= 400 {
			m.errors.Add(1)
		}
		m.latency.observe(time.Since(start))
	}
}

// entryJSON is one search result on the wire.
type entryJSON struct {
	ID  uint64    `json:"id"`
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// queryResponse is the body of /search and /stab: one result list per
// query, in request order. Cached reports how many of the lists were
// served from the result cache.
type queryResponse struct {
	Results []json.RawMessage `json:"results"`
	Cached  int               `json:"cached"`
	Epoch   uint64            `json:"epoch"`
}

// marshalEntries renders one query's results as the cached JSON fragment.
func marshalEntries(entries []segidx.Entry) ([]byte, error) {
	out := make([]entryJSON, len(entries))
	for i, e := range entries {
		out[i] = entryJSON{ID: uint64(e.ID), Min: e.Rect.Min, Max: e.Rect.Max}
	}
	return json.Marshal(out)
}

// serveCachedQueries runs the (endpoint, key) queries through the result
// cache, computes the misses with runMisses (indexes are positions in
// keys), and returns the per-query JSON fragments plus the hit count.
//
// The commit epoch is snapshotted once, before any engine work: results
// computed concurrently with a mutation are stored under the pre-commit
// epoch, so the commit's bump invalidates them (see the cache doc
// comment). The engine bumps the epoch when the mutation commits — before
// the mutation request is even acknowledged — which only widens the safe
// margin.
func (s *Server) serveCachedQueries(
	keys []string,
	runMisses func(miss []int) ([][]byte, error),
) ([]json.RawMessage, int, uint64, error) {
	epoch := s.idx.CommitEpoch()
	results := make([]json.RawMessage, len(keys))
	var miss []int
	for i, k := range keys {
		if val, ok := s.cache.get(k, epoch); ok {
			results[i] = val
		} else {
			miss = append(miss, i)
		}
	}
	cached := len(keys) - len(miss)
	if len(miss) > 0 {
		fresh, err := runMisses(miss)
		if err != nil {
			return nil, 0, 0, err
		}
		for j, i := range miss {
			results[i] = fresh[j]
			s.cache.put(keys[i], epoch, fresh[j])
		}
	}
	return results, cached, epoch, nil
}

// handleSearch serves POST /search: records intersecting each query rect,
// deduplicated by ID, through the SearchBatch worker pool.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	rects, err := req.rects()
	if err != nil {
		writeError(w, err)
		return
	}
	keys := make([]string, len(rects))
	for i, rc := range rects {
		keys[i] = searchKey("search", rc)
	}
	results, cached, epoch, err := s.serveCachedQueries(keys, func(miss []int) ([][]byte, error) {
		queries := make([]segidx.Rect, len(miss))
		for j, i := range miss {
			queries[j] = rects[i]
		}
		batches, err := s.idx.SearchBatch(r.Context(), queries)
		if err != nil {
			return nil, err
		}
		out := make([][]byte, len(batches))
		for j, entries := range batches {
			if out[j], err = marshalEntries(entries); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{Results: results, Cached: cached, Epoch: epoch})
}

// handleStab serves POST /stab: records containing each query point (the
// paper's stabbing query) through the StabBatch worker pool.
func (s *Server) handleStab(w http.ResponseWriter, r *http.Request) {
	var req stabRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	points, err := req.points()
	if err != nil {
		writeError(w, err)
		return
	}
	keys := make([]string, len(points))
	for i, p := range points {
		keys[i] = stabKey(p)
	}
	results, cached, epoch, err := s.serveCachedQueries(keys, func(miss []int) ([][]byte, error) {
		queries := make([][]float64, len(miss))
		for j, i := range miss {
			queries[j] = points[i]
		}
		batches, err := s.idx.StabBatch(r.Context(), queries)
		if err != nil {
			return nil, err
		}
		out := make([][]byte, len(batches))
		for j, entries := range batches {
			if out[j], err = marshalEntries(entries); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{Results: results, Cached: cached, Epoch: epoch})
}

// countResponse is the body of /count: one count per query rect.
type countResponse struct {
	Counts []json.RawMessage `json:"counts"`
	Cached int               `json:"cached"`
	Epoch  uint64            `json:"epoch"`
}

// handleCount serves POST /count: the number of records intersecting each
// query rect. Counts ride the same cache as search results.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	rects, err := req.rects()
	if err != nil {
		writeError(w, err)
		return
	}
	keys := make([]string, len(rects))
	for i, rc := range rects {
		keys[i] = searchKey("count", rc)
	}
	counts, cached, epoch, err := s.serveCachedQueries(keys, func(miss []int) ([][]byte, error) {
		out := make([][]byte, len(miss))
		for j, i := range miss {
			n, err := s.idx.Count(rects[i])
			if err != nil {
				return nil, err
			}
			if out[j], err = json.Marshal(n); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, countResponse{Counts: counts, Cached: cached, Epoch: epoch})
}

// afterMutation counts the acknowledged mutation and runs the
// group-commit flush when configured. Cache invalidation needs no action
// here: the engine bumped its commit epoch when the mutation committed.
func (s *Server) afterMutation() error {
	n := s.mutations.Add(1)
	if fe := uint64(s.cfg.FlushEvery); fe > 0 && n%fe == 0 {
		return s.idx.Flush()
	}
	return nil
}

// mutationResponse is the body of /insert, /delete, and /bulkload.
type mutationResponse struct {
	// Applied is 1 for insert, the records-removed count for delete, and
	// the records-loaded count for bulkload.
	Applied int    `json:"applied"`
	Len     int    `json:"len"`
	Epoch   uint64 `json:"epoch"`
}

// handleInsert serves POST /insert: one record.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req recordJSON
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	rec, err := req.toRecord()
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.idx.Insert(rec.Rect, rec.ID); err != nil {
		writeError(w, err)
		return
	}
	if err := s.afterMutation(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{Applied: 1, Len: s.idx.Len(), Epoch: s.idx.CommitEpoch()})
}

// handleDelete serves POST /delete: remove one record by ID; the hint
// rect must cover the rectangle originally inserted.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.ID == 0 {
		writeError(w, badRequest("delete needs a nonzero id"))
		return
	}
	if req.Hint == nil {
		writeError(w, badRequest("delete needs a hint rect covering the inserted rect"))
		return
	}
	hint, err := req.Hint.toRect()
	if err != nil {
		writeError(w, err)
		return
	}
	n, err := s.idx.Delete(segidx.RecordID(req.ID), hint)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.afterMutation(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{Applied: n, Len: s.idx.Len(), Epoch: s.idx.CommitEpoch()})
}

// handleBulkload serves POST /bulkload: insert a batch of records through
// the InsertBatch worker pool. On error the batch may be partially
// applied (see segidx.InsertBatch); the epoch is bumped regardless so no
// stale cache entry survives a partial load.
func (s *Server) handleBulkload(w http.ResponseWriter, r *http.Request) {
	var req bulkloadRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Records) == 0 {
		writeError(w, badRequest(`body needs a non-empty "records" array`))
		return
	}
	if len(req.Records) > maxBulkRecords {
		writeError(w, badRequest("bulkload of %d records exceeds the %d-record limit",
			len(req.Records), maxBulkRecords))
		return
	}
	recs := make([]segidx.BulkRecord, len(req.Records))
	for i := range req.Records {
		rec, err := req.Records[i].toRecord()
		if err != nil {
			writeError(w, err)
			return
		}
		recs[i] = rec
	}
	if err := s.idx.InsertBatch(r.Context(), recs); err != nil {
		// Workers may have inserted a prefix before the failure; each of
		// those inserts already bumped the commit epoch, so cached results
		// computed against the old state are invalid without further action.
		writeError(w, err)
		return
	}
	if err := s.afterMutation(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{
		Applied: len(recs), Len: s.idx.Len(), Epoch: s.idx.CommitEpoch(),
	})
}

// Metrics is the /metrics document: server, cache, per-endpoint, and
// engine counters in one JSON object (expvar-style: flat, scrapeable,
// monotonic counters plus gauges).
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Epoch         uint64  `json:"epoch"`
	Mutations     uint64  `json:"mutations"`

	Cache CacheStats `json:"cache"`

	Endpoints map[string]EndpointStats `json:"endpoints"`

	Engine EngineStats `json:"engine"`
}

// EngineStats surfaces the index's own counters through /metrics.
type EngineStats struct {
	Kind        string             `json:"kind"`
	Len         int                `json:"len"`
	Height      int                `json:"height"`
	Nodes       int                `json:"nodes"`
	Parallelism int                `json:"parallelism"`
	Shards      int                `json:"shards"`
	ShardLens   []int              `json:"shard_lens"`
	Stats       segidx.Stats       `json:"stats"`
	Pool        segidx.PoolStats   `json:"pool"`
	ShardPools  []segidx.PoolStats `json:"shard_pools"`
	// Accel lists the per-shard stab-accelerator sidecars (absent when
	// none is attached).
	Accel []segidx.AccelStats `json:"accel,omitempty"`
}

// snapshotMetrics assembles the full metrics document.
func (s *Server) snapshotMetrics() Metrics {
	m := Metrics{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Epoch:         s.idx.CommitEpoch(),
		Mutations:     s.mutations.Load(),
		Cache:         s.cache.stats(),
		Endpoints: map[string]EndpointStats{
			"search":   s.search.snapshot(),
			"stab":     s.stab.snapshot(),
			"count":    s.count.snapshot(),
			"insert":   s.insert.snapshot(),
			"delete":   s.delete.snapshot(),
			"bulkload": s.bulkload.snapshot(),
			"metrics":  s.metrics.snapshot(),
		},
		Engine: EngineStats{
			Kind:        s.idx.Kind(),
			Len:         s.idx.Len(),
			Height:      s.idx.Height(),
			Nodes:       s.idx.NodeCount(),
			Parallelism: s.idx.Parallelism(),
			Shards:      s.idx.Shards(),
			ShardLens:   s.idx.ShardLens(),
			Stats:       s.idx.Stats(),
			Pool:        s.idx.PoolStats(),
			ShardPools:  s.idx.ShardPoolStats(),
			Accel:       s.idx.AccelStats(),
		},
	}
	return m
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

// healthResponse is the body of /healthz.
type healthResponse struct {
	Status string `json:"status"`
	Len    int    `json:"len"`
	Shards int    `json:"shards"`
}

// handleHealthz serves GET /healthz: a cheap liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status: "ok",
		Len:    s.idx.Len(),
		Shards: s.idx.Shards(),
	})
}
