package server

import (
	"context"
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

// writeJSON writes v as the JSON response body with the given status,
// which it returns. It serves the cold bodies (errors, /metrics,
// /healthz); the hot ones are appended (encode.go).
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// An encode failure past WriteHeader cannot be reported to the
	// client; the connection error is the client's signal.
	_ = enc.Encode(v)
	return status
}

// writeError maps err to its HTTP status, writes the JSON error body and
// returns the status. The mapping is: decoder errors carry their own
// status (400/413), engine validation errors are 400, a broken store is
// 503 (the daemon is up but its durable state refuses further writes),
// everything else is 500.
func writeError(w http.ResponseWriter, err error) int {
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
	return writeJSON(w, status, errorJSON{Error: err.Error()})
}

// instrument wraps a handler, which returns the status it wrote, with
// method enforcement, request counting, and latency observation.
func (s *Server) instrument(m *epMetrics, method string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Add(1)
		var status int
		if r.Method != method {
			w.Header().Set("Allow", method)
			status = writeJSON(w, http.StatusMethodNotAllowed,
				errorJSON{Error: "method " + r.Method + " not allowed; use " + method})
		} else {
			status = h(w, r)
		}
		if status >= 400 {
			m.errors.Add(1)
		}
		m.latency.observe(time.Since(start))
	}
}

// handleSearch serves POST /search: records intersecting each query rect,
// deduplicated by ID, through the SearchBatch worker pool.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) int {
	var req searchRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return writeError(w, err)
	}
	rects, err := req.rects()
	if err != nil {
		return writeError(w, err)
	}
	return serveCachedQueries(r.Context(), s, w, "results", rects,
		func(q segidx.Rect) string { return searchKey("search", q) },
		s.idx.SearchBatch, appendEntries)
}

// handleStab serves POST /stab: records containing each query point (the
// paper's stabbing query) through the StabBatch worker pool.
func (s *Server) handleStab(w http.ResponseWriter, r *http.Request) int {
	var req stabRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return writeError(w, err)
	}
	points, err := req.points()
	if err != nil {
		return writeError(w, err)
	}
	return serveCachedQueries(r.Context(), s, w, "results", points, stabKey,
		s.idx.StabBatch, appendEntries)
}

// handleCount serves POST /count: the number of records intersecting each
// query rect. Counts ride the same cache as search results.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) int {
	var req searchRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return writeError(w, err)
	}
	rects, err := req.rects()
	if err != nil {
		return writeError(w, err)
	}
	return serveCachedQueries(r.Context(), s, w, "counts", rects,
		func(q segidx.Rect) string { return searchKey("count", q) },
		s.countRects, appendCount)
}

// countRects answers /count's cache misses, one Count per rect.
func (s *Server) countRects(_ context.Context, rects []segidx.Rect) ([]int, error) {
	out := make([]int, len(rects))
	for i, rc := range rects {
		n, err := s.idx.Count(rc)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
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

// handleInsert serves POST /insert: one record.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) int {
	var req recordJSON
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return writeError(w, err)
	}
	rec, err := req.toRecord()
	if err != nil {
		return writeError(w, err)
	}
	if err := s.idx.Insert(rec.Rect, rec.ID); err != nil {
		return writeError(w, err)
	}
	if err := s.afterMutation(); err != nil {
		return writeError(w, err)
	}
	return s.writeMutation(w, 1)
}

// handleDelete serves POST /delete: remove one record by ID; the hint
// rect must cover the rectangle originally inserted.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) int {
	var req deleteRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return writeError(w, err)
	}
	if req.ID == 0 {
		return writeError(w, badRequest("delete needs a nonzero id"))
	}
	if req.Hint == nil {
		return writeError(w, badRequest("delete needs a hint rect covering the inserted rect"))
	}
	hint, err := req.Hint.toRect()
	if err != nil {
		return writeError(w, err)
	}
	n, err := s.idx.Delete(segidx.RecordID(req.ID), hint)
	if err != nil {
		return writeError(w, err)
	}
	if err := s.afterMutation(); err != nil {
		return writeError(w, err)
	}
	return s.writeMutation(w, n)
}

// handleBulkload serves POST /bulkload: insert a batch of records through
// the InsertBatch worker pool. On error the batch may be partially
// applied (see segidx.InsertBatch); the epoch is bumped regardless so no
// stale cache entry survives a partial load.
func (s *Server) handleBulkload(w http.ResponseWriter, r *http.Request) int {
	var req bulkloadRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return writeError(w, err)
	}
	if len(req.Records) == 0 {
		return writeError(w, badRequest(`body needs a non-empty "records" array`))
	}
	if len(req.Records) > maxBulkRecords {
		return writeError(w, badRequest("bulkload of %d records exceeds the %d-record limit",
			len(req.Records), maxBulkRecords))
	}
	recs := make([]segidx.BulkRecord, len(req.Records))
	for i := range req.Records {
		rec, err := req.Records[i].toRecord()
		if err != nil {
			return writeError(w, err)
		}
		recs[i] = rec
	}
	if err := s.idx.InsertBatch(r.Context(), recs); err != nil {
		// Workers may have inserted a prefix before the failure; each of
		// those inserts already bumped the commit epoch, so cached results
		// computed against the old state are invalid without further action.
		return writeError(w, err)
	}
	if err := s.afterMutation(); err != nil {
		return writeError(w, err)
	}
	return s.writeMutation(w, len(recs))
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
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

// healthResponse is the body of /healthz.
type healthResponse struct {
	Status string `json:"status"`
	Len    int    `json:"len"`
	Shards int    `json:"shards"`
}

// handleHealthz serves GET /healthz: a cheap liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, healthResponse{
		Status: "ok",
		Len:    s.idx.Len(),
		Shards: s.idx.Shards(),
	})
}
