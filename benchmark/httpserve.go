package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"segidx"
	"segidx/internal/geom"
	"segidx/internal/server"
	"segidx/internal/workload"
)

// http_serve: the only workload with internal/server, net/http and the
// forest router on the path. The real handler serves a durable 2-shard
// forest of I3 on a loopback listener; one keep-alive connection sends
// 45 % /stab, 40 % /search, 10 % /count and 5 % /insert + /delete, the
// reads drawn Zipf(1.1) from 2048 distinct queries so the epoch-keyed
// result cache sees hits, misses and — because of the writes —
// invalidations. Engine time is a small share of a request here by
// construction: an engine speed-up predicts no change, a codec, cache or
// router change predicts a move.
//
// The timed phase is a closed loop over one connection: the client sends
// its next request when the reply arrives, so client and server take turns
// and at most one of them is busy. Two connections were tried first: with
// the client goroutines and the server's, four runnable goroutines then
// share the reference box's two vCPUs, a request's latency depends on
// whether the other connection's work is in its way and on how much of
// the second vCPU the host grants, and the medians moved by more than a
// quarter between runs of the same code (and sat a fifth above the
// one-connection figures). Independent callers would make an open
// loop, and the traced run does drive one at a fixed rate (timed from
// each request's due time, lateness reported), but only as a per-layer
// probe: on the reference box a goroutine that sleeps until its next send
// oversleeps by more than a millisecond about one time in ten
// (gen.late_frac), and parked server threads wake as slowly, so open-loop
// latencies there are the guest's timer and wake-up latency, several times
// the closed-loop figures. The server group-commits every flushEvery
// acknowledged mutations, as temporal_rw's writer does.

const (
	// httpRate is the open-loop probe's fixed request rate: a little under
	// half of what the closed loop sustains on the reference box, rounded
	// to 500 req/s. Never retune it.
	httpRate = 4000.0
	// httpShards and httpCache are the served configuration.
	httpShards = 2
	httpCache  = 4096
	// queryPool is the number of distinct read queries; zipfS the skew.
	queryPool = 2048
	zipfS     = 1.1
	// hopsLen is the length of the connection's pre-generated request
	// cycle.
	hopsLen = 16384
	// tracedRequests fixes each pass of the traced run.
	tracedRequests = 4000
	// lateProbe is the length of the traced run's open-loop probe (or
	// -seconds, if that is shorter).
	lateProbe = 3 * time.Second
)

// Op classes of http_serve: /search and /stab line up with opRange and
// opStab so the end-to-end latency names mean the same everywhere; the
// remaining endpoints only count toward throughput.
const (
	opOther     = queryClasses
	httpClasses = queryClasses + 1
)

type endpoint uint8

const (
	reqStab endpoint = iota
	reqSearch
	reqCount
	reqWrite // alternately /insert and /delete
)

func (e endpoint) class() int {
	switch e {
	case reqStab:
		return opStab
	case reqSearch:
		return opRange
	}
	return opOther
}

// hop is one pre-generated request: an endpoint and, for reads, which of
// the pooled queries it asks.
type hop struct {
	ep   endpoint
	slot int32
}

// poolQuery is one of the distinct read queries with its request bodies
// built once.
type poolQuery struct {
	point              []float64
	rect               geom.Rect
	stabBody, rectBody []byte
}

type rectJSON struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s from the workload's
// own generator, so streams do not depend on math/rand's implementation.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	cum := make([]float64, n)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	return zipf{cum}
}

func (z zipf) draw(rng *workload.RNG) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// hopStream generates the connection's request cycle.
func hopStream(seed uint64) []hop {
	rng := workload.NewRNG(seed ^ 0x4877)
	z := newZipf(queryPool, zipfS)
	hops := make([]hop, hopsLen)
	for i := range hops {
		slot := int32(z.draw(rng))
		switch u := rng.Float64(); {
		case u < 0.45:
			hops[i] = hop{reqStab, slot}
		case u < 0.85:
			hops[i] = hop{reqSearch, slot}
		case u < 0.95:
			hops[i] = hop{reqCount, slot}
		default:
			hops[i] = hop{ep: reqWrite}
		}
	}
	return hops
}

// queryPoolFor builds the distinct read queries: stab points on stored
// segments, search rectangles of the paper's area at QAR 0.1, 1 and 10.
func queryPoolFor(data []geom.Rect, seed uint64) ([]poolQuery, error) {
	rng := workload.NewRNG(seed ^ 0x9001)
	qars := []float64{0.1, 1, 10}
	pool := make([]poolQuery, queryPool)
	for k := range pool {
		r := data[rng.Intn(len(data))]
		p := &pool[k]
		p.point = []float64{rng.Uniform(r.Min[0], math.Nextafter(r.Max[0], math.Inf(1))), r.Min[1]}
		p.rect = workload.Query(rng.Uniform(workload.DomainLo, workload.DomainHi),
			rng.Uniform(workload.DomainLo, workload.DomainHi), qars[k%len(qars)])
		var err error
		if p.stabBody, err = json.Marshal(map[string]any{"point": p.point}); err != nil {
			return nil, err
		}
		if p.rectBody, err = json.Marshal(map[string]any{"rect": rectJSON{p.rect.Min, p.rect.Max}}); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

type httpBench struct {
	cfg config
	r   *report
	tr  *tracer

	dir, path string
	data      []geom.Rect
	extra     []geom.Rect // records the writes insert
	pool      []poolQuery
	m         *model

	idx      *segidx.Index
	srv      *server.Server
	httpSrv  *http.Server
	served   chan struct{}
	base     string
	client   *http.Client
	conn     *hconn
	baseHeap float64

	built
}

func newHTTPBench(cfg config, r *report, tr *tracer) *httpBench {
	return &httpBench{cfg: cfg, r: r, tr: tr}
}

// tracedHandler records a span around the server's handler — the
// server layer seen from outside.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := t.tr.begin("server.handler")
	t.h.ServeHTTP(w, r)
	t.tr.end(sp)
}

func (b *httpBench) setup() error {
	t0 := time.Now()
	b.data = workload.I3.Generate(b.cfg.tuples, dataSeed)
	b.extra = workload.I3.Generate(b.cfg.tuples/2, dataSeed+1)
	var err error
	if b.pool, err = queryPoolFor(b.data, b.cfg.seed); err != nil {
		return err
	}
	b.conn = &hconn{b: b, hops: hopStream(b.cfg.seed), nextID: uint64(len(b.data) + 1)}
	b.genDur = time.Since(t0)

	if b.dir, err = freshDir(b.cfg); err != nil {
		return err
	}
	b.path = filepath.Join(b.dir, "forest")
	b.m = newModel(len(b.data))
	b.baseHeap = heapMiB()
	b.idx, err = newSkeletonSR(spec(workload.I3, b.cfg.tuples),
		segidx.WithDurableFile(b.path), segidx.WithShards(httpShards))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := load(b.idx, b.m, b.data); err != nil {
		return err
	}
	if err := b.idx.Flush(); err != nil {
		return err
	}
	b.buildDur = time.Since(t0)
	b.loadStats, b.loaded = b.idx.Stats(), len(b.data)

	b.srv = server.New(b.idx, server.Config{CacheEntries: httpCache, FlushEvery: flushEvery})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.httpSrv = &http.Server{Handler: tracedHandler{b.srv.Handler(), b.tr}}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.httpSrv.Serve(ln) // always ErrServerClosed once close() shuts it down
	}()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}

	// Warm-up: a quarter cycle, which opens the connection and fills the
	// result cache's hot end.
	for i := 0; i < hopsLen/4; i++ {
		if _, err := b.conn.next(); err != nil {
			return err
		}
	}
	return nil
}

// hconn is the connection's request state.
type hconn struct {
	b    *httpBench
	hops []hop
	i    int

	nextID uint64   // the next id to insert
	mine   []uint64 // the inserted records still live, oldest first
	xi     int      // next of b.extra to insert
	reads  int
	body   bytes.Buffer // last response
}

// post sends one request and leaves the response in hc.body.
func (hc *hconn) post(path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, hc.b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.b.client.Do(req)
	if err != nil {
		return err
	}
	hc.body.Reset()
	_, err = hc.body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(hc.body.Bytes()))
	}
	return err
}

// readRequest returns the path and body of a read hop.
func (b *httpBench) readRequest(h hop) (string, []byte) {
	q := &b.pool[h.slot]
	switch h.ep {
	case reqStab:
		return "/stab", q.stabBody
	case reqSearch:
		return "/search", q.rectBody
	}
	return "/count", q.rectBody
}

// next sends the connection's next request and returns its op class. A
// request that errors or is refused counts as failed; only a transport
// that stops working altogether is returned as an error.
func (hc *hconn) next() (int, error) {
	h := hc.hops[hc.i%len(hc.hops)]
	hc.i++
	hc.b.r.attempt.Add(1)
	if h.ep == reqWrite {
		if err := hc.write(); err != nil {
			hc.b.r.fail("write: %v", err)
		}
		return opOther, nil
	}
	path, body := hc.b.readRequest(h)
	if err := hc.post(path, body); err != nil {
		hc.b.r.fail("%v", err)
	}
	hc.reads++
	return h.ep.class(), nil
}

// write alternates between inserting a fresh record and deleting the
// oldest record inserted, so the index keeps its size.
func (hc *hconn) write() error {
	b := hc.b
	if len(hc.mine) > 0 && hc.i%2 == 0 {
		id := hc.mine[0]
		b.m.mu.Lock()
		hint, _ := b.m.rectLocked(id) // ids in mine are live
		b.m.mu.Unlock()
		body, err := json.Marshal(map[string]any{"id": id, "hint": rectJSON{hint.Min, hint.Max}})
		if err != nil {
			return err
		}
		if err := hc.post("/delete", body); err != nil {
			return err
		}
		hc.mine = hc.mine[1:]
		b.m.mu.Lock()
		defer b.m.mu.Unlock()
		_, err = b.m.removeLocked(id)
		return err
	}
	id, r := hc.nextID, b.extra[hc.xi%len(b.extra)]
	hc.nextID++
	hc.xi++
	body, err := json.Marshal(map[string]any{"id": id, "rect": rectJSON{r.Min, r.Max}})
	if err != nil {
		return err
	}
	if err := hc.post("/insert", body); err != nil {
		return err
	}
	hc.mine = append(hc.mine, id)
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	return b.m.insertLocked(id, r)
}

// queryResponse is what a check reads out of a /stab, /search or /count
// reply.
type queryResponse struct {
	Results [][]struct {
		ID uint64 `json:"id"`
	} `json:"results"`
	Counts []int `json:"counts"`
}

// check re-sends read hop h and compares the reply with the model: with
// one connection no write can be in flight, so the model is exactly the
// served state.
func (hc *hconn) check(h hop) {
	b := hc.b
	b.r.attempt.Add(1)
	path, body := b.readRequest(h)
	if err := hc.post(path, body); err != nil {
		b.r.fail("check: %v", err)
		return
	}
	var resp queryResponse
	if err := json.Unmarshal(hc.body.Bytes(), &resp); err != nil {
		b.r.fail("check %s: %v", path, err)
		return
	}
	q := &b.pool[h.slot]
	pred := intersecting(q.rect)
	if h.ep == reqStab {
		pred = containingPoint(q.point)
	}
	want := b.m.ids(b.m.now(), pred)
	switch {
	case h.ep == reqCount:
		if len(resp.Counts) != 1 || resp.Counts[0] != len(want) {
			b.r.fail("/count %v: server says %v, model %d", q.rect, resp.Counts, len(want))
		}
	case len(resp.Results) != 1:
		b.r.fail("%s: %d result lists", path, len(resp.Results))
	default:
		got := make([]uint64, len(resp.Results[0]))
		for i, e := range resp.Results[0] {
			got[i] = e.ID
		}
		if !sameIDs(got, want) {
			b.r.fail("%s slot %d: server reports %d ids, model %d", path, h.slot, len(got), len(want))
		}
	}
}

// step is one iteration of a measured loop: the next request, timed from
// since (zero: from now) and wrapped in a request span when tracing, and
// after every checkEvery-th read a check of that same read, outside its
// timing.
func (hc *hconn) step(since time.Time) (class int, latency time.Duration, err error) {
	h := hc.hops[hc.i%len(hc.hops)]
	if since.IsZero() {
		since = time.Now()
	}
	hc.b.tr.nextReq()
	sp := hc.b.tr.begin("http.request")
	class, err = hc.next()
	latency = time.Since(since)
	hc.b.tr.end(sp)
	if err == nil && h.ep != reqWrite && hc.reads%checkEvery == 0 {
		hc.check(h)
	}
	return class, latency, err
}

// openProbe drives the open loop for dur at httpRate and returns the
// reads' latencies (from due time) and the generator's late fraction.
func (b *httpBench) openProbe(dur time.Duration) (*hist, float64, error) {
	var firstErr error
	reads := new(hist)
	sent, late := openLoop(httpRate, dur, func(due time.Time) {
		class, latency, err := b.conn.step(due)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if class != opOther {
			reads.add(latency)
		}
	})
	return reads, float64(late) / math.Max(1, float64(sent)), firstErr
}

func (b *httpBench) measure() error {
	l := make(lat, httpClasses)
	start := time.Now()
	for time.Since(start) < b.cfg.seconds {
		class, d, err := b.conn.step(time.Time{})
		if err != nil {
			return err
		}
		l[class].add(d)
	}
	phase := time.Since(start)
	n := l[opStab].n + l[opRange].n + l[opOther].n
	b.r.set("heap_mb", heapMiB()-b.baseHeap, "live heap after GC, server up, minus the benchmark's own data")
	b.r.set("ops_s", float64(n)/phase.Seconds(),
		fmt.Sprintf("%d requests in %.2f s, 1 closed-loop connection, all endpoints", n, phase.Seconds()))
	reportReads(b.r, &l[opStab], &l[opRange])

	return diskSpaceAmp(b.r, b.idx, b.dir, "manifest, shard page files, WALs")
}

// metricsDoc fetches the server's own /metrics document in process.
func (b *httpBench) metricsDoc() (server.Metrics, error) {
	var m server.Metrics
	rec := httptest.NewRecorder()
	b.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return m, json.Unmarshal(rec.Body.Bytes(), &m)
}

func (b *httpBench) traced() error {
	r, hc := b.r, b.conn

	// Pass A: one connection over loopback, untraced.
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < tracedRequests; i++ {
		if _, _, err := hc.step(time.Time{}); err != nil {
			return err
		}
	}
	plain := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	// Pass B: the same, traced. The client records a span per request; the
	// handler wrapper records its child on the server goroutine.
	m0, err := b.metricsDoc()
	if err != nil {
		return err
	}
	pool0 := b.idx.PoolStats()
	var nodes, count [httpClasses]float64
	var loop, net, hit, miss []float64
	var respBytes int
	b.tr.on.Store(true)
	t0 = time.Now()
	for i := 0; i < tracedRequests; i++ {
		s0, first := b.idx.Stats(), b.tr.len()
		class, _, err := hc.step(time.Time{})
		if err != nil {
			return err
		}
		nodes[class] += float64(b.idx.Stats().SearchNodeAccesses - s0.SearchNodeAccesses)
		count[class]++
		respBytes += hc.body.Len()
		spans := b.tr.since(first)
		if class == opOther || len(spans) < 2 {
			continue // writes are neither hit nor miss
		}
		req, handler := spans[0], spans[1] // a check's own handler span, if any, follows these
		loop = append(loop, float64(req.End-req.Start))
		net = append(net, float64(req.End-req.Start-(handler.End-handler.Start)))
		if bytes.Contains(hc.body.Bytes(), []byte(`"cached":1`)) {
			hit = append(hit, float64(handler.End-handler.Start))
		} else {
			miss = append(miss, float64(handler.End-handler.Start))
		}
	}
	tracedDur := time.Since(t0)
	b.tr.on.Store(false)
	runtime.ReadMemStats(&ms2)
	m1, err := b.metricsDoc()
	if err != nil {
		return err
	}
	pool1 := b.idx.PoolStats()

	n := float64(tracedRequests)
	us := func(vs []float64, q float64) float64 { return quantileOf(vs, q) / 1e3 }
	r.set("server.loopback_p50_us", us(loop, 0.5), fmt.Sprintf("n=%d reads, 1 connection", len(loop)))
	r.set("server.net_p50_us", us(net, 0.5), "request span minus handler span: client, TCP, net/http")
	r.set("server.handler_hit_p50_us", us(hit, 0.5), fmt.Sprintf("n=%d", len(hit)))
	r.set("server.handler_miss_p50_us", us(miss, 0.5), fmt.Sprintf("n=%d", len(miss)))
	hits, misses := float64(m1.Cache.Hits-m0.Cache.Hits), float64(m1.Cache.Misses-m0.Cache.Misses)
	r.set("server.cache_hit_rate", hits/math.Max(1, hits+misses), fmt.Sprintf("of %.0f lookups", hits+misses))
	r.set("server.cache_invalidations_per_s", float64(m1.Cache.Invalidations-m0.Cache.Invalidations)/tracedDur.Seconds(), "")
	r.set("server.resp_bytes_per_req", float64(respBytes)/n, "")
	r.set("core.nodes_per_range", nodes[opRange]/math.Max(1, count[opRange]), fmt.Sprintf("n=%.0f /search, cache hits cost 0", count[opRange]))
	r.set("core.nodes_per_stab", nodes[opStab]/math.Max(1, count[opStab]), fmt.Sprintf("n=%.0f /stab, cache hits cost 0", count[opStab]))
	gets := float64(pool1.Gets - pool0.Gets)
	r.set("buffer.hit_rate", float64(pool1.Hits-pool0.Hits)/math.Max(1, gets), fmt.Sprintf("of %.0f gets", gets))
	reportRuntime(r, &ms0, &ms1, &ms2, n, plain, tracedDur)

	facade, err := b.facadePass(hc)
	if err != nil {
		return err
	}
	r.set("server.codec_p50_us", us(miss, 0.5)-facade, "handler miss minus facade: decode, cache, encode")
	if err := b.inProcessPass(hc); err != nil {
		return err
	}
	probe := min(lateProbe, b.cfg.seconds)
	open, lateFrac, err := b.openProbe(probe)
	if err != nil {
		return err
	}
	note := fmt.Sprintf("n=%d reads, open loop at %.0f req/s on 1 connection for %v, from due time", open.n, httpRate, probe)
	r.set("server.open_loop_p50_us", open.quantile(0.5)/1e3, note)
	r.set("server.open_loop_p99_us", open.quantile(0.99)/1e3, note)
	r.set("gen.late_frac", lateFrac, fmt.Sprintf("sends that left more than %v after they could have", lateAfter))

	if err := b.built.report(r, b.idx); err != nil {
		return err
	}
	preds := make([]func(geom.Rect) bool, 200)
	for i := range preds {
		preds[i] = intersecting(b.pool[i].rect)
	}
	flatScan(r, b.m, preds)
	return b.tr.writeTrace(filepath.Join(b.cfg.dir, "trace-"+b.cfg.workload+".json"))
}

// readHops returns the first n read hops of the connection's cycle.
func readHops(hc *hconn, n int) []hop {
	out := make([]hop, 0, n)
	for _, h := range hc.hops {
		if h.ep != reqWrite {
			if out = append(out, h); len(out) == n {
				break
			}
		}
	}
	return out
}

// facadePass issues the read stream straight at the 2-shard facade, the
// way the handler does on a cache miss, and reports the router's share:
// the facade's median latency, shards searched per query, and how evenly
// the records spread.
func (b *httpBench) facadePass(hc *hconn) (p50us float64, err error) {
	hops := readHops(hc, tracedRequests)
	ctx := context.Background()
	durs := make([]float64, 0, len(hops))
	before := b.idx.ShardStats()
	for _, h := range hops {
		q := &b.pool[h.slot]
		t0 := time.Now()
		switch h.ep {
		case reqStab:
			_, err = b.idx.StabBatch(ctx, [][]float64{q.point})
		case reqSearch:
			_, err = b.idx.SearchBatch(ctx, []segidx.Rect{q.rect})
		default:
			_, err = b.idx.Count(q.rect)
		}
		if err != nil {
			return 0, err
		}
		durs = append(durs, float64(time.Since(t0).Nanoseconds()))
	}
	var searched uint64
	for i, s := range b.idx.ShardStats() {
		searched += s.Searches - before[i].Searches
	}
	lens, most, sum := b.idx.ShardLens(), 0, 0
	for _, l := range lens {
		sum += l
		if l > most {
			most = l
		}
	}
	p50us = quantileOf(durs, 0.5) / 1e3
	b.r.set("forest.facade_p50_us", p50us, fmt.Sprintf("n=%d reads, no HTTP, no cache", len(durs)))
	b.r.set("forest.shards_touched_per_query", float64(searched)/float64(len(hops)), fmt.Sprintf("of %d shards", len(lens)))
	b.r.set("forest.shard_skew", float64(most)*float64(len(lens))/float64(sum), fmt.Sprintf("max / mean of shard sizes %v", lens))
	return p50us, nil
}

// inProcessPass drives the handler through a ResponseRecorder, with no
// socket, to count what one request allocates inside the server.
func (b *httpBench) inProcessPass(hc *hconn) error {
	hops := readHops(hc, tracedRequests)
	h := b.srv.Handler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, hp := range hops {
		path, body := b.readRequest(hp)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: status %d", path, rec.Code)
		}
	}
	runtime.ReadMemStats(&ms1)
	b.r.set("server.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(hops)), "handler in process, recorder and request included")
	return nil
}

// finish shuts the server down, closes the forest, reopens it from disk
// and checks it against the model: size, invariants, 200 of the pooled
// queries.
func (b *httpBench) finish() error {
	if err := b.stopServer(); err != nil {
		return err
	}
	if err := b.idx.Close(); err != nil {
		return err
	}
	b.idx = nil
	t0 := time.Now()
	b.r.attempt.Add(2)
	re, err := segidx.OpenDurable(b.path)
	if err != nil {
		b.r.fail("reopen: %v", err)
		return nil
	}
	defer re.Close()
	b.m.mu.Lock()
	live := b.m.liveLocked()
	b.m.mu.Unlock()
	if re.Len() != live {
		b.r.fail("reopened forest holds %d records, model %d", re.Len(), live)
	}
	if err := re.CheckInvariants(); err != nil {
		b.r.fail("reopened forest: %v", err)
	}
	at := b.m.now()
	for k := 0; k < 200; k++ {
		q := &b.pool[k*len(b.pool)/200]
		ents, err := re.Search(q.rect)
		if err != nil {
			return err
		}
		got := make([]uint64, len(ents))
		for i, e := range ents {
			got[i] = uint64(e.ID)
		}
		b.r.attempt.Add(1)
		if want := b.m.ids(at, intersecting(q.rect)); !sameIDs(got, want) {
			b.r.fail("reopened forest, %v: %d ids, model %d", q.rect, len(got), len(want))
		}
	}
	b.r.set("store.reopen_ms", float64(time.Since(t0).Microseconds())/1e3, "OpenDurable + Len + CheckInvariants + 200 checked searches")
	return nil
}

// stopServer shuts the listener down, waits for the serving goroutine and
// flushes acknowledged writes.
func (b *httpBench) stopServer() error {
	if b.httpSrv == nil {
		return nil
	}
	b.client.CloseIdleConnections()
	err := b.httpSrv.Close()
	<-b.served
	b.httpSrv = nil
	if ferr := b.srv.Close(); err == nil {
		err = ferr
	}
	return err
}

func (b *httpBench) close() error {
	err := b.stopServer()
	if b.idx != nil {
		if cerr := b.idx.Close(); err == nil {
			err = cerr
		}
	}
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}
