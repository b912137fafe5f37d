package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"segidx"
	"segidx/internal/geom"
	"segidx/internal/harness"
	"segidx/internal/store"
	"segidx/internal/workload"
)

// mem_query and cold_query: the same I3 data, the same query stream and
// the same closed-loop client; only the store and the pool budget
// differ. One client, although the reference box has two vCPUs: with both
// busy the host withholds about a third of the CPU time in stalls of up to
// 30 ms (steal time in /proc/stat shows it), which would be the only thing
// the tails and the throughput measured. mem_query keeps every page resident (MemStore, unlimited pool),
// so tree descent and geometry predicates do all the work; cold_query
// reads through a FileStore with a pool holding about one eighth of the
// pages, so pool misses, page decode and store reads dominate. A change
// to the pool, the codec or the page layout must show in cold_query and
// not in mem_query; a traversal change must show in both.

// Op classes of the query workloads.
const (
	opRange = iota // SearchFunc over a paper query rectangle
	opStab         // StabFunc at a point on a stored segment
	queryClasses
)

const (
	// streamLen is the length of the client's pre-generated op cycle: long
	// enough that a p99 rests on hundreds of distinct queries and so
	// depends little on which ones a seed happens to draw.
	streamLen = 65536
	// warmOps is the length of the warm-up pass over the head of the cycle.
	warmOps = 8192
	// rangeShare is the fraction of ops that are range searches.
	rangeShare = 0.7
	// tracedQueryOps is the fixed op count of each pass of the traced run,
	// over the head of the cycle.
	tracedQueryOps = 16384
	// coldPoolBytes is cold_query's pool budget: about one eighth of the
	// ≈8 MiB of pages the index occupies at 100 000 tuples.
	coldPoolBytes = 1 << 20
)

// qop is one pre-generated query. For a stab, rect is the degenerate
// rectangle at the point. want is the model's answer at the positions
// that are checked, nil elsewhere.
type qop struct {
	kind int
	rect geom.Rect
	want []uint64
}

// queryStream generates the client's op cycle: rangeShare of the ops are
// range searches drawn evenly from the paper's 13 query aspect ratios
// (workload.Queries), the rest are point stabs on a random stored segment
// at a random position along it, so a stab always has an answer.
func queryStream(data []geom.Rect, seed uint64) []qop {
	rng := workload.NewRNG(seed ^ 0x5eed0000)
	qars := workload.QARs()
	perQAR := streamLen/len(qars) + 1
	ranges := make([][]geom.Rect, len(qars))
	for i, q := range qars {
		ranges[i] = workload.Queries(q, perQAR, seed)
	}
	ops := make([]qop, streamLen)
	nr := 0
	for i := range ops {
		if rng.Float64() < rangeShare {
			ops[i] = qop{kind: opRange, rect: ranges[nr%len(qars)][nr/len(qars)]}
			nr++
			continue
		}
		r := data[rng.Intn(len(data))]
		x := rng.Uniform(r.Min[0], math.Nextafter(r.Max[0], math.Inf(1)))
		ops[i] = qop{kind: opStab, rect: geom.Point(x, r.Min[1])}
	}
	return ops
}

// pred is the model predicate matching the op.
func (o *qop) pred() func(geom.Rect) bool {
	if o.kind == opRange {
		return intersecting(o.rect)
	}
	return containingPoint(o.rect.Min)
}

type queryBench struct {
	cfg  config
	cold bool
	r    *report
	tr   *tracer

	dir    string
	data   []geom.Rect
	stream []qop
	m      *model
	cfs    *countingFS
	cs     *countingStore
	idx    *segidx.Index

	baseHeap float64
	built
}

func newQueryBench(cfg config, r *report, tr *tracer, cold bool) *queryBench {
	return &queryBench{cfg: cfg, cold: cold, r: r, tr: tr}
}

func (b *queryBench) setup() error {
	t0 := time.Now()
	b.data = workload.I3.Generate(b.cfg.tuples, dataSeed)
	b.stream = queryStream(b.data, b.cfg.seed)
	b.genDur = time.Since(t0)

	var err error
	if b.dir, err = freshDir(b.cfg); err != nil {
		return err
	}
	b.baseHeap = heapMiB()
	opts := []segidx.Option{}
	if b.cold {
		b.cfs = &countingFS{inner: store.OS, tr: b.tr}
		if b.cs, err = openStore(b.cfs, filepath.Join(b.dir, "pages"), false, b.tr); err != nil {
			return err
		}
		opts = append(opts, segidx.WithPoolBytes(coldPoolBytes))
	} else {
		b.cs = newCountingStore(store.NewMemStore(), b.tr)
	}
	opts = append(opts, segidx.WithStore(b.cs))
	if b.idx, err = newSkeletonSR(spec(workload.I3, b.cfg.tuples), opts...); err != nil {
		return err
	}
	b.m = newModel(len(b.data))
	t0 = time.Now()
	if err := load(b.idx, b.m, b.data); err != nil {
		return err
	}
	if err := b.idx.Flush(); err != nil {
		return err
	}
	b.buildDur = time.Since(t0)
	b.loadStats, b.loaded = b.idx.Stats(), len(b.data)

	// The model's answers for the checked positions, so the timed phase
	// only has to compare.
	now := b.m.now()
	for i := 0; i < streamLen; i += checkEvery {
		o := &b.stream[i]
		o.want = b.m.ids(now, o.pred())
		if o.want == nil {
			o.want = []uint64{}
		}
	}
	// Warm-up, so pools, OS cache and pooled query contexts are in their
	// steady state before timing starts.
	cl := b.newClient()
	for i := 0; i < warmOps; i++ {
		if err := cl.do(&b.stream[i]); err != nil {
			return err
		}
	}
	return nil
}

// qclient is one client's reusable query state; its callback is
// allocated once so the timed loop allocates nothing.
type qclient struct {
	b       *queryBench
	n       int
	collect bool
	ids     []uint64
	fn      func(segidx.Entry) bool
}

func (b *queryBench) newClient() *qclient {
	cl := &qclient{b: b}
	cl.fn = func(e segidx.Entry) bool {
		cl.n++
		if cl.collect {
			cl.ids = append(cl.ids, uint64(e.ID))
		}
		return true
	}
	return cl
}

func (cl *qclient) do(o *qop) error {
	cl.n = 0
	if o.kind == opRange {
		return cl.b.idx.SearchFunc(o.rect, cl.fn)
	}
	return cl.b.idx.StabFunc(cl.fn, o.rect.Min...)
}

// check re-issues a sampled op, untimed, and compares the ids it reports
// with the model's answer.
func (cl *qclient) check(o *qop) {
	cl.collect, cl.ids = true, cl.ids[:0]
	err := cl.do(o)
	cl.collect = false
	if err != nil {
		cl.b.r.fail("check %v: %v", o.rect, err)
	} else if !sameIDs(cl.ids, o.want) {
		cl.b.r.fail("query %v: index reports %d ids, model %d", o.rect, len(cl.ids), len(o.want))
	}
}

func (b *queryBench) measure() error {
	l, cl := make(lat, queryClasses), b.newClient()
	var n int64
	start := time.Now()
	for ; ; n++ {
		o := &b.stream[n%streamLen]
		t0 := time.Now()
		if t0.Sub(start) >= b.cfg.seconds {
			break
		}
		err := cl.do(o)
		l[o.kind].add(time.Since(t0))
		if err != nil {
			b.r.fail("%v: %v", o.rect, err)
		} else if o.want != nil {
			cl.check(o)
		}
	}
	phase := time.Since(start)
	b.r.attempt.Add(n)
	b.r.set("heap_mb", heapMiB()-b.baseHeap, "live heap after GC, index open, minus the benchmark's own data")
	b.r.set("ops_s", float64(n)/phase.Seconds(), fmt.Sprintf("%d queries in %.2f s, 1 closed-loop client", n, phase.Seconds()))
	reportReads(b.r, &l[opStab], &l[opRange])
	if b.cold {
		return diskSpaceAmp(b.r, b.idx, b.dir, "page file")
	}
	_, held := b.cs.livePages()
	setSpaceAmp(b.r, held, b.idx.Len(), "allocated MemStore pages")
	return nil
}

func (b *queryBench) traced() error {
	r, ops, cl := b.r, b.stream, b.newClient()
	run := func(i int) error { return cl.do(&ops[i]) }

	// Pass A, untraced: the base of trace.overhead_frac and of the
	// allocation count.
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < tracedQueryOps; i++ {
		if err := run(i); err != nil {
			return err
		}
	}
	plain := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	// Pass B, traced: one span per facade call; the counting store adds a
	// child span per page read. Stats deltas around each op give the
	// paper's metric per op class.
	pool0, reads0 := b.idx.PoolStats(), b.cs.reads.Load()
	var nodes, count [queryClasses]uint64
	names := [queryClasses]string{"core.range", "core.stab"}
	b.tr.on.Store(true)
	t0 = time.Now()
	for i := 0; i < tracedQueryOps; i++ {
		o := &ops[i]
		s0 := b.idx.Stats()
		b.tr.nextReq()
		sp := b.tr.begin(names[o.kind])
		err := run(i)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		nodes[o.kind] += b.idx.Stats().SearchNodeAccesses - s0.SearchNodeAccesses
		count[o.kind]++
	}
	tracedDur := time.Since(t0)
	b.tr.on.Store(false)
	runtime.ReadMemStats(&ms2)
	pool1, reads := b.idx.PoolStats(), b.cs.reads.Load()-reads0
	r.attempt.Add(2 * tracedQueryOps)

	n := float64(tracedQueryOps)
	sum := summarize(b.tr.spans)
	per := func(total int64, cnt uint64) float64 { return float64(total) / math.Max(1, float64(cnt)) / 1e3 }
	r.set("core.nodes_per_range", float64(nodes[opRange])/float64(count[opRange]), fmt.Sprintf("n=%d, exact", count[opRange]))
	r.set("core.nodes_per_stab", float64(nodes[opStab])/float64(count[opStab]), fmt.Sprintf("n=%d, exact", count[opStab]))
	r.set("core.self_us_per_range", per(get(sum, "core.range").selfNs, count[opRange]), "facade span minus store.read spans")
	r.set("core.self_us_per_stab", per(get(sum, "core.stab").selfNs, count[opStab]), "facade span minus store.read spans")
	r.set("store.reads_per_query", float64(reads)/n, fmt.Sprintf("%d reads / %d queries", reads, tracedQueryOps))
	r.set("store.read_us_per_query", float64(get(sum, "store.read").totalNs)/n/1e3, "sum of store.read spans / queries")
	gets := float64(pool1.Gets - pool0.Gets)
	r.set("buffer.hit_rate", float64(pool1.Hits-pool0.Hits)/math.Max(1, gets), fmt.Sprintf("of %.0f gets", gets))
	r.set("buffer.misses_per_query", float64(pool1.Misses-pool0.Misses)/n, "")
	r.set("buffer.evictions_per_query", float64(pool1.Evictions-pool0.Evictions)/n, "")
	reportRuntime(r, &ms0, &ms1, &ms2, n, plain, tracedDur)
	if err := b.built.report(r, b.idx); err != nil {
		return err
	}
	if err := probeCodec(r, b.cs); err != nil {
		return err
	}
	preds := make([]func(geom.Rect) bool, 200)
	for i := range preds {
		preds[i] = ops[i].pred()
	}
	flatScan(r, b.m, preds)
	if !b.cold {
		if err := b.variants(float64(nodes[opRange]) / float64(count[opRange])); err != nil {
			return err
		}
	}
	return b.tr.writeTrace(filepath.Join(b.cfg.dir, "trace-"+b.cfg.workload+".json"))
}

// variants reproduces the paper's comparison on this run's range stream:
// average nodes accessed per search for each of the four index types,
// built over the same data. The skeleton SR-Tree is the index under test,
// so its figure is the one already measured.
func (b *queryBench) variants(skeletonSR float64) error {
	b.r.set("core.nodes_per_range.skeleton-sr-tree", skeletonSR, "the index under test")
	for kind, name := range map[harness.Kind]string{
		harness.KindRTree:         "r-tree",
		harness.KindSRTree:        "sr-tree",
		harness.KindSkeletonRTree: "skeleton-r-tree",
	} {
		idx, _, err := harness.Build(spec(workload.I3, b.cfg.tuples), kind)
		if err != nil {
			return err
		}
		before, ranges := idx.Stats(), 0
		for i := 0; i < tracedQueryOps; i++ {
			if o := &b.stream[i]; o.kind == opRange {
				ranges++
				if err := idx.SearchFunc(o.rect, func(segidx.Entry) bool { return true }); err != nil {
					idx.Close()
					return err
				}
			}
		}
		after := idx.Stats()
		if err := idx.Close(); err != nil {
			return err
		}
		b.r.set("core.nodes_per_range."+name, float64(after.SearchNodeAccesses-before.SearchNodeAccesses)/float64(ranges),
			fmt.Sprintf("n=%d, exact", ranges))
	}
	return nil
}

// finish validates the structure the run queried.
func (b *queryBench) finish() error {
	b.r.attempt.Add(2)
	if n := b.idx.Len(); n != len(b.data) {
		b.r.fail("index holds %d records, loaded %d", n, len(b.data))
	}
	if err := b.idx.CheckInvariants(); err != nil {
		b.r.fail("invariants: %v", err)
	}
	return nil
}

func (b *queryBench) close() error {
	var err error
	if b.idx != nil {
		err = b.idx.Close()
	}
	if b.cs != nil { // WithStore leaves the store to its owner
		if cerr := b.cs.Close(); err == nil {
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
