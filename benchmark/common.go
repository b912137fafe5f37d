package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"segidx"
	"segidx/internal/geom"
	"segidx/internal/harness"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
	"segidx/internal/workload"
)

// config is one run's parameters; everything else is fixed in the
// workload files so every commit measures the same thing.
type config struct {
	workload string
	seed     uint64        // draws the op streams; the datasets come from dataSeed
	seconds  time.Duration // length of the timed phase
	trace    bool
	tuples   int    // dataset size; the command always passes the constant tuples
	dir      string // scratch directory for page files, WALs and traces
}

// recordBytes is the user payload one record stands for — a 2-D rectangle
// of four float64 plus an 8-byte id — the base of space_amp and of
// store.bytes_written_per_user_byte.
const recordBytes = 40

// checkEvery is the sampling period of answer checks against the model.
const checkEvery = 500

// bench is one workload. setup builds everything a run needs (and is
// timed as setup_s), measure runs the timed phase with tracing off,
// traced runs the fixed-count single-client phase that yields the
// per-layer metrics, finish runs the end-of-run checks, and close
// releases files and goroutines; close is safe after a failed setup.
type bench interface {
	setup() error
	measure() error
	traced() error
	finish() error
	close() error
}

// dataSeed draws every dataset; -seed draws what the clients do with it
// (query rectangles, stab points, request mixes, Zipf ranks, read times).
// The data is fixed because a skeleton index's quality depends on the
// sample it was predicted from: over ten data seeds the same query stream
// reads 56 to 64 nodes per search and 9.4 to 12 per stab on I3 (leaf
// overlap differs fourfold), a 15-25 % spread between runs that says
// nothing about the code and would hide what does change.
const dataSeed = 1991

// spec returns the paper's index parameters (harness.NewSpec: 1 KiB
// leaves doubling per level, 2/3 branch reserve, 10k-tuple prediction
// sample, coalescing every 1000 inserts) for a dataset of the given size.
func spec(ds workload.Dataset, tuples int) harness.Spec {
	s := harness.NewSpec("benchmark", ds, tuples)
	s.Seed = dataSeed
	return s
}

// newSkeletonSR builds an empty skeleton SR-Tree — the variant segidxd
// serves — with the spec's parameters. It mirrors harness.Build's option
// list, which is not exported separately from its insert loop.
func newSkeletonSR(s harness.Spec, opts ...segidx.Option) (*segidx.Index, error) {
	all := append([]segidx.Option{
		segidx.WithLeafNodeBytes(s.LeafBytes),
		segidx.WithNodeGrowth(s.Growth),
		segidx.WithBranchReserve(s.BranchReserve),
		segidx.WithLeafPromotion(s.LeafPromotion),
		segidx.WithCoalescing(s.CoalesceEvery, s.CoalesceCandidates),
	}, opts...)
	return segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{
		Tuples:          s.Tuples,
		Domain:          workload.Domain(),
		PredictFraction: float64(s.PredictSample) / float64(s.Tuples),
	}, all...)
}

// load inserts data[i] under id i+1 and mirrors it into the model.
func load(idx *segidx.Index, m *model, data []geom.Rect) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, r := range data {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			return fmt.Errorf("insert %d: %w", i+1, err)
		}
		if err := m.insertLocked(uint64(i+1), r); err != nil {
			return err
		}
	}
	return nil
}

// built is what every workload's set-up leaves for the traced run to
// report: how long generation and the load took and what the load cost.
type built struct {
	genDur, buildDur time.Duration
	loaded           int
	loadStats        segidx.Stats
}

// report records the set-up side of the per-layer table, the same for
// every workload, plus the share of stored portions that are spanning
// records in the index as it stands.
func (bt built) report(r *report, idx *segidx.Index) error {
	r.set("workload.gen_ms", float64(bt.genDur.Microseconds())/1e3, "data and op streams")
	r.set("skeleton.build_ms", float64(bt.buildDur.Microseconds())/1e3, fmt.Sprintf("%d inserts + flush", bt.loaded))
	r.set("core.load_inserts_s", float64(bt.loaded)/bt.buildDur.Seconds(), "")
	r.set("core.nodes_per_insert", float64(bt.loadStats.InsertNodeAccesses)/math.Max(1, float64(bt.loadStats.Inserts)), "during the load")
	rep, err := idx.Analyze()
	if err != nil {
		return err
	}
	r.set("core.spanning_share", float64(rep.SpanningRecords)/math.Max(1, float64(rep.StoredPortions)),
		fmt.Sprintf("%d spanning of %d stored portions", rep.SpanningRecords, rep.StoredPortions))
	return nil
}

// reportRuntime records what the two passes of a traced run (ops each;
// MemStats before the untraced pass, after it, and after the traced one)
// say about allocation, the collector and the cost of tracing itself.
func reportRuntime(r *report, ms0, ms1, ms2 *runtime.MemStats, ops float64, plain, traced time.Duration) {
	r.set("rt.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/ops, "untraced pass, whole process")
	r.set("rt.gc_cycles", float64(ms2.NumGC-ms0.NumGC), "both passes")
	r.set("rt.gc_pause_ms_total", float64(ms2.PauseTotalNs-ms0.PauseTotalNs)/1e6, "both passes")
	r.set("trace.overhead_frac", 1-plain.Seconds()/traced.Seconds(),
		fmt.Sprintf("untraced %.0f ops/s, traced %.0f ops/s", ops/plain.Seconds(), ops/traced.Seconds()))
}

// reportReads records the read latencies every workload reports: the
// median of each read class and the p99 over all reads. One pooled tail,
// not one per class: on the reference box a class's own p99 can sit on a
// steep stretch of its distribution (cold_query's stabs: p95 75 us, p99
// 123 us, p99.9 394 us) and then differs by a quarter to a half between
// identical runs, where the pooled p99 keeps within the spread of the
// medians. The per-class tails are printed beside it.
func reportReads(r *report, stab, rng *hist) {
	all := new(hist)
	all.merge(stab)
	all.merge(rng)
	r.setLatency("stab_p50_us", stab, 0.5)
	r.setLatency("range_p50_us", rng, 0.5)
	r.setLatency("read_p99_us", all, 0.99)
	r.logf("info: stab p99 %.1f us (n=%d), range p99 %.1f us (n=%d)", stab.quantile(0.99)/1e3, stab.n, rng.quantile(0.99)/1e3, rng.n)
}

// setSpaceAmp records bytes stored per byte of user data.
func setSpaceAmp(r *report, held int64, records int, what string) {
	r.set("space_amp", float64(held)/float64(records*recordBytes),
		fmt.Sprintf("%d B in %s / %d records x %d B", held, what, records, recordBytes))
}

// diskSpaceAmp flushes idx and records space_amp from the files in dir.
func diskSpaceAmp(r *report, idx *segidx.Index, dir, what string) error {
	if err := idx.Flush(); err != nil {
		return err
	}
	held, err := dirBytes(dir)
	if err != nil {
		return err
	}
	setSpaceAmp(r, held, idx.Len(), what)
	return nil
}

// heapMiB returns the bytes of live heap objects after forced
// collections: two, because sync.Pool contents survive the first in the
// victim cache. HeapAlloc rather than HeapInuse: the latter counts whole
// spans, and how full they are depends on allocation history, not on what
// the index holds.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// freshDir empties and recreates the subdirectory of cfg.dir that holds
// the workload's files.
func freshDir(cfg config) (string, error) {
	d := filepath.Join(cfg.dir, "tmp-"+cfg.workload)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// quantileOf returns the q-quantile of raw values (sorted copy, nearest
// rank); the traced run's few-thousand-sample series use it directly.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// probeCodec times node.Codec over up to 512 pages sampled evenly from
// the store's live pages: direct calls into the node layer, which no
// engine API exposes on its own.
func probeCodec(r *report, cs *countingStore) error {
	ids, _ := cs.livePages()
	codec := node.Codec{Dims: 2}
	step := len(ids)/512 + 1
	var pages int
	var decNs, encNs, used int64
	for i := 0; i < len(ids); i += step {
		if ids[i] == page.ID(1) { // the tree's metadata page is not a node
			continue
		}
		buf, err := cs.inner.Read(ids[i])
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		t0 := time.Now()
		n, err := codec.Unmarshal(buf, ids[i])
		decNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		t0 = time.Now()
		_, err = codec.Marshal(n, len(buf))
		encNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		used += int64(codec.HeaderBytes() + codec.UsedBytes(n))
		pages++
	}
	if pages == 0 {
		return nil
	}
	note := fmt.Sprintf("%d pages sampled", pages)
	r.set("node.decode_us_per_page", float64(decNs)/float64(pages)/1e3, note)
	r.set("node.encode_us_per_page", float64(encNs)/float64(pages)/1e3, note)
	r.set("node.bytes_per_page_mean", float64(used)/float64(pages), "header + entries in use; "+note)
	return nil
}

// flatScan times the brute-force answer for the given predicates: the
// ceiling any index must beat.
func flatScan(r *report, m *model, preds []func(geom.Rect) bool) {
	c := m.now()
	durs := make([]float64, len(preds))
	for i, p := range preds {
		t0 := time.Now()
		m.ids(c, p)
		durs[i] = float64(time.Since(t0).Nanoseconds())
	}
	r.set("ref.flatscan_p50_us", quantileOf(durs, 0.5)/1e3, fmt.Sprintf("n=%d over %d versions", len(preds), c.n))
}

// openStore opens a page file through the counting FS and wraps it in
// the counting store; durable selects the WAL store.
func openStore(fsys store.FS, path string, durable bool, tr *tracer) (*countingStore, error) {
	var inner store.Store
	var err error
	if durable {
		inner, err = store.OpenWALStoreIn(fsys, path)
	} else {
		inner, err = store.OpenFileStoreIn(fsys, path)
	}
	if err != nil {
		return nil, err
	}
	return newCountingStore(inner, tr), nil
}
