package segidx

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"segidx/internal/accel"
	"segidx/internal/buffer"
	"segidx/internal/core"
	"segidx/internal/fanout"
	"segidx/internal/forest"
	"segidx/internal/geom"
	"segidx/internal/histogram"
	"segidx/internal/node"
	"segidx/internal/store"
)

// Rect is a closed axis-aligned rectangle in K >= 1 dimensions. Points and
// intervals are rectangles with degenerate extents.
type Rect = geom.Rect

// RecordID identifies a logical record. IDs must be unique per logical
// record: when the index cuts a record into spanning and remnant portions,
// the shared ID is what deduplicates search results and drives deletion.
type RecordID = node.RecordID

// Entry is one search result.
type Entry = core.Entry

// Stats holds tree activity counters; see core.Stats for field docs.
type Stats = core.Stats

// PoolStats holds buffer pool counters (gets, hits, misses, evictions,
// write-backs); a forest's are summed across its shards' pools.
type PoolStats = buffer.Stats

// Report is a structural quality report; see (*Index).Analyze.
type Report = core.Report

// AccelStats holds one stab-accelerator sidecar's counters (queries routed
// to each side, live and allocated slots, the degraded flag); see
// WithStabAccel.
type AccelStats = accel.Stats

// HybridMode selects how queries route between the tree and an attached
// stab accelerator; see WithHybridMode.
type HybridMode = accel.Mode

const (
	// HybridAuto routes a query by its shape alone: to the accelerator
	// when it spans at most a quarter of the hot domain and, in every
	// other dimension, covers the extent of every record the accelerator
	// was ever given; to the tree otherwise.
	HybridAuto = accel.ModeAuto
	// HybridAlways routes every eligible query to the accelerator.
	HybridAlways = accel.ModeAlways
	// HybridOff keeps the accelerator maintained but never routes to it.
	HybridOff = accel.ModeOff
)

// ParseHybridMode parses "auto", "always", or "off" into a HybridMode.
func ParseHybridMode(s string) (HybridMode, error) { return accel.ParseMode(s) }

// Histogram estimates a per-dimension value distribution for skeleton
// construction.
type Histogram = histogram.Histogram

// NewHistogram creates an empty histogram over [lo, hi] with the given
// number of bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	return histogram.New(lo, hi, bins)
}

// Box builds a 2-dimensional rectangle [xlo, xhi] x [ylo, yhi]. It panics
// on inverted extents; use NewRect for checked construction.
func Box(xlo, ylo, xhi, yhi float64) Rect { return geom.Rect2(xlo, ylo, xhi, yhi) }

// Interval builds the paper's "time range data" shape: an interval
// [lo, hi] in dimension 0 crossed with a point value in dimension 1.
func Interval(lo, hi, at float64) Rect { return geom.Rect2(lo, at, hi, at) }

// Point builds a degenerate rectangle containing exactly one point.
func Point(coords ...float64) Rect { return geom.Point(coords...) }

// NewRect builds a validated rectangle from min/max corners.
func NewRect(min, max []float64) (Rect, error) { return geom.NewRect(min, max) }

// Index is a segment index: one of R-Tree, SR-Tree, Skeleton R-Tree, or
// Skeleton SR-Tree.
//
// An Index is safe for concurrent use: mutations serialize behind an
// internal write lock per shard, while queries pin an MVCC snapshot and
// traverse copy-on-write page versions with no tree-level lock — a
// committing writer never blocks readers. Snapshot exposes the same
// mechanism as an explicit repeatable-read View. The batch APIs
// (SearchBatch, StabBatch, InsertBatch) fan work across a bounded
// goroutine pool; see WithParallelism.
//
// Every Index is a forest of n >= 1 trees (see WithShards); the plain tree
// is the forest of one, which routes nothing and persists as the one file
// (plus log) its tree writes.
type Index struct {
	// reads answers Search, SearchFunc, SearchContaining,
	// SearchContainingFunc, Count and Len over the live shard trees.
	reads

	kind   string
	shards []*core.Tree
	// stores[i] is the store Close closes for shard i: nil when it is the
	// caller's (WithStore).
	stores []store.Store

	par atomic.Int32

	// broken latches the first store.ErrBroken any operation surfaces, so
	// an index with one sick shard refuses everything, index-wide, just as
	// a single sick WALStore does.
	broken atomic.Pointer[error]

	scanPool sync.Pool
}

// Kind reports which index type this is ("r-tree", "sr-tree",
// "skeleton-r-tree", "skeleton-sr-tree").
func (x *Index) Kind() string { return x.kind }

// Insert adds a record. The rectangle's dimensionality must match the
// index; IDs must be unique per logical record.
func (x *Index) Insert(r Rect, id RecordID) error {
	if err := x.guard(); err != nil {
		return err
	}
	err := x.shards[x.ShardOf(id)].Insert(r, id)
	x.note(err)
	return err
}

// Delete removes the record with the given ID. hint must cover the
// rectangle originally inserted (passing that rectangle is ideal); it
// bounds the search for the record's portions. Returns the number of
// logical records removed (0 or 1).
func (x *Index) Delete(id RecordID, hint Rect) (int, error) {
	if err := x.guard(); err != nil {
		return 0, err
	}
	n, err := x.shards[x.ShardOf(id)].Delete(id, hint)
	x.note(err)
	return n, err
}

// DeleteWhere removes every logical record that has a stored portion
// intersecting query and satisfying pred (nil matches everything),
// returning the number removed. Useful for retention policies ("drop all
// history before 1990").
func (x *Index) DeleteWhere(query Rect, pred func(Entry) bool) (int, error) {
	if err := x.guard(); err != nil {
		return 0, err
	}
	// Shards run sequentially: pred is caller code, never invoked
	// concurrently.
	total := 0
	for _, s := range x.shards {
		n, err := s.DeleteWhere(query, pred)
		total += n
		if err != nil {
			x.note(err)
			return total, err
		}
	}
	return total, nil
}

// Search returns the records intersecting query, deduplicated by ID. The
// result is owned by the caller: rectangles are copied out of the index
// into one shared backing array, so a non-empty result costs two
// allocations regardless of size.
func (x *reads) Search(query Rect) ([]Entry, error) {
	return x.scatter(query, core.Reader.Search)
}

// SearchFunc streams every stored portion intersecting query; fn returning
// false stops early. Cut records may be visited once per portion.
//
// The Entry passed to fn is a view: its rectangle aliases index-owned
// memory and is valid only for the duration of the callback. Clone the
// rectangle to retain it. In exchange, a query over resident pages
// performs zero heap allocations.
func (x *reads) SearchFunc(query Rect, fn func(Entry) bool) error {
	return x.stream(query, core.Reader.SearchFunc, fn)
}

// Count returns the number of logical records intersecting query.
func (x *reads) Count(query Rect) (int, error) {
	if err := x.begin(); err != nil {
		return 0, err
	}
	total := 0
	for _, s := range x.readers {
		n, err := s.Count(query)
		if err != nil {
			x.idx.note(err)
			return 0, err
		}
		total += n
	}
	return total, nil
}

// VisitPortions walks every stored record portion with the tree level it
// is stored at (0 = leaf; higher levels are spanning index records). For
// structural inspection; fn returning false stops the walk. Entry
// rectangles are views valid only during the callback.
func (x *Index) VisitPortions(fn func(level int, e Entry) bool) error {
	if err := x.guard(); err != nil {
		return err
	}
	sc := x.scanPool.Get().(*scanCtx)
	sc.levelFn, sc.stopped = fn, false
	var err error
	for _, s := range x.shards {
		if err = s.VisitPortions(sc.visitL); err != nil || sc.stopped {
			break
		}
	}
	sc.levelFn = nil
	x.scanPool.Put(sc)
	x.note(err)
	return err
}

// Stab returns the records containing the given point — the stabbing
// query central to interval indexing ("all intervals that contain a given
// point", Section 2.1.1). The result is owned by the caller; use StabFunc
// for the allocation-free streaming form.
func (x *Index) Stab(coords ...float64) ([]Entry, error) {
	return x.SearchContaining(Point(coords...))
}

// StabFunc streams the records containing the given point. Each record is
// reported exactly once with the union of its stored portions as the
// rectangle — a view valid only during the callback; Clone it to retain
// it. fn returning false stops early. Like SearchFunc, a stab over
// resident pages performs zero heap allocations.
func (x *Index) StabFunc(fn func(Entry) bool, coords ...float64) error {
	// The point rectangle views the coords slice directly instead of
	// copying it (Point validates and copies); validateRect inside the
	// engine still rejects NaNs and dimension mismatches.
	return x.stream(Rect{Min: coords, Max: coords}, core.Reader.SearchContainingFunc, fn)
}

// SearchContainingFunc streams the records that entirely contain query
// (the generalized stabbing query), one callback per logical record with
// the union of its stored portions as the rectangle — a view valid only
// during the callback. fn returning false stops early.
func (x *reads) SearchContainingFunc(query Rect, fn func(Entry) bool) error {
	return x.stream(query, core.Reader.SearchContainingFunc, fn)
}

// SearchWithin returns the records entirely contained in query,
// deduplicated by ID.
func (x *Index) SearchWithin(query Rect) ([]Entry, error) {
	// A record lives wholly in one shard, so the index-wide stream of
	// intersecting portions carries everything the containment test needs.
	return core.Within(x.SearchFunc, query)
}

// SearchContaining returns the records that entirely contain query (the
// generalized stabbing query). Cut records are reassembled before the
// containment test.
func (x *reads) SearchContaining(query Rect) ([]Entry, error) {
	return x.scatter(query, core.Reader.SearchContaining)
}

// View is an immutable snapshot of an index: queries on it acquire no
// tree-level lock and observe exactly the committed state at the moment
// Snapshot was called, no matter how many writes commit afterwards. See
// (*Index).Snapshot.
type View = core.View

// ErrSnapshotReleased is returned by View methods used after Release.
var ErrSnapshotReleased = core.ErrSnapshotReleased

// Snapshot pins an immutable view of the index via MVCC page versioning:
// the writer copy-on-writes every page it touches, so the view's reads
// proceed lock-free against concurrent writers and always observe the
// commit boundary they were pinned at. Release must be called when done —
// a held view retains every superseded page version it can reach.
//
// On a sharded index the shard views are pinned in shard order, not
// atomically across shards: a write committing while Snapshot runs may be
// visible in a later-pinned shard but not an earlier one. A logical record
// lives wholly inside one shard, so each record is still seen atomically,
// entirely at its shard's pinned epoch; only cross-record, cross-shard
// ordering is relaxed — the guarantee concurrent queries already have.
// Pinned while no write is in flight, the view is exact.
func (x *Index) Snapshot() View {
	v := &forestView{views: make([]core.View, len(x.shards))}
	v.idx = x
	v.readers = make([]core.Reader, len(x.shards))
	for i, s := range x.shards {
		sv := s.Snapshot()
		v.views[i], v.readers[i] = sv, sv
	}
	return v
}

// CommitEpoch reports a monotonic stamp of committed mutations: stable
// while the index is unchanged, increasing with every committed
// Insert/Delete/DeleteWhere. Snapshots taken at equal epochs observe equal
// contents.
func (x *Index) CommitEpoch() uint64 {
	var e uint64
	for _, s := range x.shards {
		e += s.CommitEpoch()
	}
	return e
}

// Len reports the number of logical records stored.
func (x *reads) Len() int {
	n := 0
	for _, s := range x.readers {
		n += s.Len()
	}
	return n
}

// Height reports the number of tree levels.
func (x *Index) Height() int {
	h := 0
	for _, s := range x.shards {
		h = max(h, s.Height())
	}
	return h
}

// NodeCount reports the number of index nodes (pages).
func (x *Index) NodeCount() int {
	n := 0
	for _, s := range x.shards {
		n += s.NodeCount()
	}
	return n
}

// Stats returns a snapshot of activity counters. The paper's cost metric —
// average index nodes accessed per search — is the delta of
// SearchNodeAccesses over the delta of Searches.
func (x *Index) Stats() Stats {
	var out Stats
	for _, s := range x.shards {
		out.Add(s.Stats())
	}
	return out
}

// PoolStats returns a snapshot of buffer pool counters: cache hits and
// misses, evictions, and dirty write-backs. The hit rate over a query
// sweep shows how well the working set fits the pool budget.
func (x *Index) PoolStats() PoolStats {
	var out PoolStats
	for _, s := range x.shards {
		out.Add(s.PoolStats())
	}
	return out
}

// AccelStats returns per-sidecar counters for stab accelerators attached
// via WithStabAccel — one entry per accelerated shard, in shard order.
// Empty when no accelerator is attached.
func (x *Index) AccelStats() []AccelStats {
	var out []AccelStats
	for _, s := range x.shards {
		out = append(out, s.AccelStats()...)
	}
	return out
}

// Flush persists dirty nodes and metadata to the page store.
func (x *Index) Flush() error {
	if err := x.guard(); err != nil {
		return err
	}
	// Each shard commits atomically on its own, concurrently with the
	// others; nothing makes the commit atomic across shards (DESIGN §9).
	// Every shard's flush is attempted even after one fails.
	errs := make([]error, len(x.shards))
	_ = fanout.Run(nil, x.Parallelism(), len(x.shards), func(i int) error {
		errs[i] = x.shards[i].Flush()
		return nil
	})
	err := errors.Join(errs...)
	x.note(err)
	return err
}

// CheckInvariants validates the entire structure; see core.Tree.
func (x *Index) CheckInvariants() error {
	if err := x.guard(); err != nil {
		return err
	}
	for i, s := range x.shards {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("segidx: shard %d: %w", i, err)
		}
	}
	return x.checkPlacement()
}

// Analyze computes a structural report: per-level node counts, coverage
// area, sibling overlap, aspect ratios, and occupancy.
func (x *Index) Analyze() (*Report, error) {
	if err := x.guard(); err != nil {
		return nil, err
	}
	// The shards' reports fold into the first one's: counts sum, height is
	// the maximum, and per-level quality metrics are node-weighted means.
	// A forest of one reports exactly what its tree does.
	var out *Report
	for _, s := range x.shards {
		r, err := s.Analyze()
		if err != nil {
			x.note(err)
			return nil, err
		}
		if out == nil {
			out = r
			continue
		}
		out.Height = max(out.Height, r.Height)
		out.Nodes += r.Nodes
		out.LogicalRecords += r.LogicalRecords
		out.StoredPortions += r.StoredPortions
		out.SpanningRecords += r.SpanningRecords
		for _, lv := range r.Levels {
			for len(out.Levels) <= lv.Level {
				out.Levels = append(out.Levels, core.LevelReport{Level: len(out.Levels)})
			}
			dst := &out.Levels[lv.Level]
			if w0, w1 := float64(dst.Nodes), float64(lv.Nodes); w0+w1 > 0 {
				dst.MeanAspect = (dst.MeanAspect*w0 + lv.MeanAspect*w1) / (w0 + w1)
				dst.Occupancy = (dst.Occupancy*w0 + lv.Occupancy*w1) / (w0 + w1)
			}
			dst.Nodes += lv.Nodes
			dst.Branches += lv.Branches
			dst.Records += lv.Records
			dst.Area += lv.Area
			dst.Overlap += lv.Overlap
		}
	}
	return out, nil
}

// Close flushes and releases the index and closes every store the index
// owns — each shard's in-memory store or file — but not a caller's
// WithStore store. The stores are closed even when the
// flush fails; all errors are reported.
func (x *Index) Close() error {
	return closeAll(x.stores, x.Flush())
}

// SkeletonEstimate describes the expected input for skeleton
// pre-construction (Section 4 of the paper).
type SkeletonEstimate struct {
	// Tuples is the expected number of records.
	Tuples int
	// Domain is the value domain in every dimension.
	Domain Rect
	// Histograms optionally gives the expected distribution per
	// dimension (nil entries mean uniform). Ignored when PredictFraction
	// is set.
	Histograms []*Histogram
	// PredictFraction, when positive, enables distribution prediction:
	// the index samples this fraction of Tuples (the paper recommends
	// 0.05–0.10), computes histograms from the sample, and then builds
	// the skeleton.
	PredictFraction float64
}

// NewRTree creates a dynamic R-Tree (the paper's baseline, Guttman 1984)
// over a paged store.
func NewRTree(opts ...Option) (*Index, error) {
	return build("r-tree", false, nil, opts)
}

// NewSRTree creates a dynamic SR-Tree: an R-Tree extended with spanning
// index records in non-leaf nodes (Section 3).
func NewSRTree(opts ...Option) (*Index, error) {
	return build("sr-tree", true, nil, opts)
}

// NewSkeletonRTree creates a pre-constructed R-Tree that adapts to the
// input by node splitting and coalescing (Section 4).
func NewSkeletonRTree(est SkeletonEstimate, opts ...Option) (*Index, error) {
	return build("skeleton-r-tree", false, &est, opts)
}

// NewSkeletonSRTree creates a pre-constructed SR-Tree — the paper's best
// performing index on skewed interval data.
func NewSkeletonSRTree(est SkeletonEstimate, opts ...Option) (*Index, error) {
	return build("skeleton-sr-tree", true, &est, opts)
}

func build(kind string, spanning bool, est *SkeletonEstimate, opts []Option) (*Index, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	cfg := o.cfg
	cfg.Spanning = spanning
	if est == nil {
		cfg.CoalesceEvery = 0 // coalescing is a skeleton-index adaptation
	} else if err := est.validate(cfg.Dims); err != nil {
		return nil, err
	}
	return o.assemble(kind, cfg, est, func(_ int, cfg core.Config, st store.Store) (*core.Tree, error) {
		return o.newEngine(cfg, st, est)
	})
}

// validate rejects an estimate no skeleton of the given dimensionality can
// be built from. Constructors call it before they open any store, so a
// rejected estimate leaves no file behind.
func (e *SkeletonEstimate) validate(dims int) error {
	if e.Tuples < 1 {
		return fmt.Errorf("segidx: skeleton estimate of %d tuples", e.Tuples)
	}
	if !(e.PredictFraction <= 1) {
		return fmt.Errorf("segidx: predict fraction %g above 1", e.PredictFraction)
	}
	ce := core.Estimate{Tuples: e.Tuples, Domain: e.Domain}
	if e.PredictFraction <= 0 {
		ce.Hists = e.Histograms // ignored, so not checked, under prediction
	}
	return ce.Validate(core.Config{Dims: dims})
}

// newEngine creates one tree on st — a plain tree without an estimate, a
// predicted skeleton under distribution prediction, else a pre-built
// skeleton. Each tree of a forest is sized for its roughly 1/n share of
// the estimated input.
func (o *options) newEngine(cfg core.Config, st store.Store, est *SkeletonEstimate) (*core.Tree, error) {
	if est == nil {
		return core.New(cfg, st)
	}
	n := max(o.shards, 1)
	ce := core.Estimate{Tuples: (est.Tuples + n - 1) / n, Domain: est.Domain}
	if est.PredictFraction > 0 {
		return core.NewPredicted(cfg, st, ce, max(int(float64(ce.Tuples)*est.PredictFraction), 1))
	}
	ce.Hists = est.Histograms
	return core.NewSkeleton(cfg, st, ce)
}

// assemble is the one constructor behind every New* and BulkLoad call: it
// validates cfg, creates the manifest a forest of several files needs, and
// plants n = max(shards, 1) trees built by mk. Validation comes first so
// that a rejected call creates no file.
func (o *options) assemble(kind string, cfg core.Config, est *SkeletonEstimate,
	mk func(i int, cfg core.Config, st store.Store) (*core.Tree, error)) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := max(o.shards, 1)
	cfg = shardConfig(cfg, n)
	if o.path != "" && n > 1 { // one shard is one file: nothing to enumerate
		if err := forest.CreateManifest(store.OS, o.path, n); err != nil {
			return nil, err
		}
	}
	x, err := o.plant(n, est, func(i int, st store.Store) (*core.Tree, error) { return mk(i, cfg, st) })
	if err != nil {
		return nil, err
	}
	x.kind = kind
	return x, nil
}

// plant opens one page store per shard — a caller's WithStore store is the
// one shard's, and stays the caller's to close — builds each shard's tree
// with mk, attaches the configured stab accelerator (est, when given, is
// the index's skeleton estimate) and assembles the index. Any failure
// closes every store opened so far.
func (o *options) plant(n int, est *SkeletonEstimate, mk func(i int, st store.Store) (*core.Tree, error)) (*Index, error) {
	shards := make([]*core.Tree, n)
	stores := make([]store.Store, n)
	for i := range shards {
		st := o.st
		var err error
		if st == nil {
			if st, err = o.openStore(shardPath(o.path, i, n)); err != nil {
				return nil, closeAll(stores, err)
			}
			stores[i] = st
		}
		if shards[i], err = mk(i, st); err != nil {
			return nil, closeAll(stores, err)
		}
		if err := o.attachStabAccel(shards[i], est); err != nil {
			return nil, closeAll(stores, err)
		}
	}
	x := newIndex(shards, stores)
	x.SetParallelism(o.par)
	return x, nil
}

// closeAll closes every non-nil store and joins the errors to err.
func closeAll(stores []store.Store, err error) error {
	for _, st := range stores {
		if st != nil {
			err = errors.Join(err, st.Close())
		}
	}
	return err
}

// BulkRecord pairs a rectangle with its ID for bulk loading.
type BulkRecord = core.Record

// BulkLoadRTree builds a packed R-Tree bottom-up from a complete dataset
// (Sort-Tile-Recursive packing at the given fill fraction, 0 < fill <= 1)
// — the static construction of Roussopoulos & Leifker that the paper
// contrasts skeleton indexes against. The resulting index is fully dynamic
// afterwards: inserts and deletes behave as on any R-Tree. A sharded index
// packs each shard independently from the records routed to it.
func BulkLoadRTree(records []BulkRecord, fill float64, opts ...Option) (*Index, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	cfg := o.cfg
	cfg.Spanning = false
	cfg.CoalesceEvery = 0
	parts := partitionByShard(records, max(o.shards, 1))
	return o.assemble("packed-r-tree", cfg, nil, func(i int, cfg core.Config, st store.Store) (*core.Tree, error) {
		return core.BulkLoad(cfg, st, parts[i], fill)
	})
}

// Open reattaches an index previously persisted with Flush or Close to a
// file created via WithFile. The stored metadata supplies the structural
// configuration (dimensions, page sizes, spanning mode); options may tune
// runtime knobs such as the buffer budget. A path holding a forest
// manifest (WithFile + WithShards) reassembles the whole forest. A path
// created via WithDurableFile is refused: open it with OpenDurable.
func Open(path string, opts ...Option) (*Index, error) { return open(path, false, opts) }

// OpenDurable reattaches an index created via WithDurableFile. Opening
// replays the write-ahead log first. The log always holds the last
// Flush's batch: an interrupted Flush is finished if its batch was
// durable and discarded if not, and a completed one is re-applied, which
// changes nothing. So the index always comes back at a commit boundary.
// A path holding a forest manifest (WithDurableFile + WithShards) replays
// every shard's log and reassembles the forest; each shard comes back at
// one of its own commit boundaries, independently of the others. Such a
// path opens only durably: Open refuses it, because flushing
// without the log would leave a stale batch to be replayed over newer
// pages.
func OpenDurable(path string, opts ...Option) (*Index, error) { return open(path, true, opts) }

// open reassembles a persisted index: the shards its manifest names, or,
// where path holds no manifest, the one tree stored at path itself. Each
// shard store is opened (replaying its WAL when durable) and its tree
// reattached from its own metadata. Opening walks no records: they are placed by
// ID, so there is no routing state to rebuild, and whether each record
// sits on its ID's shard is CheckInvariants' to verify.
func open(path string, durable bool, opts []Option) (*Index, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	// What is on disk decides the store and the shard count; the options
	// that choose them at construction do not apply.
	o.st, o.path, o.durable, o.shards = nil, path, durable, 1
	if forest.SniffManifest(store.OS, path) {
		m, err := forest.OpenManifest(store.OS, path)
		if err != nil {
			return nil, err
		}
		o.shards = m.Shards
	}
	cfg := shardConfig(o.cfg, o.shards)
	var first *core.Tree // shard 0, which names the kind
	x, err := o.plant(o.shards, nil, func(i int, st store.Store) (*core.Tree, error) {
		t, err := o.openTree(cfg, st)
		switch {
		case err != nil:
			return nil, fmt.Errorf("segidx: shard %d: %w", i, err)
		case i == 0:
			first = t
		case t.Config().Spanning != first.Config().Spanning:
			return nil, fmt.Errorf("segidx: shard %d spanning=%v differs from shard 0", i, t.Config().Spanning)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	x.kind = reopenedKind(first)
	return x, nil
}

// openTree reattaches the tree persisted in st: its stored metadata
// supplies the structural configuration (dimensions, page sizes, spanning
// mode), cfg the runtime knobs.
func (o *options) openTree(cfg core.Config, st store.Store) (*core.Tree, error) {
	meta, err := core.ReadMeta(st)
	if err != nil {
		return nil, err
	}
	cfg.Dims = meta.Dims
	cfg.Sizes.LeafBytes = meta.LeafBytes
	cfg.Sizes.Growth = meta.Growth
	cfg.Spanning = meta.Spanning
	return core.Open(cfg, st)
}

// reopenedKind names a reopened index: the metadata records whether it
// keeps spanning records, not whether it began as a skeleton.
func reopenedKind(t *core.Tree) string {
	if t.Config().Spanning {
		return "sr-tree"
	}
	return "r-tree"
}

// ErrNoMeta is returned by Open when the file holds no persisted index.
var ErrNoMeta = core.ErrNoMeta

// sentinel re-exports for callers matching errors.
var (
	// ErrDims indicates a rectangle of the wrong dimensionality.
	ErrDims = core.ErrDims
	// ErrBadRect indicates an invalid rectangle.
	ErrBadRect = core.ErrBadRect
)
