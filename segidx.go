package segidx

import (
	"errors"
	"fmt"

	"segidx/internal/accel"
	"segidx/internal/buffer"
	"segidx/internal/core"
	"segidx/internal/forest"
	"segidx/internal/geom"
	"segidx/internal/histogram"
	"segidx/internal/node"
	"segidx/internal/skeleton"
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
// write-backs), aggregated across the pool's lock stripes.
type PoolStats = buffer.Stats

// Report is a structural quality report; see (*Index).Analyze.
type Report = core.Report

// AccelStats holds one stab-accelerator sidecar's counters (routing
// decisions, EWMA latencies, live slots); see WithStabAccel.
type AccelStats = accel.Stats

// HybridMode selects how queries route between the tree and an attached
// stab accelerator; see WithHybridMode.
type HybridMode = accel.Mode

const (
	// HybridAuto routes each eligible query adaptively, using observed
	// latencies of both sides plus occasional probes of the disfavored one.
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
	f    *forest.Forest
	kind string
}

// Kind reports which index type this is ("r-tree", "sr-tree",
// "skeleton-r-tree", "skeleton-sr-tree").
func (x *Index) Kind() string { return x.kind }

// Insert adds a record. The rectangle's dimensionality must match the
// index; IDs must be unique per logical record.
func (x *Index) Insert(r Rect, id RecordID) error { return x.f.Insert(r, id) }

// Delete removes the record with the given ID. hint must cover the
// rectangle originally inserted (passing that rectangle is ideal); it
// bounds the search for the record's portions. Returns the number of
// logical records removed (0 or 1).
func (x *Index) Delete(id RecordID, hint Rect) (int, error) { return x.f.Delete(id, hint) }

// DeleteWhere removes every logical record that has a stored portion
// intersecting query and satisfying pred (nil matches everything),
// returning the number removed. Useful for retention policies ("drop all
// history before 1990").
func (x *Index) DeleteWhere(query Rect, pred func(Entry) bool) (int, error) {
	return x.f.DeleteWhere(query, pred)
}

// Search returns the records intersecting query, deduplicated by ID. The
// result is owned by the caller: rectangles are copied out of the index
// into one shared backing array, so a non-empty result costs two
// allocations regardless of size.
func (x *Index) Search(query Rect) ([]Entry, error) { return x.f.Search(query) }

// SearchFunc streams every stored portion intersecting query; fn returning
// false stops early. Cut records may be visited once per portion.
//
// The Entry passed to fn is a view: its rectangle aliases index-owned
// memory and is valid only for the duration of the callback. Clone the
// rectangle to retain it. In exchange, a query over resident pages
// performs zero heap allocations.
func (x *Index) SearchFunc(query Rect, fn func(Entry) bool) error {
	return x.f.SearchFunc(query, fn)
}

// Count returns the number of logical records intersecting query.
func (x *Index) Count(query Rect) (int, error) { return x.f.Count(query) }

// VisitPortions walks every stored record portion with the tree level it
// is stored at (0 = leaf; higher levels are spanning index records). For
// structural inspection; fn returning false stops the walk. Entry
// rectangles are views valid only during the callback.
func (x *Index) VisitPortions(fn func(level int, e Entry) bool) error {
	return x.f.VisitPortions(fn)
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
	return x.f.SearchContainingFunc(Rect{Min: coords, Max: coords}, fn)
}

// SearchContainingFunc streams the records that entirely contain query
// (the generalized stabbing query), one callback per logical record with
// the union of its stored portions as the rectangle — a view valid only
// during the callback. fn returning false stops early.
func (x *Index) SearchContainingFunc(query Rect, fn func(Entry) bool) error {
	return x.f.SearchContainingFunc(query, fn)
}

// SearchWithin returns the records entirely contained in query,
// deduplicated by ID.
func (x *Index) SearchWithin(query Rect) ([]Entry, error) {
	return x.f.SearchWithin(query)
}

// SearchContaining returns the records that entirely contain query (the
// generalized stabbing query). Cut records are reassembled before the
// containment test.
func (x *Index) SearchContaining(query Rect) ([]Entry, error) {
	return x.f.SearchContaining(query)
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
// a held view retains every superseded page version it can reach. On a
// sharded index the shard views are pinned in shard order (see
// forest.Snapshot for the cross-shard atomicity contract).
func (x *Index) Snapshot() View { return x.f.Snapshot() }

// CommitEpoch reports a monotonic stamp of committed mutations: stable
// while the index is unchanged, increasing with every committed
// Insert/Delete/DeleteWhere. Snapshots taken at equal epochs observe equal
// contents.
func (x *Index) CommitEpoch() uint64 { return x.f.CommitEpoch() }

// Len reports the number of logical records stored.
func (x *Index) Len() int { return x.f.Len() }

// Height reports the number of tree levels.
func (x *Index) Height() int { return x.f.Height() }

// NodeCount reports the number of index nodes (pages).
func (x *Index) NodeCount() int { return x.f.NodeCount() }

// Stats returns a snapshot of activity counters. The paper's cost metric —
// average index nodes accessed per search — is the delta of
// SearchNodeAccesses over the delta of Searches.
func (x *Index) Stats() Stats { return x.f.Stats() }

// PoolStats returns a snapshot of buffer pool counters: cache hits and
// misses, evictions, and dirty write-backs. The hit rate over a query
// sweep shows how well the working set fits the pool budget.
func (x *Index) PoolStats() PoolStats { return x.f.PoolStats() }

// AccelStats returns per-sidecar counters for stab accelerators attached
// via WithStabAccel — one entry per accelerated shard, in shard order.
// Empty when no accelerator is attached, or while a predictive skeleton
// index is still collecting its sample.
func (x *Index) AccelStats() []AccelStats { return x.f.AccelStats() }

// Flush persists dirty nodes and metadata to the page store.
func (x *Index) Flush() error { return x.f.Flush() }

// CheckInvariants validates the entire structure; see core.Tree.
func (x *Index) CheckInvariants() error { return x.f.CheckInvariants() }

// Analyze computes a structural report: per-level node counts, coverage
// area, sibling overlap, aspect ratios, and occupancy.
func (x *Index) Analyze() (*Report, error) { return x.f.Analyze() }

// Close flushes and releases the index and closes every store the index
// owns — each shard's in-memory store or file, and the forest manifest —
// but not a caller's WithStore store. The stores are closed even when the
// flush fails; all errors are reported.
func (x *Index) Close() error { return x.f.Close() }

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
	return o.assemble(kind, cfg, false, func(_ int, cfg core.Config, st store.Store) (core.Engine, error) {
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

// newEngine creates one tree's engine on st — a plain tree without an
// estimate, a staging predictor under distribution prediction, else a
// pre-built skeleton. Each tree of a forest is sized for its roughly 1/n
// share of the estimated input.
func (o *options) newEngine(cfg core.Config, st store.Store, est *SkeletonEstimate) (core.Engine, error) {
	if est == nil {
		t, err := core.New(cfg, st)
		if err != nil {
			return nil, err
		}
		return t, o.attachStabAccel(t, nil)
	}
	n := max(o.shards, 1)
	tuples := (est.Tuples + n - 1) / n
	if est.PredictFraction > 0 {
		p, err := skeleton.New(cfg, st, est.Domain, tuples, est.PredictFraction)
		if err != nil {
			return nil, err
		}
		if o.accelOn {
			p.SetAttach(func(t *core.Tree) error { return o.attachStabAccel(t, est) })
		}
		return p, nil
	}
	t, err := core.NewSkeleton(cfg, st, core.Estimate{
		Tuples: tuples,
		Domain: est.Domain,
		Hists:  est.Histograms,
	})
	if err != nil {
		return nil, err
	}
	return t, o.attachStabAccel(t, est)
}

// assemble is the one constructor behind every New* and BulkLoad call: it
// validates cfg, creates the manifest a forest of several files needs, and
// plants n = max(shards, 1) trees built by mk. rebuild tells the forest
// that mk hands it non-empty shards. Validation comes first so that a
// rejected call creates no file.
func (o *options) assemble(kind string, cfg core.Config, rebuild bool,
	mk func(i int, cfg core.Config, st store.Store) (core.Engine, error)) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := max(o.shards, 1)
	cfg = shardConfig(cfg, n)
	fc := forest.Config{Dims: cfg.Dims, Rebuild: rebuild}
	if o.path != "" && n > 1 { // one shard is one file: nothing to enumerate
		var err error
		if fc.Manifest, err = forest.CreateManifest(store.OS, o.path, n); err != nil {
			return nil, err
		}
	}
	f, err := o.plant(n, &fc, func(i int, st store.Store) (core.Engine, error) { return mk(i, cfg, st) })
	if err != nil {
		return nil, err
	}
	return &Index{f: f, kind: kind}, nil
}

// plant opens one page store per shard — a caller's WithStore store is the
// one shard's, and stays the caller's to close — builds each shard's engine
// with mk and assembles the forest. fc is read after the last mk call, so
// mk may fill in what only an opened shard knows. Any failure closes every
// store opened so far and the manifest.
func (o *options) plant(n int, fc *forest.Config,
	mk func(i int, st store.Store) (core.Engine, error)) (*forest.Forest, error) {
	shards := make([]forest.Shard, 0, n)
	fail := func(err error) (*forest.Forest, error) {
		for _, s := range shards {
			if s.Store != nil {
				err = errors.Join(err, s.Store.Close())
			}
		}
		if fc.Manifest != nil {
			err = errors.Join(err, fc.Manifest.Close())
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		sh := forest.Shard{}
		st := o.st
		if st == nil {
			var err error
			if st, err = o.openStore(o.shardPath(i, n)); err != nil {
				return fail(err)
			}
			sh.Store = st
		}
		shards = append(shards, sh) // before mk, so that fail closes this store too
		eng, err := mk(i, st)
		if err != nil {
			return fail(err)
		}
		shards[i].Eng = eng
	}
	f, err := forest.New(shards, *fc)
	if err != nil {
		return fail(err)
	}
	f.SetParallelism(o.par)
	return f, nil
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
	return o.assemble("packed-r-tree", cfg, true, func(i int, cfg core.Config, st store.Store) (core.Engine, error) {
		t, err := core.BulkLoad(cfg, st, parts[i], fill)
		if err != nil {
			return nil, err
		}
		return t, o.attachStabAccel(t, nil)
	})
}

// Open reattaches an index previously persisted with Flush or Close to a
// file created via WithFile. The stored metadata supplies the structural
// configuration (dimensions, page sizes, spanning mode); options may tune
// runtime knobs such as the buffer budget. A path holding a forest
// manifest (WithFile + WithShards) reassembles the whole forest.
func Open(path string, opts ...Option) (*Index, error) { return open(path, false, opts) }

// OpenDurable reattaches an index created via WithDurableFile. Opening
// replays the write-ahead log first: an interrupted Flush is either
// finished or discarded, so the index always comes back at a commit
// boundary. A path holding a forest manifest (WithDurableFile +
// WithShards) replays every shard's log and reassembles the forest at
// the manifest's epoch.
func OpenDurable(path string, opts ...Option) (*Index, error) { return open(path, true, opts) }

// open reassembles a persisted index: the shards its manifest names, or,
// where path holds no manifest, the one tree stored at path itself. Each
// shard store is opened (replaying its WAL when durable) and its metadata
// verified against the manifest — a shard whose durable epoch is ahead of
// the manifest cannot result from any crash of the flush protocol and is
// rejected as corruption — and the routing state of a forest of several
// shards is rebuilt from their stored portions.
func open(path string, durable bool, opts []Option) (*Index, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	// What is on disk decides the store and the shard count; the options
	// that choose them at construction do not apply.
	o.st, o.path, o.durable, o.shards = nil, path, durable, 1
	fc := forest.Config{Rebuild: true}
	if forest.SniffManifest(store.OS, path) {
		mf, m, err := forest.OpenManifest(store.OS, path)
		if err != nil {
			return nil, err
		}
		o.shards, fc.Manifest, fc.Epoch = m.Shards, mf, m.Epoch
	}
	cfg := shardConfig(o.cfg, o.shards)
	var first *core.Tree // shard 0, which names the kind and the dims
	f, err := o.plant(o.shards, &fc, func(i int, st store.Store) (core.Engine, error) {
		t, err := o.openTree(cfg, st)
		switch {
		case err != nil:
			return nil, fmt.Errorf("segidx: shard %d: %w", i, err)
		case fc.Manifest != nil && t.FlushEpoch() > fc.Epoch:
			return nil, fmt.Errorf("segidx: shard %d at epoch %d, ahead of manifest epoch %d: %w",
				i, t.FlushEpoch(), fc.Epoch, store.ErrBroken)
		case i == 0:
			first, fc.Dims = t, t.Config().Dims
		case t.Config().Spanning != first.Config().Spanning:
			return nil, fmt.Errorf("segidx: shard %d spanning=%v differs from shard 0", i, t.Config().Spanning)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	return &Index{f: f, kind: reopenedKind(first)}, nil
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
	t, err := core.Open(cfg, st)
	if err != nil {
		return nil, err
	}
	return t, o.attachStabAccel(t, nil)
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
