package forest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"segidx/internal/accel"
	"segidx/internal/buffer"
	"segidx/internal/core"
	"segidx/internal/fanout"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
)

// Shard pairs a shard engine with the store it persists to (nil for
// engines whose store the caller manages).
type Shard struct {
	Eng   core.Engine
	Store store.Store
}

// Config configures forest assembly.
type Config struct {
	// Dims is the dimensionality every operation is validated against.
	Dims int
	// Manifest, when non-nil, is the forest's durable root: Flush commits
	// it at a bumped epoch before stamping and flushing the shards.
	Manifest *ManifestFile
	// Epoch is the manifest epoch the forest starts at (0 for fresh
	// forests; the recovered manifest epoch on reopen).
	Epoch uint64
	// Rebuild walks every shard's stored portions to reconstruct the
	// ID-to-shard routing map and the per-shard covers. Required when the
	// shards hold pre-existing data (reopen); a record found in two shards
	// fails assembly. A forest of one shard routes nothing and walks
	// nothing.
	Rebuild bool
}

// Forest shards one logical index across N >= 1 engines. See the package
// comment for the architecture; the zero value is unusable — use New.
//
// Concurrency: each shard engine carries its own write lock, so writers
// routed to distinct shards proceed in parallel; the forest adds no
// global operation lock. Flush serializes against other flushes only.
type Forest struct {
	// reads answers every core.Reader method over the live shard engines
	// and the live router, whose covers Insert grows.
	reads

	dims     int
	shards   []core.Engine
	stores   []store.Store
	manifest *ManifestFile

	par atomic.Int32

	flushMu    sync.Mutex
	flushEpoch uint64 // the manifest epoch; guarded by flushMu

	// broken latches the first store.ErrBroken any operation surfaces, so
	// a forest with one sick shard refuses everything, forest-wide, just
	// as a single sick WALStore does.
	broken atomic.Pointer[error]

	scanPool sync.Pool
}

// reads is the scatter-gather read path over one set of shard readers and
// the router that prunes them: the live engines with the live, grow-only
// covers (embedded in Forest), or pinned shard views with frozen cover
// copies (embedded in forestView). Both answer every core.Reader method
// from here.
type reads struct {
	f        *Forest // validation, breakage latch, parallelism, scan pool
	readers  []core.Reader
	rt       *router     // nil with one shard: every query goes to it
	released atomic.Bool // set by forestView.Release; never on a live forest
}

// scanCtx carries one streaming query across shards. Its visit closures
// are bound once at construction and capture only the scanCtx itself, so
// a pooled scanCtx makes the multi-shard wrapping allocation-free: the
// per-call state (the caller's fn, the stop flag) is written into fields
// the closures read through the pointer.
type scanCtx struct {
	fn      func(core.Entry) bool
	levelFn func(int, core.Entry) bool
	stopped bool
	visit   func(core.Entry) bool
	visitL  func(int, core.Entry) bool
}

// New assembles a forest over the given shards. Every shard must already
// be configured identically (dims, page sizes, spanning mode); the forest
// does not verify engine configuration beyond dimensionality of the
// operations it routes.
func New(shards []Shard, cfg Config) (*Forest, error) {
	if len(shards) < 1 {
		return nil, errors.New("forest: need at least one shard")
	}
	if len(shards) > maxShards {
		return nil, fmt.Errorf("forest: %d shards exceeds the limit of %d", len(shards), maxShards)
	}
	if cfg.Dims < 1 {
		return nil, errors.New("forest: dims must be at least 1")
	}
	f := &Forest{
		dims:       cfg.Dims,
		shards:     make([]core.Engine, len(shards)),
		stores:     make([]store.Store, len(shards)),
		manifest:   cfg.Manifest,
		flushEpoch: cfg.Epoch,
	}
	f.reads.f = f
	f.readers = make([]core.Reader, len(shards))
	f.rt = newRouter(len(shards))
	for i, s := range shards {
		if s.Eng == nil {
			return nil, fmt.Errorf("forest: shard %d has no engine", i)
		}
		f.shards[i] = s.Eng
		f.readers[i] = s.Eng
		f.stores[i] = s.Store
	}
	f.scanPool.New = func() any {
		sc := &scanCtx{}
		sc.visit = func(e core.Entry) bool {
			if sc.fn(e) {
				return true
			}
			sc.stopped = true
			return false
		}
		sc.visitL = func(level int, e core.Entry) bool {
			if sc.levelFn(level, e) {
				return true
			}
			sc.stopped = true
			return false
		}
		return sc
	}
	if cfg.Rebuild {
		if err := f.rt.rebuild(f.shards); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// guard returns the latched breakage, if any. It allocates nothing.
func (f *Forest) guard() error {
	if p := f.broken.Load(); p != nil {
		return *p
	}
	return nil
}

// note latches err when it carries store.ErrBroken. First breakage wins.
// The box is allocated only on the latch path: taking the parameter's own
// address would heap-move it on every call and break the zero-allocation
// read gates.
func (f *Forest) note(err error) {
	if err == nil || !errors.Is(err, store.ErrBroken) {
		return
	}
	boxed := new(error)
	*boxed = err
	f.broken.CompareAndSwap(nil, boxed)
}

// validate mirrors the single tree's operation-entry rectangle check, so
// a query the forest prunes to zero shards still reports the error a
// single tree would.
func (f *Forest) validate(r geom.Rect) error {
	if !r.Valid() {
		return core.ErrBadRect
	}
	if r.Dims() != f.dims {
		return core.ErrDims
	}
	return nil
}

// begin is the entry check of every read: a released view, a latched
// breakage, then the rectangle.
func (r *reads) begin(query geom.Rect) error {
	if r.released.Load() {
		return core.ErrSnapshotReleased
	}
	if err := r.f.guard(); err != nil {
		return err
	}
	return r.f.validate(query)
}

// Shards reports the number of shards.
func (f *Forest) Shards() int { return len(f.shards) }

// FlushEpoch reports the forest's current manifest epoch.
func (f *Forest) FlushEpoch() uint64 {
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	return f.flushEpoch
}

// SetParallelism bounds the goroutines used for scatter-gather queries,
// multi-shard flushes and the facade's batch calls; 0 (or less) restores
// the default, GOMAXPROCS at call time.
func (f *Forest) SetParallelism(n int) {
	f.par.Store(int32(max(n, 0)))
}

// Parallelism reports the bound SetParallelism set, or GOMAXPROCS.
func (f *Forest) Parallelism() int {
	if p := f.par.Load(); p > 0 {
		return int(p)
	}
	return runtime.GOMAXPROCS(0)
}

// Route reports the shard an insert of r would target absent ID-reuse
// pinning: the rectangle-center hash over the shard count.
func (f *Forest) Route(r geom.Rect) int { return RouteRect(r, len(f.shards)) }

// Insert routes the record to its home shard — the shard already owning
// its ID if the ID was ever seen, else the one its rectangle hashes to —
// and grows that shard's cover.
func (f *Forest) Insert(r geom.Rect, id node.RecordID) error {
	if err := f.guard(); err != nil {
		return err
	}
	if err := f.validate(r); err != nil {
		return err
	}
	shard := f.rt.assign(id, r)
	if err := f.shards[shard].Insert(r, id); err != nil {
		f.note(err)
		return err
	}
	f.rt.grow(shard, r)
	return nil
}

// Delete removes the record with the given ID from its owning shard. An
// ID the forest has never seen removes nothing, matching a single tree's
// miss behavior; the hint is validated first either way.
func (f *Forest) Delete(id node.RecordID, hint geom.Rect) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	if err := f.validate(hint); err != nil {
		return 0, err
	}
	shard := f.rt.owner(id)
	if shard < 0 {
		return 0, nil
	}
	n, err := f.shards[shard].Delete(id, hint)
	f.note(err)
	return n, err
}

// DeleteWhere applies the predicate delete on every shard whose cover
// overlaps query. Shards run sequentially: the predicate is caller code
// and the single-tree contract never invokes it concurrently.
func (f *Forest) DeleteWhere(query geom.Rect, pred func(core.Entry) bool) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	if err := f.validate(query); err != nil {
		return 0, err
	}
	total := 0
	for i := range f.shards {
		if !f.rt.intersects(i, query) {
			continue
		}
		n, err := f.shards[i].DeleteWhere(query, pred)
		total += n
		if err != nil {
			f.note(err)
			return total, err
		}
	}
	return total, nil
}

// scatter fans op across the shards selected by prune and gathers the
// per-shard result slices, merging without copying when at most one shard
// produced results.
func (r *reads) scatter(query geom.Rect,
	prune func(*router, int, geom.Rect) bool,
	op func(core.Reader, geom.Rect) ([]core.Entry, error),
) ([]core.Entry, error) {
	if err := r.begin(query); err != nil {
		return nil, err
	}
	sel := make([]int, 0, len(r.readers))
	for i := range r.readers {
		if prune(r.rt, i, query) {
			sel = append(sel, i)
		}
	}
	if len(sel) == 0 {
		return nil, nil
	}
	results := make([][]core.Entry, len(sel))
	err := fanout.Run(nil, r.f.Parallelism(), len(sel), func(i int) error {
		res, err := op(r.readers[sel[i]], query)
		results[i] = res
		return err
	})
	if err != nil {
		r.f.note(err)
		return nil, err
	}
	// Gather. One non-empty shard hands its slice through unchanged — the
	// common case under effective pruning costs no re-allocation.
	total, nonEmpty, last := 0, 0, -1
	for i, res := range results {
		if len(res) > 0 {
			total += len(res)
			nonEmpty++
			last = i
		}
	}
	switch nonEmpty {
	case 0:
		return nil, nil
	case 1:
		return results[last], nil
	}
	out := make([]core.Entry, 0, total)
	for _, res := range results {
		out = append(out, res...)
	}
	return out, nil
}

// Search returns the records intersecting query across all shards,
// deduplicated per shard by ID (cross-shard duplicates cannot exist: a
// record lives wholly in one shard).
func (r *reads) Search(query geom.Rect) ([]core.Entry, error) {
	return r.scatter(query, (*router).intersects, core.Reader.Search)
}

// SearchContaining returns the records that entirely contain query. A
// shard can only hold a match when its cover contains the query, the
// tighter prune.
func (r *reads) SearchContaining(query geom.Rect) ([]core.Entry, error) {
	return r.scatter(query, (*router).contains, core.Reader.SearchContaining)
}

// stream runs a streaming query over the pruned shards sequentially,
// honoring fn's early stop across shard boundaries. The pooled scan
// context keeps the wrapping allocation-free, preserving the per-shard
// zero-allocation read path.
func (r *reads) stream(query geom.Rect,
	prune func(*router, int, geom.Rect) bool,
	op func(core.Reader, geom.Rect, func(core.Entry) bool) error,
	fn func(core.Entry) bool,
) error {
	if err := r.begin(query); err != nil {
		return err
	}
	sc := r.f.scanPool.Get().(*scanCtx)
	sc.fn, sc.stopped = fn, false
	var err error
	for i := range r.readers {
		if !prune(r.rt, i, query) {
			continue
		}
		if err = op(r.readers[i], query, sc.visit); err != nil || sc.stopped {
			break
		}
	}
	sc.fn = nil
	r.f.scanPool.Put(sc)
	r.f.note(err)
	return err
}

// SearchFunc streams every stored portion intersecting query; fn
// returning false stops early, across shards. Entry rectangles are views
// valid only during the callback.
func (r *reads) SearchFunc(query geom.Rect, fn func(core.Entry) bool) error {
	return r.stream(query, (*router).intersects, core.Reader.SearchFunc, fn)
}

// SearchContainingFunc streams the records that entirely contain query.
func (r *reads) SearchContainingFunc(query geom.Rect, fn func(core.Entry) bool) error {
	return r.stream(query, (*router).contains, core.Reader.SearchContainingFunc, fn)
}

// Count returns the number of logical records intersecting query, summed
// over the shards whose covers overlap it.
func (r *reads) Count(query geom.Rect) (int, error) {
	if err := r.begin(query); err != nil {
		return 0, err
	}
	total := 0
	for i := range r.readers {
		if !r.rt.intersects(i, query) {
			continue
		}
		n, err := r.readers[i].Count(query)
		if err != nil {
			r.f.note(err)
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Len reports the number of logical records across all shards.
func (r *reads) Len() int {
	n := 0
	for _, s := range r.readers {
		n += s.Len()
	}
	return n
}

// SearchWithin returns the records entirely contained in query. A record
// lives wholly in one shard, so the forest-wide stream of intersecting
// portions carries everything the containment test needs.
func (f *Forest) SearchWithin(query geom.Rect) ([]core.Entry, error) {
	return core.Within(f.SearchFunc, query)
}

// VisitPortions walks every shard's stored portions in shard order; fn
// returning false stops the walk.
func (f *Forest) VisitPortions(fn func(level int, e core.Entry) bool) error {
	if err := f.guard(); err != nil {
		return err
	}
	sc := f.scanPool.Get().(*scanCtx)
	sc.levelFn, sc.stopped = fn, false
	var err error
	for _, s := range f.shards {
		if err = s.VisitPortions(sc.visitL); err != nil || sc.stopped {
			break
		}
	}
	sc.levelFn = nil
	f.scanPool.Put(sc)
	f.note(err)
	return err
}

// Height reports the tallest shard's height.
func (f *Forest) Height() int {
	h := 0
	for _, s := range f.shards {
		if sh := s.Height(); sh > h {
			h = sh
		}
	}
	return h
}

// NodeCount reports the total index nodes across all shards.
func (f *Forest) NodeCount() int {
	n := 0
	for _, s := range f.shards {
		n += s.NodeCount()
	}
	return n
}

// Stats returns activity counters summed across shards.
func (f *Forest) Stats() core.Stats {
	var out core.Stats
	for _, sh := range f.shards {
		out.Add(sh.Stats())
	}
	return out
}

// PoolStats returns buffer pool counters summed across the shards'
// independent pools.
func (f *Forest) PoolStats() buffer.Stats {
	var out buffer.Stats
	for _, sh := range f.shards {
		out.Add(sh.PoolStats())
	}
	return out
}

// ShardStats returns each shard's activity counters.
func (f *Forest) ShardStats() []core.Stats {
	out := make([]core.Stats, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Stats()
	}
	return out
}

// ShardPoolStats returns each shard's buffer pool counters.
func (f *Forest) ShardPoolStats() []buffer.Stats {
	out := make([]buffer.Stats, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.PoolStats()
	}
	return out
}

// AccelStats concatenates the shards' stab-accelerator counters in shard
// order (shards without an accelerator contribute nothing).
func (f *Forest) AccelStats() []accel.Stats {
	var out []accel.Stats
	for _, s := range f.shards {
		out = append(out, s.AccelStats()...)
	}
	return out
}

// ShardLens returns each shard's logical record count.
func (f *Forest) ShardLens() []int {
	out := make([]int, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Len()
	}
	return out
}

// Analyze merges the per-shard structural reports into the first shard's:
// counts sum, height is the maximum, and per-level quality metrics are
// node-weighted means. The first report is the base the others fold into,
// so a forest of one reports exactly what its tree does.
func (f *Forest) Analyze() (*core.Report, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	var out *core.Report
	for _, s := range f.shards {
		r, err := s.Analyze()
		if err != nil {
			f.note(err)
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

// CheckInvariants validates every shard and the cross-shard routing
// invariants (router.check).
func (f *Forest) CheckInvariants() error {
	if err := f.guard(); err != nil {
		return err
	}
	for i, s := range f.shards {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("forest: shard %d: %w", i, err)
		}
	}
	return f.rt.check(f.shards)
}

// Flush persists the forest at a new epoch: the manifest (when durable)
// commits epoch E first, then every shard is stamped with E and flushed —
// concurrently, each to its own store and WAL. A crash anywhere in this
// sequence leaves every durable shard at an epoch at most E, which reopen
// verifies. All shard flushes are attempted even after one fails; the
// joined error is returned and, when it carries store.ErrBroken, latched
// forest-wide.
func (f *Forest) Flush() error {
	if err := f.guard(); err != nil {
		return err
	}
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	if f.manifest != nil {
		e := f.flushEpoch + 1
		if err := f.manifest.Commit(Manifest{Shards: len(f.shards), Epoch: e}); err != nil {
			err = fmt.Errorf("%w: %w", store.ErrBroken, err)
			f.note(err)
			return err
		}
		f.flushEpoch = e
		for _, s := range f.shards {
			s.SetFlushEpoch(e)
		}
	}
	errs := make([]error, len(f.shards))
	_ = fanout.Run(nil, f.Parallelism(), len(f.shards), func(i int) error {
		errs[i] = f.shards[i].Flush()
		return nil // attempt every shard; errors are joined below
	})
	err := errors.Join(errs...)
	f.note(err)
	return err
}

// FlushShard persists one shard at the forest's current epoch, without a
// manifest bump — the group-commit primitive for writers pinned to
// distinct shards. Safe against crashes: the shard's durable epoch never
// exceeds the manifest's.
func (f *Forest) FlushShard(i int) error {
	if err := f.guard(); err != nil {
		return err
	}
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("forest: shard %d out of range [0, %d)", i, len(f.shards))
	}
	err := f.shards[i].Flush()
	f.note(err)
	return err
}

// Close flushes the forest and closes every shard store it was given and
// the manifest; a shard whose store the caller manages (Shard.Store nil)
// is flushed and its store left open. The stores are closed even when the
// flush fails; all errors are reported.
func (f *Forest) Close() error {
	err := f.Flush()
	for _, st := range f.stores {
		if st != nil {
			err = errors.Join(err, st.Close())
		}
	}
	if f.manifest != nil {
		err = errors.Join(err, f.manifest.Close())
	}
	return err
}
