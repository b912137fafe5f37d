package segidx

import (
	"fmt"
	"os"

	"segidx/internal/accel"
	"segidx/internal/core"
	"segidx/internal/forest"
	"segidx/internal/store"
)

// Option customizes index construction.
type Option func(*options) error

type options struct {
	cfg     core.Config
	st      store.Store
	path    string
	durable bool
	par     int
	shards  int

	// Stab-accelerator sidecar configuration; accelOn gates attachment.
	accelOn     bool
	accelDim    int
	accelLevels int
	accelMode   accel.Mode
}

func resolve(opts []Option) (*options, error) {
	o := &options{cfg: core.DefaultConfig()}
	// Paper defaults for skeleton adaptation; active only on skeleton
	// indexes (dynamic constructors disable coalescing).
	o.cfg.CoalesceEvery = 1000
	o.cfg.CoalesceCandidates = 10
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	if o.st != nil && o.path != "" {
		return nil, fmt.Errorf("segidx: WithStore and WithFile are mutually exclusive")
	}
	if o.st != nil && o.shards > 1 {
		// Every shard needs its own store; a single caller-provided store
		// can only be the one shard's.
		return nil, fmt.Errorf("segidx: WithStore and WithShards are mutually exclusive")
	}
	return o, nil
}

// openStore opens the page store at path ("" keeps pages in memory),
// behind a write-ahead log when durable. A durable file's log always holds
// its last commit, which the next durable open re-applies, so writing the
// pages without the log would let that stale batch overwrite newer pages:
// a path with a non-empty log opens durably or not at all.
func (o *options) openStore(path string) (store.Store, error) {
	switch {
	case path == "":
		return store.NewMemStore(), nil
	case o.durable:
		return store.OpenWALStore(path)
	}
	if fi, err := os.Stat(path + store.WALSuffix); err == nil && fi.Size() > 0 {
		return nil, fmt.Errorf("segidx: %s has a write-ahead log; open it with OpenDurable", path)
	}
	return store.OpenFileStore(path)
}

// WithDims sets the dimensionality K of the indexed rectangles
// (default 2, the paper's experimental setting; 1 through 8 supported).
func WithDims(k int) Option {
	return func(o *options) error {
		o.cfg.Dims = k
		return nil
	}
}

// WithLeafNodeBytes sets the page size of leaf nodes (default 1024, the
// paper's setting).
func WithLeafNodeBytes(n int) Option {
	return func(o *options) error {
		o.cfg.Sizes.LeafBytes = n
		return nil
	}
}

// WithNodeGrowth sets the per-level page size multiplier (default 2: node
// size doubles at each higher level, the paper's tactic 2; 1 keeps all
// nodes the same size).
func WithNodeGrowth(g int) Option {
	return func(o *options) error {
		o.cfg.Sizes.Growth = g
		return nil
	}
}

// WithBranchReserve sets the fraction of non-leaf payload reserved for
// branches on SR-Trees (default 2/3, the paper's setting; the remainder
// holds spanning index records).
func WithBranchReserve(f float64) Option {
	return func(o *options) error {
		o.cfg.BranchReserve = f
		return nil
	}
}

// WithLeafPromotion controls whether leaf records spanning a post-split
// leaf are promoted to the parent (default true; see DESIGN.md, ablation
// A5).
func WithLeafPromotion(enabled bool) Option {
	return func(o *options) error {
		o.cfg.LeafPromotion = enabled
		return nil
	}
}

// WithCoalescing tunes skeleton-index coalescing: scan for mergeable
// sibling leaves after every `every` insertions among the `candidates`
// least-frequently-modified leaves (paper: 1000 and 10). every == 0
// disables coalescing. Only skeleton indexes coalesce.
func WithCoalescing(every, candidates int) Option {
	return func(o *options) error {
		o.cfg.CoalesceEvery = every
		o.cfg.CoalesceCandidates = candidates
		return nil
	}
}

// WithPoolBytes caps buffer pool residency in bytes (default 0 =
// unlimited). A sharded index divides the budget evenly across its shards,
// so sharding does not multiply memory.
func WithPoolBytes(n int) Option {
	return func(o *options) error {
		o.cfg.PoolBytes = n
		return nil
	}
}

// WithParallelism bounds the worker goroutines used by the batch APIs
// (SearchBatch, StabBatch, InsertBatch). The default 0 means GOMAXPROCS
// at call time; SetParallelism changes the bound later.
func WithParallelism(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("segidx: negative parallelism %d", n)
		}
		o.par = n
		return nil
	}
}

// WithShards partitions the index into n independent trees ("shards")
// behind the same Index facade. Each shard has its own page store,
// write-ahead log (with WithDurableFile), buffer-pool budget, and write
// lock, so writers on distinct shards proceed in parallel; queries scatter
// across every shard and gather the results. A record's shard is a fixed
// hash of its ID (see (*Index).ShardOf), so every portion inserted under
// one ID lands on the same shard, preserving single-tree dedup and delete
// semantics. Shards buy write parallelism only: each holds a uniform
// sample of the data, so no query skips a shard.
//
// With WithFile or WithDurableFile, path holds the forest manifest (the
// shard count, written once at creation) and shard i's pages live at path.shard<i> (plus a ".wal" sibling per shard
// when durable); Open and OpenDurable detect the manifest and reassemble
// the forest without reading its records. n <= 1 is the default, one tree:
// a forest of one that routes nothing and stores its pages at path itself,
// with no manifest. n may be at most 1024. Incompatible with WithStore.
func WithShards(n int) Option {
	return func(o *options) error {
		if n < 0 || n > forest.MaxShards {
			return fmt.Errorf("segidx: shard count %d outside [0, %d]", n, forest.MaxShards)
		}
		o.shards = n
		return nil
	}
}

// Default hot-dimension domain for WithStabAccel when no skeleton estimate
// supplies one. Matches the benchmark workload domain; out-of-domain values
// clamp to the edge cells of the accelerator (exact answers, degraded
// balance).
const (
	defaultAccelLo = 0.0
	defaultAccelHi = 100000.0
)

// WithStabAccel attaches a HINT-style hierarchical stab accelerator as a
// sidecar over the given hot dimension: a main-memory index partitioning
// that dimension's domain into 2^levels cells (levels in [1, 16]; 10–12
// suits ~100k-value domains) that answers stabbing and narrow
// intersection queries without touching tree pages. The sidecar is kept
// epoch-consistent with the tree's MVCC commits, so snapshot reads see
// matching answers; each shard of a forest gets its own sidecar. Queries
// route between tree and sidecar by their shape — see WithHybridMode. The hot-dimension domain is the skeleton estimate's
// domain when one is given, else [0, 100000]. Values outside the domain
// stay exact but crowd the edge cells.
//
// Queries answered by the sidecar report each record's full original
// rectangle, where the bare tree may report a cut record's narrower
// intersecting-portion union; record ID sets are always identical.
// Contents the sidecar cannot represent exactly (duplicate record IDs,
// reopened pre-cut records) permanently degrade it to a dormant
// pass-through — every query then runs on the tree.
func WithStabAccel(dim, levels int) Option {
	return func(o *options) error {
		if dim < 0 {
			return fmt.Errorf("segidx: negative accelerator dimension %d", dim)
		}
		if levels < 1 || levels > 16 {
			return fmt.Errorf("segidx: accelerator levels %d outside [1, 16]", levels)
		}
		o.accelOn = true
		o.accelDim = dim
		o.accelLevels = levels
		return nil
	}
}

// WithHybridMode sets the stab accelerator's routing policy: HybridAuto
// (default) picks tree or sidecar per query from the query's shape,
// HybridAlways routes every eligible query to the sidecar, HybridOff
// keeps the sidecar maintained but unused. Only meaningful with
// WithStabAccel.
func WithHybridMode(m HybridMode) Option {
	return func(o *options) error {
		if m != HybridAuto && m != HybridAlways && m != HybridOff {
			return fmt.Errorf("segidx: unknown hybrid mode %d", int32(m))
		}
		o.accelMode = m
		return nil
	}
}

// newStabAccel builds the configured accelerator for an index of the
// given dimensionality (nil when none was requested). est, when non-nil,
// supplies the hot-dimension bounds.
func (o *options) newStabAccel(dims int, est *SkeletonEstimate) (*accel.Accel, error) {
	if !o.accelOn {
		return nil, nil
	}
	lo, hi := defaultAccelLo, defaultAccelHi
	if est != nil && est.Domain.Valid() && est.Domain.Dims() > o.accelDim &&
		est.Domain.Min[o.accelDim] < est.Domain.Max[o.accelDim] {
		lo, hi = est.Domain.Min[o.accelDim], est.Domain.Max[o.accelDim]
	}
	return accel.New(accel.Config{
		Dims:   dims,
		Dim:    o.accelDim,
		Levels: o.accelLevels,
		Lo:     lo,
		Hi:     hi,
		Mode:   o.accelMode,
	})
}

// attachStabAccel builds and attaches the configured accelerator to one
// tree (a no-op without WithStabAccel).
func (o *options) attachStabAccel(t *core.Tree, est *SkeletonEstimate) error {
	a, err := o.newStabAccel(t.Config().Dims, est)
	if err != nil || a == nil {
		return err
	}
	return t.AttachStabAccel(a)
}

// WithFile stores index pages in a single file at path. The index owns the
// file handle; Close releases it.
func WithFile(path string) Option {
	return func(o *options) error {
		if path == "" {
			return fmt.Errorf("segidx: empty file path")
		}
		o.path = path
		return nil
	}
}

// WithDurableFile stores index pages in a single file at path behind a
// write-ahead log (a sibling file with a ".wal" suffix). Flush becomes a
// crash-atomic commit: after a crash at any point, reopening with
// OpenDurable recovers the state of the last completed Flush — never a
// torn hybrid. Each Flush costs an fsync of the log and of the page file;
// see EXPERIMENTS.md for the measured overhead. The log keeps the last
// Flush's batch, so the path reopens only with OpenDurable.
func WithDurableFile(path string) Option {
	return func(o *options) error {
		if path == "" {
			return fmt.Errorf("segidx: empty file path")
		}
		o.path = path
		o.durable = true
		return nil
	}
}

// WithStore uses a caller-provided page store. The caller keeps ownership:
// Close does not close it. Intended for tests and custom backends.
func WithStore(st store.Store) Option {
	return func(o *options) error {
		if st == nil {
			return fmt.Errorf("segidx: nil store")
		}
		o.st = st
		return nil
	}
}
