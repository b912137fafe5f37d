package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"segidx/internal/accel"
	"segidx/internal/buffer"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// Common errors returned by Tree operations.
var (
	ErrDims     = errors.New("core: rectangle dimensionality does not match index")
	ErrBadRect  = errors.New("core: invalid rectangle")
	ErrNotEmpty = errors.New("core: operation requires an empty index")
)

// Tree is a paged segment index: an R-Tree when Spanning is disabled, an
// SR-Tree when enabled, and the skeleton variants of either when built with
// BuildSkeleton.
//
// A Tree is safe for concurrent use: mutations (Insert, Delete, Flush,
// Close) serialize behind an exclusive lock, while queries (Search*,
// Count, Stab via SearchContaining, VisitPortions, Len, Height) take no
// tree-level lock at all — each pins an MVCC snapshot of the committed
// state and traverses immutable page versions, so a committing writer
// never blocks readers (see snapshot.go for the protocol). The remaining
// read-only inspection paths (Analyze, CheckInvariants, Stats) still run
// under the shared lock; they are diagnostics, not the serving path.
type Tree struct {
	cfg   Config
	codec node.Codec
	store store.Store
	pool  *buffer.Pool

	// state is the committed tree version queries read: published
	// atomically at the end of every mutating operation. The plain
	// fields below are the writer's working copy, valid only under mu.
	state atomic.Pointer[treeState]

	// snaps registers the epochs of live snapshots for epoch-based GC;
	// gcMu serializes collectors and gcMin remembers the last epoch
	// swept so idle releases skip redundant sweeps.
	snaps snapRegistry
	gcMu  sync.Mutex
	gcMin atomic.Uint64

	// sidecar is the optionally attached stab accelerator, kept
	// epoch-consistent through the write bracket; see sidecar.go.
	sidecar atomic.Pointer[sidecarRef]

	mu     sync.RWMutex
	root   page.ID
	height int // number of levels; root level == height-1
	size   int // logical records (cut portions counted once)

	// cutPortions counts stored record portions in excess of distinct
	// record IDs: each cut adds len(remnants), each insert reusing a
	// live ID adds one, and each full-record deletion subtracts
	// (portions removed - 1). When zero, no ID has more than one stored
	// portion and the read path skips duplicate elimination entirely —
	// a pure win for the R-Tree baseline, which never cuts. The gauge
	// may over-estimate (reopened or degraded trees) but never
	// under-estimates; CheckInvariants verifies the bound.
	cutPortions int

	// ids tracks the record IDs present so Insert detects ID reuse.
	ids idSet

	// qctxPool recycles per-query read-path state (traversal stack, dedup
	// set, result arena); see queryCtx.
	qctxPool sync.Pool

	// modCounts tracks per-leaf modification frequency for the
	// coalescing policy ("the L least frequently modified nodes").
	modCounts     map[page.ID]uint64
	sinceCoalesce int

	stats Stats
}

// Engine is the operation set of one tree of an index: what the index
// needs from each of its shards. A Tree and a skeleton.Predictor each are
// one.
type Engine interface {
	Reader
	Insert(geom.Rect, node.RecordID) error
	Delete(node.RecordID, geom.Rect) (int, error)
	DeleteWhere(geom.Rect, func(Entry) bool) (int, error)
	VisitPortions(func(level int, e Entry) bool) error
	Height() int
	NodeCount() int
	Stats() Stats
	PoolStats() buffer.Stats
	AccelStats() []accel.Stats
	Flush() error
	CheckInvariants() error
	Analyze() (*Report, error)
	Snapshot() View
	CommitEpoch() uint64
}

// New creates an empty dynamic index over the given store. Pass a fresh
// store; the tree owns its pages.
func New(cfg Config, st store.Store) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:       cfg,
		codec:     node.Codec{Dims: cfg.Dims},
		store:     st,
		modCounts: make(map[page.ID]uint64),
	}
	t.pool = buffer.New(st, t.codec, cfg.PoolBytes)
	// The metadata page is always the first allocation of a fresh store.
	meta, err := st.Allocate(metaPageBytes)
	if err != nil {
		return nil, err
	}
	if meta != metaPageID {
		return nil, fmt.Errorf("core: store is not fresh (metadata page allocated as %v)", meta)
	}
	// The empty root is written in the bracket that publishes epoch 1.
	t.pool.BeginWrite(1)
	root, err := t.pool.NewNode(0, cfg.Sizes.BytesForLevel(0))
	if err != nil {
		return nil, err
	}
	t.root = root.ID
	t.height = 1
	t.publishState(1)
	return t, nil
}

// NewInMemory creates an empty dynamic index over a fresh in-memory store.
func NewInMemory(cfg Config) (*Tree, error) {
	return New(cfg, store.NewMemStore())
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Len implements Reader. Lock-free: reads the published state.
func (t *Tree) Len() int { return t.state.Load().size }

// Height reports the number of levels (1 for a single leaf root).
// Lock-free: reads the published state.
func (t *Tree) Height() int { return t.state.Load().height }

// NodeCount reports the number of index nodes (pages, excluding the
// metadata page).
func (t *Tree) NodeCount() int { return t.store.Len() - 1 }

// PoolStats returns buffer pool counters.
func (t *Tree) PoolStats() buffer.Stats { return t.pool.Stats() }

// Flush writes all dirty nodes and the tree metadata back to the page
// store, then commits if the store is transactional (store.Committer,
// e.g. WALStore). Over a committing store Flush is atomic: a crash at any
// point recovers either the pre-flush tree or the post-flush tree, never
// a hybrid. A tree over a durable store must be flushed before close to
// be reopenable with Open.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

// flushLocked writes dirty nodes plus metadata and commits. The caller
// must hold the write lock on t.mu.
func (t *Tree) flushLocked() error {
	if err := t.pool.Flush(); err != nil {
		return err
	}
	if err := t.writeMeta(); err != nil {
		return err
	}
	c, ok := t.store.(store.Committer)
	if !ok {
		return nil
	}
	if err := c.Commit(); err != nil {
		// The durable image is some earlier commit boundary; resident
		// nodes no longer describe it. Drop them so nothing stale is
		// served or written back.
		t.pool.Invalidate()
		return err
	}
	return nil
}

// Close flushes the index and closes the underlying page store. The tree
// is unusable afterwards. The store is closed even when the flush fails;
// all errors are reported.
func (t *Tree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return errors.Join(t.flushLocked(), t.store.Close())
}

// leafCap returns the record capacity of a leaf node.
func (t *Tree) leafCap() int {
	return t.codec.LeafCapacity(t.cfg.Sizes.BytesForLevel(0))
}

// branchCap returns the branch capacity of a non-leaf node at level.
func (t *Tree) branchCap(level int) int {
	return t.cfg.branchCapAt(level, t.codec)
}

// spanCap returns the spanning-record capacity of a non-leaf node at level.
func (t *Tree) spanCap(level int) int {
	return t.cfg.spanCapAt(level, t.codec)
}

// minLeaf is the minimum record count of a non-root leaf.
func (t *Tree) minLeaf() int {
	m := int(float64(t.leafCap()) * minFillFrac)
	if m < 1 {
		m = 1
	}
	return m
}

// minBranch is the minimum branch count of a non-root internal node.
func (t *Tree) minBranch(level int) int {
	m := int(float64(t.branchCap(level)) * minFillFrac)
	if m < 2 {
		m = 2
	}
	return m
}

// overflowing reports whether the node must split. Leaves split when their
// records exceed the page. Non-leaf nodes split only when their branch
// count exceeds the reserved branch capacity: spanning index records share
// the remaining page bytes with branches (Section 2.1.2) and are evicted,
// never split over — see placeSpanning and addBranch.
func (t *Tree) overflowing(n *node.Node) bool {
	if n.IsLeaf() {
		return len(n.Records) > t.leafCap()
	}
	return len(n.Branches) > t.branchCap(n.Level)
}

// pageBytes returns the page size of a node at the given level.
func (t *Tree) pageBytes(level int) int {
	return t.cfg.Sizes.BytesForLevel(level)
}

// fitsBytes reports whether the node's entries fit its page.
func (t *Tree) fitsBytes(n *node.Node) bool {
	return t.codec.UsedBytes(n) <= t.pageBytes(n.Level)
}

// fetch returns the newest version of a node for read-only use, charging
// one logical node access to the given counter. The counter is updated
// atomically because inspection passes run under the read lock
// concurrently. The caller must hold t.mu (or own the tree exclusively, as
// bulk construction does before publishing it). The node needs no release.
// The write path descends with fetch too, and calls mut on a node before
// the first change to it.
func (t *Tree) fetch(id page.ID, accesses *uint64) (*node.Node, error) {
	n, err := t.pool.Get(id)
	if err != nil {
		return nil, fmt.Errorf("core: fetch %v: %w", id, err)
	}
	if accesses != nil {
		atomic.AddUint64(accesses, 1)
	}
	return n, nil
}

// mut returns the version of n's page the current write bracket may
// change: the bracket's copy-on-write clone, made here at the first mut of
// the page per operation, so snapshots pinned before the operation keep
// reading the pre-image. Pages are cloned at their first mutation, not
// their first visit, so a frame is dirty exactly when an operation changed
// it; n itself must not be used afterwards. The caller must hold the write
// lock on t.mu.
func (t *Tree) mut(n *node.Node) (*node.Node, error) {
	m, err := t.pool.Upgrade(n.ID)
	if err != nil {
		return nil, fmt.Errorf("core: upgrade %v: %w", n.ID, err)
	}
	return m, nil
}

// rootCover returns the rectangle covering everything in the tree, or the
// empty marker for an empty tree. Caller must hold the lock.
func (t *Tree) rootCover() (geom.Rect, error) {
	n, err := t.fetch(t.root, nil)
	if err != nil {
		return geom.Rect{}, err
	}
	return n.Cover(t.cfg.Dims), nil
}

// touchLeaf records one modification of a leaf for the coalescing policy.
// The caller must hold the write lock on t.mu.
func (t *Tree) touchLeaf(id page.ID) {
	t.modCounts[id]++
}

// forgetLeaf removes a freed leaf from the modification statistics. The
// caller must hold the write lock on t.mu.
func (t *Tree) forgetLeaf(id page.ID) {
	delete(t.modCounts, id)
}

func (t *Tree) validateRect(r geom.Rect) error {
	if !r.Valid() {
		return ErrBadRect
	}
	if r.Dims() != t.cfg.Dims {
		return ErrDims
	}
	return nil
}
