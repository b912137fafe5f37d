package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"segidx/internal/geom"
	"segidx/internal/page"
)

// This file is the MVCC heart of the tree: the atomically published tree
// state, the snapshot epoch registry, the write-operation bracket, and the
// View handle.
//
// The concurrency protocol, end to end:
//
//   - Committed tree state lives in an immutable treeState published
//     through t.state (atomic pointer). Mutable fields on Tree (t.root,
//     t.height, ...) are the writer's working copy, touched only under
//     t.mu's write lock.
//   - A read pins an epoch by storing it into a registry slot, re-loading
//     the state, and retrying if the state changed in between (see
//     acquireRead for why the re-check makes registration race-free). The
//     traversal then runs with NO tree-level lock: every page is resolved
//     through pool.GetVersion(id, epoch), which serves the version of the
//     page visible at the pinned epoch.
//   - The single writer per tree brackets each operation with beginOp /
//     publishOp (abortOp on error): the buffer pool copy-on-writes every
//     mutated page inside the bracket, and publishOp atomically publishes
//     the new treeState with an epoch one higher. Readers therefore see
//     either the whole operation or none of it.
//   - Superseded page versions are reclaimed by epoch GC: collectGarbage
//     computes the minimum epoch still registered (or the published epoch
//     when nothing is) and tells the pool to drop every version superseded
//     at or below it. A version is freed only once every snapshot pinned
//     at or before its supersession epoch has been released.
//
// ErrSnapshotReleased is returned by View methods used after Release.
var ErrSnapshotReleased = errors.New("core: snapshot used after Release")

// treeState is one committed version of the tree: everything a lock-free
// reader needs to traverse, plus the epoch identifying which page versions
// belong to it. Immutable once published.
type treeState struct {
	root        page.ID
	height      int
	size        int
	cutPortions int
	epoch       uint64 // 1 = freshly constructed; +1 per committed write op
}

// snapSlot is one registration cell of the snapshot registry. A reader
// stores its pinned epoch into e (0 = slot free); the writer's GC scan
// reads every slot. Slots are padded so two cores registering concurrently
// do not false-share a cache line.
type snapSlot struct {
	e atomic.Uint64
	_ [56]byte
}

// snapRegistry tracks the epochs of live snapshots. Slots are grow-only:
// a query context allocates its slot once and keeps it for life (the
// steady-state read path touches no registry lock), while explicit
// Snapshot handles draw from a free list.
type snapRegistry struct {
	mu   sync.Mutex
	all  []*snapSlot // every slot ever created; the GC scan target
	free []*snapSlot // released Snapshot slots available for reuse
}

// newSlot creates a slot owned by the caller for life.
func (r *snapRegistry) newSlot() *snapSlot {
	s := &snapSlot{}
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
	return s
}

// getSlot returns a reusable slot for a Snapshot handle.
func (r *snapRegistry) getSlot() *snapSlot {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free = r.free[:n-1]
		r.mu.Unlock()
		return s
	}
	s := &snapSlot{}
	r.all = append(r.all, s)
	r.mu.Unlock()
	return s
}

// putSlot returns a Snapshot handle's slot to the free list. The slot must
// already be cleared.
func (r *snapRegistry) putSlot(s *snapSlot) {
	r.mu.Lock()
	r.free = append(r.free, s)
	r.mu.Unlock()
}

// min returns the smallest registered epoch, or published when no snapshot
// is registered. Called by GC, not by the read path.
func (r *snapRegistry) min(published uint64) uint64 {
	min := published
	r.mu.Lock()
	for _, s := range r.all {
		if e := s.e.Load(); e != 0 && e < min {
			min = e
		}
	}
	r.mu.Unlock()
	return min
}

// publishState publishes the tree's current mutable fields as the
// committed state at the given epoch and tells the pool the epoch is
// durable-eligible. The caller must own the tree exclusively.
func (t *Tree) publishState(epoch uint64) {
	t.state.Store(&treeState{
		root:        t.root,
		height:      t.height,
		size:        t.size,
		cutPortions: t.cutPortions,
		epoch:       epoch,
	})
	t.pool.Publish(epoch)
}

// beginOp opens the copy-on-write bracket for one mutating operation. The
// caller must hold the write lock on t.mu.
func (t *Tree) beginOp() {
	t.pool.BeginWrite(t.state.Load().epoch + 1)
}

// publishOp commits the bracket opened by beginOp: the new state becomes
// visible to readers in one atomic store, then garbage drained by the
// commit is collected. An attached sidecar commits its staging first,
// under the same new epoch — a reader can only pin the epoch after the
// state store below, by which point the sidecar already serves it. The
// caller must hold the write lock on t.mu.
func (t *Tree) publishOp() error {
	newEpoch := t.state.Load().epoch + 1
	if ref := t.sidecar.Load(); ref != nil {
		// gcMin is a proven lower bound on every live and future pinned
		// epoch, so the sidecar may compact versions dead at or below it.
		ref.sc.Commit(newEpoch, t.gcMin.Load())
	}
	t.publishState(newEpoch)
	return t.collectGarbage(true)
}

// abortOp rolls the pool back to the published state and restores the
// tree's working fields from it, so a failed operation leaves no trace.
// The in-memory ID set and leaf modification counters are deliberately not
// rolled back: both only gate heuristics (duplicate elimination stays on a
// little longer, coalescing statistics drift by one op) and never
// correctness. The returned error joins the operation's own error with any
// rollback failure. The caller must hold the write lock on t.mu.
func (t *Tree) abortOp(opErr error) error {
	if ref := t.sidecar.Load(); ref != nil {
		// Staging is the only sidecar state the failed bracket touched.
		ref.sc.Abort()
	}
	rbErr := t.pool.Rollback()
	st := t.state.Load()
	t.root = st.root
	t.height = st.height
	t.size = st.size
	t.cutPortions = st.cutPortions
	return errors.Join(opErr, rbErr)
}

// collectGarbage reclaims page versions no live snapshot can reach.
// freePages additionally executes deferred store-level page frees and is
// reserved for writer-side calls (readers must not touch the store). The
// caller must own the tree exclusively when freePages is set.
func (t *Tree) collectGarbage(freePages bool) error {
	published := t.state.Load().epoch
	min := t.snaps.min(published)
	err := t.pool.Collect(min, freePages)
	for {
		prev := t.gcMin.Load()
		if min <= prev || t.gcMin.CompareAndSwap(prev, min) {
			break
		}
	}
	return err
}

// maybeCollect is the reader-side GC trigger: after a snapshot release, if
// superseded versions are retained and the minimum pinned epoch has
// advanced past the last sweep, one releasing reader (TryLock) sweeps the
// chains. Memory-only: deferred store frees stay on writer paths, so this
// never performs store I/O and cannot fail.
func (t *Tree) maybeCollect() {
	if t.pool.RetainedVersions() == 0 {
		return
	}
	published := t.state.Load().epoch
	if t.snaps.min(published) <= t.gcMin.Load() {
		return
	}
	if !t.gcMu.TryLock() {
		return
	}
	defer t.gcMu.Unlock()
	_ = t.collectGarbage(false)
}

// acquireRead pins the current published epoch into the context's registry
// slot and makes the matching state the one the context reads. Lock-free;
// the loop handles the one race that matters: if the writer publishes
// between our state load and slot store, its GC scan may have run before
// our registration became visible and reclaimed versions our epoch needs —
// but then the re-load observes the newer state and we re-pin at the newer
// epoch, for which the writer is obliged to retain everything. (The writer
// publishes the state first and scans the registry second; we store the
// slot first and check the state second. Under Go's sequentially
// consistent atomics one of the two orders must cross: either the writer
// sees our registration, or we see its publication.)
func (t *Tree) acquireRead(qc *queryCtx) {
	if qc.slot == nil {
		qc.slot = t.snaps.newSlot()
	}
	for {
		st := t.state.Load()
		qc.slot.e.Store(st.epoch)
		if t.state.Load() == st {
			qc.st = st
			return
		}
	}
}

// CommitEpoch reports the number of committed write operations: 0 for a
// freshly constructed or reopened tree, monotonically increasing by one
// per Insert/Delete/DeleteWhere (including no-op deletes). The HTTP result
// cache keys its entries on this value.
func (t *Tree) CommitEpoch() uint64 { return t.state.Load().epoch - 1 }

// AdvanceCommitEpoch republishes the committed state at commit epoch e when
// e is ahead of the tree's own, changing no contents. A tree taking over
// from another (a predictor's built skeleton from its staging tree) uses it
// so the epoch its readers and caches key on never runs backwards. Page
// versions and sidecar records are compared against epochs, never counted,
// so the gap is harmless.
func (t *Tree) AdvanceCommitEpoch(e uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state.Load().epoch < e+1 {
		t.publishState(e + 1)
	}
}

// View is an immutable snapshot of an index. All methods are safe for
// concurrent use by multiple goroutines; queries acquire no tree-level
// lock and observe exactly the committed state at the pin epoch, no matter
// how many writes commit while the view is held. Release must be called
// exactly once when done — holding a view pins every page version it can
// reach, so leaking one retains memory until the next tree mutation's GC
// would (never) free it. seglint's pinbalance pass proves the
// Snapshot/Release pairing statically.
type View interface {
	Reader
	// Epoch reports the commit epoch the snapshot was pinned at.
	Epoch() uint64
	// Release unpins the snapshot. Idempotent; the view is unusable after.
	Release()
}

// TreeView is a pinned snapshot of a single tree; see View.
type TreeView struct {
	t        *Tree
	st       *treeState
	slot     *snapSlot
	released atomic.Bool
}

// Snapshot pins the current committed state of the tree and returns a View
// over it. The snapshot observes no subsequent mutations. Callers must
// Release the view; until then every page version it can reach is retained.
func (t *Tree) Snapshot() View {
	v := &TreeView{t: t, slot: t.snaps.getSlot()}
	for {
		st := t.state.Load()
		v.slot.e.Store(st.epoch)
		if t.state.Load() == st {
			v.st = st
			return v
		}
	}
}

// Release unpins the snapshot and returns its registry slot. Idempotent.
func (v *TreeView) Release() {
	if !v.released.CompareAndSwap(false, true) {
		return
	}
	v.slot.e.Store(0)
	v.t.snaps.putSlot(v.slot)
	v.t.maybeCollect()
}

// Epoch reports the commit epoch the snapshot was pinned at (same scale as
// Tree.CommitEpoch).
func (v *TreeView) Epoch() uint64 { return v.st.epoch - 1 }

// Len reports the number of logical records in the snapshot.
func (v *TreeView) Len() int { return v.st.size }

// Search implements Reader on the pinned state.
func (v *TreeView) Search(query geom.Rect) ([]Entry, error) { return v.t.search(v, query) }

// SearchFunc implements Reader on the pinned state.
func (v *TreeView) SearchFunc(query geom.Rect, fn func(Entry) bool) error {
	return v.t.searchFunc(v, query, fn)
}

// SearchContaining implements Reader on the pinned state.
func (v *TreeView) SearchContaining(query geom.Rect) ([]Entry, error) {
	return v.t.containing(v, query)
}

// SearchContainingFunc implements Reader on the pinned state.
func (v *TreeView) SearchContainingFunc(query geom.Rect, fn func(Entry) bool) error {
	return v.t.containingFunc(v, query, fn)
}

// Count implements Reader on the pinned state.
func (v *TreeView) Count(query geom.Rect) (int, error) { return v.t.count(v, query) }
