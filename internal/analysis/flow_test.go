package analysis

import "testing"

// The flow-sensitive passes are tested the same way as the syntactic ones:
// fixtures with "// want <analyzer>" markers, one per expected diagnostic
// line. Each fixture pairs seeded violations with the repo's accepted
// idioms (defer release, per-path release, lock handoff, error-path
// refinement) to pin both directions.

// TestLocksPaths pins per-path release balance.
func TestLocksPaths(t *testing.T) {
	checkFixture(t, Locks, `package fixture

import "sync"

type Tree struct {
	mu   sync.RWMutex
	size int
}

// leak: the early return skips the explicit release.
func (t *Tree) leak(x int) int {
	t.mu.Lock()
	if x > 0 {
		return x // want locks
	}
	t.mu.Unlock()
	return 0
}

// good: the canonical defer idiom.
func (t *Tree) good() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// perPath: explicit release on every path is also accepted.
func (t *Tree) perPath(x int) int {
	t.mu.Lock()
	if x > 0 {
		t.mu.Unlock()
		return x
	}
	t.mu.Unlock()
	return 0
}

// handoff: release-then-return on the fast path, defer on the slow one
// (a read-mostly accessor idiom).
func (t *Tree) handoff() int {
	t.mu.RLock()
	if t.size == 0 {
		t.mu.RUnlock()
		return 0
	}
	defer t.mu.RUnlock()
	return t.size
}

// maybeDefer: the deferred release is scheduled on only one arm.
func (t *Tree) maybeDefer(x int) int {
	t.mu.Lock()
	if x > 0 {
		defer t.mu.Unlock()
	}
	return x // want locks
}

// double: second release on the same path.
func (t *Tree) double() {
	t.mu.Lock()
	t.mu.Unlock()
	t.mu.Unlock() // want locks
}

// reenter: sync mutexes are not reentrant.
func (t *Tree) reenter() {
	t.mu.Lock()
	t.mu.Lock() // want locks
	t.mu.Unlock()
}

// upgrade: taking the write lock while holding the read lock self-deadlocks.
func (t *Tree) upgrade() {
	t.mu.RLock()
	t.mu.Lock() // want locks
	t.mu.Unlock()
	t.mu.RUnlock()
}
`)
}

func TestPinBalance(t *testing.T) {
	checkFixture(t, PinBalance, `package fixture

import "errors"

var errBad = errors.New("bad")

type ID struct{ p, s uint32 }

type node struct{ ID ID }

func (n *node) bad() bool  { return false }
func (n *node) use() error { return nil }

type qctx struct{ pinned []ID }

func (q *qctx) empty() bool { return len(q.pinned) == 0 }
func (q *qctx) count() int  { return len(q.pinned) }

type Tree struct{ root ID }

func (t *Tree) fetch(id ID) (*node, error)    { return &node{ID: id}, nil }
func (t *Tree) mut(n *node) (*node, error)    { return n, nil }
func (t *Tree) getQctx() *qctx                { return &qctx{} }
func (t *Tree) beginRead() (*qctx, error)     { return &qctx{}, nil }
func (t *Tree) releaseQctx(qc *qctx)          { _ = qc }

type View struct{}

func (v *View) Release()  {}
func (v *View) len() int  { return 0 }
func (v *View) ok() bool  { return true }

func (t *Tree) Snapshot() *View { return &View{} }

func (t *Tree) beginOp()                {}
func (t *Tree) publishOp() error        { return nil }
func (t *Tree) abortOp(err error) error { return err }

// fetchNeedsNoRelease: a page access takes nothing that needs releasing.
func (t *Tree) fetchNeedsNoRelease(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	if n.bad() {
		return errBad
	}
	return nil
}

// qctxLeak: the early return drops the query context.
func (t *Tree) qctxLeak() int {
	qc := t.getQctx()
	if qc.empty() {
		return 0 // want pinbalance
	}
	t.releaseQctx(qc)
	return 1
}

// qctxClean: the search-path idiom — take, defer the release.
func (t *Tree) qctxClean() int {
	qc := t.getQctx()
	defer t.releaseQctx(qc)
	return qc.count()
}

// handUp: the context escapes to the caller, who owns the release.
func (t *Tree) handUp() *qctx {
	qc := t.getQctx()
	return qc
}

// readLeak: the errBad return path skips the release; the err return path
// is clean because a failed beginRead holds no context (edge refinement).
func (t *Tree) readLeak() (int, error) {
	qc, err := t.beginRead()
	if err != nil {
		return 0, err
	}
	if qc.empty() {
		return 0, errBad // want pinbalance
	}
	t.releaseQctx(qc)
	return 1, nil
}

// rangeErrOverwrite: the range head reassigns err each iteration, so
// inside the loop err no longer describes the beginRead — the error return
// there leaks the context (no edge refinement applies).
func (t *Tree) rangeErrOverwrite(xs []error) error {
	qc, err := t.beginRead()
	if err != nil {
		return err
	}
	for _, err = range xs {
		if err != nil {
			return err // want pinbalance
		}
	}
	t.releaseQctx(qc)
	return nil
}

// upgradeClean: the write path's idiom — descend, upgrade at the first
// change into the same variable, keep using it.
func (t *Tree) upgradeClean(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	if !n.bad() {
		return nil
	}
	if n, err = t.mut(n); err != nil {
		return err
	}
	return n.use()
}

// upgradeStale: the upgrade's result lands in m, so n still holds the
// published version snapshots read — touching it is a finding.
func (t *Tree) upgradeStale(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	m, err := t.mut(n)
	if err != nil {
		return err
	}
	if n.bad() { // want pinbalance
		return errBad
	}
	return m.use()
}

// upgradeStaleAfterBranch: n was upgraded into m on one arm only; after
// the join, a read of n may read the retired version.
func (t *Tree) upgradeStaleAfterBranch(id ID, change bool) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	if change {
		m, err := t.mut(n)
		if err != nil {
			return err
		}
		if err := m.use(); err != nil {
			return err
		}
	}
	return n.use() // want pinbalance
}

// snapLeak: the early return drops the snapshot without Release.
func (t *Tree) snapLeak(id ID) int {
	v := t.Snapshot()
	if v.ok() {
		return 0 // want pinbalance
	}
	v.Release()
	return v.len()
}

// snapClean: the canonical idiom — pin a view, defer its release.
func (t *Tree) snapClean() int {
	v := t.Snapshot()
	defer v.Release()
	return v.len()
}

// snapPerPath: explicit Release on every path is also accepted.
func (t *Tree) snapPerPath(x int) int {
	v := t.Snapshot()
	if x > 0 {
		v.Release()
		return x
	}
	v.Release()
	return 0
}

// snapDouble: releasing the same snapshot twice on one path.
func (t *Tree) snapDouble() {
	v := t.Snapshot()
	v.Release()
	v.Release() // want pinbalance
}

// snapEscape: the view is handed to the caller, who owns the release.
func (t *Tree) snapEscape() *View {
	v := t.Snapshot()
	return v
}

// bracketLeak: the early return leaves the write bracket open, so staged
// sidecar records would be committed by a later, unrelated operation.
func (t *Tree) bracketLeak(x int) error {
	t.beginOp()
	if x > 0 {
		return errBad // want pinbalance
	}
	return t.publishOp()
}

// bracketClean: the repo's write-op idiom — abort on every error path,
// publish on the success path.
func (t *Tree) bracketClean(id ID) error {
	t.beginOp()
	n, err := t.fetch(id)
	if err != nil {
		return t.abortOp(err)
	}
	if n, err = t.mut(n); err != nil {
		return t.abortOp(err)
	}
	if n.bad() {
		return t.abortOp(errBad)
	}
	return t.publishOp()
}

// bracketMaybe: publish on one arm, a bare return on the other.
func (t *Tree) bracketMaybe(x int) error {
	t.beginOp()
	if x > 0 {
		return t.publishOp()
	}
	return nil // want pinbalance
}

// bracketDouble: aborting after the publish already closed the bracket.
func (t *Tree) bracketDouble() error {
	t.beginOp()
	if err := t.publishOp(); err != nil {
		return t.abortOp(err) // want pinbalance
	}
	return nil
}

// bracketOneArm: the error arm of the if aborts and falls through; the
// other path reaches the return with the bracket still open.
func (t *Tree) bracketOneArm(id ID) error {
	t.beginOp()
	n, err := t.fetch(id)
	if err != nil {
		_ = t.abortOp(err)
	}
	return n.use() // want pinbalance
}

// bracketDoubleOneArm: the error arm aborts and falls through to the
// publish, which closes the bracket a second time on that path only.
func (t *Tree) bracketDoubleOneArm(id ID) error {
	t.beginOp()
	n, err := t.fetch(id)
	if err != nil {
		_ = t.abortOp(err)
	}
	_ = n.use()
	return t.publishOp() // want pinbalance
}
`)
}
