package analysis

import "testing"

// The flow-sensitive passes are tested the same way as the syntactic ones:
// fixtures with "// want <analyzer>" markers, one per expected diagnostic
// line. Each fixture pairs seeded violations with the repo's accepted
// idioms (defer release, per-path release, lock handoff, error-path
// refinement) to pin both directions.

func TestUnlockPath(t *testing.T) {
	checkFixture(t, UnlockPath, `package fixture

import "sync"

type Tree struct {
	mu   sync.RWMutex
	size int
}

// leak: the early return skips the explicit release.
func (t *Tree) leak(x int) int {
	t.mu.Lock()
	if x > 0 {
		return x // want unlockpath
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
// (the predictor idiom).
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
	return x // want unlockpath
}

// double: second release on the same path.
func (t *Tree) double() {
	t.mu.Lock()
	t.mu.Unlock()
	t.mu.Unlock() // want unlockpath
}

// reenter: sync mutexes are not reentrant.
func (t *Tree) reenter() {
	t.mu.Lock()
	t.mu.Lock() // want unlockpath
	t.mu.Unlock()
}

// upgrade: taking the write lock while holding the read lock self-deadlocks.
func (t *Tree) upgrade() {
	t.mu.RLock()
	t.mu.Lock() // want unlockpath
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
func (t *Tree) fetchMut(id ID) (*node, error) { return &node{ID: id}, nil }
func (t *Tree) mut(n *node) (*node, error)    { return n, nil }
func (t *Tree) done(id ID, dirty bool) error  { _, _ = id, dirty; return nil }
func (t *Tree) getQctx() *qctx                { return &qctx{} }
func (t *Tree) releaseQctx(qc *qctx)          { _ = qc }

type View struct{}

func (v *View) Release()  {}
func (v *View) len() int  { return 0 }
func (v *View) ok() bool  { return true }

func (t *Tree) Snapshot() *View { return &View{} }

func (t *Tree) beginOp()                {}
func (t *Tree) publishOp() error        { return nil }
func (t *Tree) abortOp(err error) error { return err }

type Pool struct{}

func (p *Pool) GetMut(id ID) (*node, error)  { return &node{ID: id}, nil }
func (p *Pool) Unpin(id ID, dirty bool) error { _, _ = id, dirty; return nil }

// leak: the errBad return path skips the release; the err return path is
// clean because the failed fetch holds no pin (edge refinement).
func (t *Tree) leak(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	if n.bad() {
		return errBad // want pinbalance
	}
	return t.done(id, false)
}

// clean: released on every path, through n.ID on one arm and the original
// argument on the other.
func (t *Tree) clean(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	if n.bad() {
		t.done(n.ID, false)
		return errBad
	}
	return t.done(id, false)
}

// deferDone: the deferred release covers every later exit.
func (t *Tree) deferDone(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	defer t.done(n.ID, false)
	return n.use()
}

// doubleDone: releasing the same pin twice on one path.
func (t *Tree) doubleDone(id ID) {
	_, err := t.fetch(id)
	if err != nil {
		return
	}
	t.done(id, false)
	t.done(id, false) // want pinbalance
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

// rangeErrOverwrite: the range head reassigns err each iteration, so
// inside the loop err no longer describes the fetch — the error return
// there leaks the pin (no edge refinement applies).
func (t *Tree) rangeErrOverwrite(id ID, xs []error) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	for _, err = range xs {
		if err != nil {
			return err // want pinbalance
		}
	}
	return t.done(n.ID, false)
}

// refetch: the copy-on-write idiom — release the read pin, re-acquire for
// mutation, release again. Each done discharges the live pin; no double
// unpin, no leak.
func (t *Tree) refetch(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	leaf := n.bad()
	t.done(id, false)
	if leaf {
		return nil
	}
	n, err = t.fetchMut(id)
	if err != nil {
		return err
	}
	if n.bad() {
		t.done(id, false)
		return errBad
	}
	return t.done(id, true)
}

// mutLeak: a fetchMut pin leaks on the errBad path like any other pin.
func (t *Tree) mutLeak(id ID) error {
	n, err := t.fetchMut(id)
	if err != nil {
		return err
	}
	if n.bad() {
		return errBad // want pinbalance
	}
	return t.done(id, true)
}

// getMutClean: the pool-level copy-on-write acquisition balances through
// Unpin.
func getMutClean(p *Pool, id ID) error {
	n, err := p.GetMut(id)
	if err != nil {
		return err
	}
	defer p.Unpin(n.ID, true)
	return n.use()
}

// upgradeClean: the write path's idiom — descend with a read pin, upgrade
// it at the first change (into the same variable), release once by ID. The
// untouched path releases the read pin; a failed upgrade holds nothing.
func (t *Tree) upgradeClean(id ID) error {
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	if !n.bad() {
		return t.done(id, false)
	}
	if n, err = t.mut(n); err != nil {
		return err
	}
	if n.bad() {
		t.done(n.ID, true)
		return errBad
	}
	return t.done(id, true)
}

// upgradeStale: the upgrade's result lands in m, so n still holds the
// published version snapshots read — touching it is a finding, and so is
// dropping the write pin on the errBad path.
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
		return errBad // want pinbalance
	}
	return t.done(m.ID, true)
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
	n, err := t.fetchMut(id)
	if err != nil {
		return t.abortOp(err)
	}
	if n.bad() {
		t.done(id, true)
		return t.abortOp(errBad)
	}
	if err := t.done(id, true); err != nil {
		return t.abortOp(err)
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
`)
}

func TestWALOrder(t *testing.T) {
	const header = `package fixture

type logFile struct{}

func (*logFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (*logFile) Sync() error                              { return nil }
func (*logFile) Truncate(n int64) error                   { return nil }

type dataFile struct{}

func (*dataFile) Write(p []byte) error { return nil }
func (*dataFile) Sync() error          { return nil }

type Store struct {
	log   *logFile
	inner *dataFile
	sick  error
}

func (ws *Store) applyLocked(recs []byte) error { return nil }
func (ws *Store) trimLog() error                { return nil }
`

	t.Run("correct protocol", func(t *testing.T) {
		checkFixture(t, WALOrder, header+`
// Commit follows the full order: append, sync log, apply, sync data, trim.
func (ws *Store) Commit(batch []byte) error {
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		return err
	}
	if err := ws.log.Sync(); err != nil {
		return err
	}
	if err := ws.applyLocked(batch); err != nil {
		return err
	}
	if err := ws.inner.Sync(); err != nil {
		return err
	}
	if err := ws.trimLog(); err != nil {
		return err
	}
	return nil
}

// replayDiscard is the parse-failure path: trimming with nothing logged
// in-function is the correct discard.
func (ws *Store) replayDiscard() error {
	return ws.trimLog()
}

// latchClosure is the Commit idiom: a closure latches sick on error paths
// only, so the happy path stays clean.
func (ws *Store) latchClosure(batch []byte) error {
	fail := func(err error) error {
		ws.sick = err
		return err
	}
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		return fail(err)
	}
	if err := ws.log.Sync(); err != nil {
		return fail(err)
	}
	return ws.applyLocked(batch)
}
`)
	})

	t.Run("merged branch stays may-fact", func(t *testing.T) {
		// applyLocked on only one arm must not poison the merged
		// continuation: the log append after the join is a fresh batch,
		// not a write-ahead inversion, and the protocol that follows it
		// is in order.
		checkFixture(t, WALOrder, header+`
func (ws *Store) replayThenCommit(batch []byte, replay bool) error {
	if replay {
		if err := ws.applyLocked(batch); err != nil {
			return err
		}
	}
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		return err
	}
	if err := ws.log.Sync(); err != nil {
		return err
	}
	if err := ws.applyLocked(batch); err != nil {
		return err
	}
	if err := ws.inner.Sync(); err != nil {
		return err
	}
	return ws.trimLog()
}
`)
	})

	t.Run("commit before sync", func(t *testing.T) {
		checkFixture(t, WALOrder, header+`
// Commit returns success while the applied batch is not yet durable.
func (ws *Store) Commit(batch []byte) error {
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		return err
	}
	if err := ws.log.Sync(); err != nil {
		return err
	}
	if err := ws.applyLocked(batch); err != nil {
		return err
	}
	return nil // want walorder
}
`)
	})

	t.Run("apply before log sync", func(t *testing.T) {
		checkFixture(t, WALOrder, header+`
func (ws *Store) commitNoSync(batch []byte) error {
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		return err
	}
	if err := ws.applyLocked(batch); err != nil { // want walorder
		return err
	}
	return ws.log.Sync()
}
`)
	})

	t.Run("trim before durable", func(t *testing.T) {
		checkFixture(t, WALOrder, header+`
func (ws *Store) trimEarly(batch []byte) error {
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		return err
	}
	if err := ws.log.Sync(); err != nil {
		return err
	}
	if err := ws.applyLocked(batch); err != nil {
		return err
	}
	if err := ws.trimLog(); err != nil { // want walorder
		return err
	}
	return ws.inner.Sync()
}
`)
	})

	t.Run("log after apply", func(t *testing.T) {
		checkFixture(t, WALOrder, header+`
func (ws *Store) inverted(batch []byte) error {
	if err := ws.applyLocked(batch); err != nil {
		return err
	}
	if _, err := ws.log.WriteAt(batch, 0); err != nil { // want walorder
		return err
	}
	return ws.log.Sync()
}
`)
	})

	t.Run("write after latch", func(t *testing.T) {
		checkFixture(t, WALOrder, header+`
func (ws *Store) latched(batch []byte) error {
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		ws.sick = err
		ws.log.Sync() // want walorder
		return err
	}
	return ws.log.Sync()
}
`)
	})
}
