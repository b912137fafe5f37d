package core

import (
	"sync/atomic"

	"segidx/internal/geom"
	"segidx/internal/node"
)

// Entry is one search result: a stored rectangle (possibly a cut portion of
// the original record) and its record ID.
type Entry struct {
	Rect geom.Rect
	ID   node.RecordID
}

// Reader is the query surface every index state answers — a live tree, a
// pinned snapshot of one, a forest, a pinned forest. Every query runs
// against one committed state with no tree-level lock: concurrent writers
// never block it, and it observes either all of a concurrent operation or
// none of it.
type Reader interface {
	// Search returns the logical records intersecting query, deduplicated
	// by record ID (a record cut into spanning and remnant portions is
	// reported once, with the portion rectangle that was found first). The
	// result is owned by the caller: all rectangles are copied into one
	// backing array shared by the returned slice, so a non-empty result
	// costs exactly two allocations per tree.
	Search(query geom.Rect) ([]Entry, error)
	// SearchFunc visits every stored entry intersecting query, including
	// spanning index records on non-leaf nodes (paper Section 3.1.3:
	// spanning records are wholly contained by their node, so depth-first
	// descent into intersecting branches finds all of them). Records cut
	// into several portions are reported once per intersecting portion;
	// use Search for deduplicated logical results.
	//
	// The Entry passed to fn is a view: its rectangle aliases index-owned
	// node memory and is valid only for the duration of the callback. A
	// callback that retains the rectangle past its return must Clone it.
	// fn returning false stops the search early. The visit order is
	// unspecified.
	SearchFunc(query geom.Rect, fn func(Entry) bool) error
	// SearchContaining returns the records that entirely contain query,
	// one Entry per record with the union of its stored portions as the
	// rectangle. The result is owned by the caller.
	SearchContaining(query geom.Rect) ([]Entry, error)
	// SearchContainingFunc visits every logical record that entirely
	// contains query — the generalized stabbing query ("all intervals that
	// contain a given point or region", Section 2.1.1). Cut records are
	// reassembled by unioning their stored portions before the containment
	// test, so each qualifying record is reported exactly once, after the
	// traversal completes. The Entry rectangle passed to fn is the union
	// of the record's portions that intersect query; it is a view into
	// query-scoped memory, valid only during the callback. fn returning
	// false stops the reporting early.
	SearchContainingFunc(query geom.Rect, fn func(Entry) bool) error
	// Count returns the number of logical records intersecting query.
	Count(query geom.Rect) (int, error)
	// Len reports the number of logical records. Records cut into spanning
	// and remnant portions count once.
	Len() int
}

// beginRead opens one query: it validates the rectangle, draws a query
// context and pins the state the query reads — the view's when v is
// non-nil (the view holds the registration), else the state committed at
// call time, registered in the context's own slot. The context must be
// handed back through releaseQctx, which also ends the pin.
//
//seglint:hotpath
func (t *Tree) beginRead(v *TreeView, query geom.Rect) (*queryCtx, error) {
	if v != nil && v.released.Load() {
		return nil, ErrSnapshotReleased
	}
	if err := t.validateRect(query); err != nil {
		return nil, err
	}
	qc := t.getQctx()
	if v != nil {
		qc.st = v.st
	} else {
		t.acquireRead(qc)
	}
	atomic.AddUint64(&t.stats.Searches, 1)
	return qc, nil
}

// nodeBody is the per-node half of a query: it tests one fetched node's
// records against query, accumulating into the context. Returning false
// stops the descent. Bodies are plain functions whose state lives in the
// context, so handing one to descend allocates nothing.
type nodeBody func(qc *queryCtx, n *node.Node, query geom.Rect) bool

// descend is the one query traversal: depth-first from the pinned root
// into every branch intersecting query, running body on each node. A page
// has one parent branch, so each node is reached, resolved at the context's
// pinned epoch and charged as one search node access exactly once.
//
//seglint:hotpath
func (t *Tree) descend(qc *queryCtx, query geom.Rect, body nodeBody) error {
	qc.stack = append(qc.stack, qc.st.root)
	for len(qc.stack) > 0 {
		id := qc.stack[len(qc.stack)-1]
		qc.stack = qc.stack[:len(qc.stack)-1]
		atomic.AddUint64(&t.stats.SearchNodeAccesses, 1)
		n, err := t.pool.GetVersion(id, qc.st.epoch)
		if err != nil {
			return err
		}
		if !body(qc, n, query) {
			return nil
		}
		if !n.IsLeaf() {
			for i := range n.Branches {
				if n.Branches[i].Rect.Intersects(query) {
					qc.stack = append(qc.stack, n.Branches[i].Child)
				}
			}
		}
	}
	return nil
}

// streamNode is SearchFunc's body: every intersecting portion goes to the
// caller's callback.
//
//seglint:hotpath
func streamNode(qc *queryCtx, n *node.Node, query geom.Rect) bool {
	for i := range n.Records {
		if n.Records[i].Rect.Intersects(query) {
			if !qc.fn(Entry{Rect: n.Records[i].Rect, ID: n.Records[i].ID}) {
				return false
			}
		}
	}
	return true
}

// collectNode is Search's body: one view entry per logical record goes to
// qc.entries. Views stay valid until the context is released because the
// snapshot registration keeps every resolved version reachable. When the
// pinned state holds no cut portions no record can appear twice, so the
// dedup set is skipped entirely.
//
//seglint:hotpath
func collectNode(qc *queryCtx, n *node.Node, query geom.Rect) bool {
	dedup := qc.st.cutPortions > 0
	for i := range n.Records {
		if n.Records[i].Rect.Intersects(query) {
			if dedup && qc.markSeen(n.Records[i].ID) {
				continue
			}
			qc.entries = append(qc.entries, Entry{Rect: n.Records[i].Rect, ID: n.Records[i].ID})
		}
	}
	return true
}

// countNode is Count's body: collectNode without the entries.
//
//seglint:hotpath
func countNode(qc *queryCtx, n *node.Node, query geom.Rect) bool {
	dedup := qc.st.cutPortions > 0
	for i := range n.Records {
		if n.Records[i].Rect.Intersects(query) {
			if dedup && qc.markSeen(n.Records[i].ID) {
				continue
			}
			qc.count++
		}
	}
	return true
}

// coverNode is SearchContainingFunc's body: it unions every intersecting
// portion into its record's cover rectangle; emitContaining reports the
// covers once the descent has seen every portion.
//
//seglint:hotpath
func coverNode(qc *queryCtx, n *node.Node, query geom.Rect) bool {
	k := len(query.Min)
	for i := range n.Records {
		r := n.Records[i].Rect
		if !r.Intersects(query) {
			continue
		}
		rid := n.Records[i].ID
		if off, ok := qc.coverOff[rid]; ok {
			// Union in place inside the accumulation buffer.
			for d := 0; d < k; d++ {
				if r.Min[d] < qc.coverBuf[off+d] {
					qc.coverBuf[off+d] = r.Min[d]
				}
				if r.Max[d] > qc.coverBuf[off+k+d] {
					qc.coverBuf[off+k+d] = r.Max[d]
				}
			}
		} else {
			qc.coverOff[rid] = len(qc.coverBuf)
			qc.coverBuf = append(qc.coverBuf, r.Min...)
			qc.coverBuf = append(qc.coverBuf, r.Max...)
			qc.coverIDs = append(qc.coverIDs, rid)
		}
	}
	return true
}

// emitContaining reports every accumulated cover that contains query to
// the caller's callback. Views are built only now: coverNode's appends may
// have moved coverBuf, but the recorded offsets stay valid.
//
//seglint:hotpath
func (qc *queryCtx) emitContaining(query geom.Rect) {
	k := len(query.Min)
	for _, rid := range qc.coverIDs {
		off := qc.coverOff[rid]
		c := geom.Rect{Min: qc.coverBuf[off : off+k : off+k], Max: qc.coverBuf[off+k : off+2*k : off+2*k]}
		if c.Contains(query) && !qc.fn(Entry{Rect: c, ID: rid}) {
			return
		}
	}
}

// The five queries, each implemented once for the live tree (v == nil) and
// for a pinned view of it.

//seglint:hotpath
func (t *Tree) searchFunc(v *TreeView, query geom.Rect, fn func(Entry) bool) error {
	qc, err := t.beginRead(v, query)
	if err != nil {
		return err
	}
	defer t.releaseQctx(qc)
	qc.fn = fn
	return t.descend(qc, query, streamNode)
}

//seglint:hotpath
func (t *Tree) search(v *TreeView, query geom.Rect) ([]Entry, error) {
	qc, err := t.beginRead(v, query)
	if err != nil {
		return nil, err
	}
	defer t.releaseQctx(qc)
	qc.fn = qc.collectFn
	if err := t.routed(qc, query, false, collectNode, qc.accelEmit); err != nil {
		return nil, err
	}
	return materialize(qc.entries, t.cfg.Dims), nil
}

//seglint:hotpath
func (t *Tree) count(v *TreeView, query geom.Rect) (int, error) {
	qc, err := t.beginRead(v, query)
	if err != nil {
		return 0, err
	}
	defer t.releaseQctx(qc)
	if err := t.routed(qc, query, false, countNode, qc.accelCountFn); err != nil {
		return 0, err
	}
	return qc.count, nil
}

//seglint:hotpath
func (t *Tree) containingFunc(v *TreeView, query geom.Rect, fn func(Entry) bool) error {
	qc, err := t.beginRead(v, query)
	if err != nil {
		return err
	}
	defer t.releaseQctx(qc)
	qc.fn = fn
	return t.routed(qc, query, true, coverNode, qc.accelEmit)
}

// containing materializes containingFunc into caller-owned entries.
func (t *Tree) containing(v *TreeView, query geom.Rect) ([]Entry, error) {
	var (
		out    []Entry
		floats []float64
	)
	err := t.containingFunc(v, query, func(e Entry) bool {
		floats = append(floats, e.Rect.Min...)
		floats = append(floats, e.Rect.Max...)
		out = append(out, Entry{ID: e.ID})
		return true
	})
	if err != nil {
		return nil, err
	}
	// Rect views are installed only now: the appends above may have moved
	// the backing array.
	k := t.cfg.Dims
	for i := range out {
		off := i * 2 * k
		out[i].Rect = geom.Rect{Min: floats[off : off+k : off+k], Max: floats[off+k : off+2*k : off+2*k]}
	}
	return out, nil
}

// materialize copies view entries into caller-owned storage: one Entry
// slice backed by one flat float array.
func materialize(views []Entry, dims int) []Entry {
	if len(views) == 0 {
		return nil
	}
	out := make([]Entry, len(views))
	floats := make([]float64, len(views)*2*dims)
	off := 0
	for i := range views {
		out[i] = Entry{Rect: views[i].Rect.CopyInto(floats, off), ID: views[i].ID}
		off += 2 * dims
	}
	return out
}

// Search implements Reader on the state committed at call time.
func (t *Tree) Search(query geom.Rect) ([]Entry, error) { return t.search(nil, query) }

// SearchFunc implements Reader on the state committed at call time.
func (t *Tree) SearchFunc(query geom.Rect, fn func(Entry) bool) error {
	return t.searchFunc(nil, query, fn)
}

// SearchContaining implements Reader on the state committed at call time.
func (t *Tree) SearchContaining(query geom.Rect) ([]Entry, error) { return t.containing(nil, query) }

// SearchContainingFunc implements Reader on the state committed at call
// time.
func (t *Tree) SearchContainingFunc(query geom.Rect, fn func(Entry) bool) error {
	return t.containingFunc(nil, query, fn)
}

// Count implements Reader on the state committed at call time.
func (t *Tree) Count(query geom.Rect) (int, error) { return t.count(nil, query) }

// VisitPortions walks every stored record portion in the index, reporting
// the level it is stored at (0 = leaf; higher levels are spanning index
// records). The Entry rectangle passed to fn is a view into node memory,
// valid only during the callback. fn returning false stops the walk.
// Intended for structural inspection — e.g. the rule-lock manager uses it
// to report which rule predicates have been escalated to non-leaf nodes.
//
// The walk runs against a snapshot: it observes one committed state even
// while writers commit. It is not a descend: it needs every branch rather
// than the intersecting ones, reports each node's level, and is not a
// search, so it charges no node accesses.
func (t *Tree) VisitPortions(fn func(level int, e Entry) bool) error {
	qc := t.getQctx()
	defer t.releaseQctx(qc)
	t.acquireRead(qc)
	qc.stack = append(qc.stack, qc.st.root)
	for len(qc.stack) > 0 {
		id := qc.stack[len(qc.stack)-1]
		qc.stack = qc.stack[:len(qc.stack)-1]
		n, err := t.pool.GetVersion(id, qc.st.epoch)
		if err != nil {
			return err
		}
		for i := range n.Records {
			if !fn(n.Level, Entry{Rect: n.Records[i].Rect, ID: n.Records[i].ID}) {
				return nil
			}
		}
		for i := range n.Branches {
			qc.stack = append(qc.stack, n.Branches[i].Child)
		}
	}
	return nil
}

// SearchWithin returns the records entirely contained in query,
// deduplicated by ID. A cut record qualifies when the union of its stored
// portions lies inside query, which — because cutting preserves the
// original extent exactly — equals containment of the original record.
func (t *Tree) SearchWithin(query geom.Rect) ([]Entry, error) {
	return Within(t.SearchFunc, query)
}

// Within answers SearchWithin over any SearchFunc whose stream delivers
// every intersecting portion of a record — a tree's, or a forest's, where
// a record lives wholly inside one shard.
func Within(searchFunc func(geom.Rect, func(Entry) bool) error, query geom.Rect) ([]Entry, error) {
	// Collect every intersecting portion per ID, then keep IDs whose
	// portions all lie inside the query. A record with any portion
	// outside the query cannot be contained; a portion outside the query
	// either intersects it (observed and rejected below) or lies fully
	// outside, in which case the record extends beyond the query in some
	// dimension and one of its observed portions will touch the query
	// boundary without being contained.
	contained := make(map[node.RecordID]bool)
	first := make(map[node.RecordID]geom.Rect)
	err := searchFunc(query, func(e Entry) bool {
		inside := query.Contains(e.Rect)
		if prev, seen := contained[e.ID]; seen {
			contained[e.ID] = prev && inside
		} else {
			contained[e.ID] = inside
			first[e.ID] = e.Rect.Clone()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	var out []Entry
	for id, ok := range contained {
		if ok {
			out = append(out, Entry{Rect: first[id], ID: id})
		}
	}
	return out, nil
}
