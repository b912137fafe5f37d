package core

import (
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
)

// orphan is an entry displaced by condensation that must be reinserted:
// either a record (Branch == page.Nil) or a whole subtree branch to be
// re-attached at its original level.
type orphan struct {
	rec    node.Record
	branch node.Branch
	level  int // level the branch's node lives at; -1 for records
}

// Delete removes every portion of the logical record with the given ID
// whose rectangle intersects hint, and returns the number of logical
// records removed (0 or 1 for unique IDs). Pass the rectangle originally
// inserted (or any rectangle covering it) as hint; the paper notes that
// deleting a cut record requires finding all of its spanning/remnant
// portions, which share the record ID.
//
// Underfull nodes are condensed à la Guttman: the node is removed and its
// remaining entries reinserted; spanning index records on removed nodes are
// reinserted as well.
func (t *Tree) Delete(id node.RecordID, hint geom.Rect) (int, error) {
	if err := t.validateRect(hint); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginOp()
	n, err := t.deleteMatching(hint, func(rec node.Record) bool { return rec.ID == id })
	if err != nil {
		return 0, t.abortOp(err)
	}
	return n, t.publishOp()
}

// DeleteWhere removes every logical record that has a stored portion
// intersecting query and satisfying pred (nil matches everything), and
// returns the number of logical records removed. All portions of each
// matched record are removed, including portions outside query.
func (t *Tree) DeleteWhere(query geom.Rect, pred func(Entry) bool) (int, error) {
	if err := t.validateRect(query); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginOp()

	// Pass 1: collect matching IDs (read-only).
	ids := make(map[node.RecordID]bool)
	stack := []page.ID{t.root}
	for len(stack) > 0 {
		nid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.fetch(nid, &t.stats.InsertNodeAccesses)
		if err != nil {
			return 0, t.abortOp(err)
		}
		for i := range n.Records {
			rec := n.Records[i]
			if rec.Rect.Intersects(query) &&
				(pred == nil || pred(Entry{Rect: rec.Rect, ID: rec.ID})) {
				ids[rec.ID] = true
			}
		}
		for i := range n.Branches {
			if n.Branches[i].Rect.Intersects(query) {
				stack = append(stack, n.Branches[i].Child)
			}
		}
		t.done(nid, false)
	}
	if len(ids) == 0 {
		return 0, t.publishOp()
	}

	// Pass 2: remove every portion of every matched ID anywhere in the
	// tree (cut portions may live outside query).
	cover, err := t.rootCover()
	if err != nil {
		return 0, t.abortOp(err)
	}
	if cover.IsEmptyMarker() {
		return 0, t.publishOp()
	}
	n, err := t.deleteMatching(cover, func(rec node.Record) bool { return ids[rec.ID] })
	if err != nil {
		return 0, t.abortOp(err)
	}
	return n, t.publishOp()
}

// deleteMatching removes every record portion intersecting hint for which
// match returns true, condenses the tree, and returns the number of
// distinct logical records removed. Caller must hold the write lock.
func (t *Tree) deleteMatching(hint geom.Rect, match func(node.Record) bool) (int, error) {
	o := t.newOp(&t.stats.InsertNodeAccesses)
	var orphans []orphan
	removed := make(map[node.RecordID]int)
	_, _, err := t.deleteRec(t.root, hint, match, o, removed, &orphans)
	if err != nil {
		return 0, err
	}

	// Removing every portion of a record retires its excess portions:
	// subtract (portions removed - 1) per ID from the gauge that lets
	// the read path skip duplicate elimination, and release the ID for
	// exact reuse detection.
	for id, portions := range removed {
		t.cutPortions -= portions - 1
		t.ids.remove(id)
		t.stageSidecarDelete(id)
	}
	if t.cutPortions < 0 {
		t.cutPortions = 0
	}

	// Condense even when nothing matched: the traversal dismantles nodes
	// that were already underfull — a skeleton's pre-built empty leaves —
	// and could otherwise leave a branchless non-leaf on the descent path.
	//
	// A root that lost every branch is replaced by an empty leaf before
	// orphans are re-attached.
	if err := t.resetEmptyRoot(o); err != nil {
		return 0, err
	}

	// Reinsert orphaned subtrees first (they restore structure), then
	// records via the op queue.
	for _, orp := range orphans {
		if orp.level >= 0 {
			if err := o.insertBranch(orp.branch, orp.level); err != nil {
				return 0, err
			}
		} else {
			o.enqueue(orp.rec.Rect, orp.rec.ID)
			t.stats.Reinserts++
		}
	}
	if err := o.drain(); err != nil {
		return 0, err
	}
	if err := t.collapseRoot(o); err != nil {
		return 0, err
	}
	if err := o.drain(); err != nil {
		return 0, err
	}
	t.size -= len(removed)
	t.stats.Deletes += uint64(len(removed))
	return len(removed), nil
}

// deleteRec removes matching record portions under nid. It returns the
// node's new cover rectangle and whether the node became underfull and was
// dismantled: its surviving entries moved to orphans, its page left for the
// caller to free. The descent visits every subtree the hint meets but
// clones only the nodes that lose an entry or see a branch rectangle move;
// a dismantled node is not emptied, since nothing reads a page on its way
// to being freed except snapshots, which must still see its entries.
func (t *Tree) deleteRec(nid page.ID, hint geom.Rect, match func(node.Record) bool, o *op, removed map[node.RecordID]int, orphans *[]orphan) (geom.Rect, bool, error) {
	n, err := t.fetch(nid, o.accesses)
	if err != nil {
		return geom.Rect{}, false, err
	}
	dims := t.cfg.Dims
	dirty := false // set once n is the bracket's clone, made at its first change

	// Remove matching records on this node (leaf data records or spanning
	// index records).
	for i := len(n.Records) - 1; i >= 0; i-- {
		if n.Records[i].Rect.Intersects(hint) && match(n.Records[i]) {
			if !dirty {
				if n, err = t.mut(n); err != nil {
					return geom.Rect{}, false, err
				}
				dirty = true
			}
			removed[n.Records[i].ID]++
			n.RemoveRecord(i)
		}
	}
	if n.IsLeaf() {
		if dirty {
			t.touchLeaf(nid)
		}
		cover := n.Cover(dims)
		underfull := nid != t.root && len(n.Records) < t.minLeaf()
		if underfull {
			for _, rec := range n.Records {
				*orphans = append(*orphans, orphan{rec: rec, level: -1})
			}
		}
		t.done(nid, dirty)
		return cover, underfull, nil
	}

	// Recurse into intersecting branches.
	for i := len(n.Branches) - 1; i >= 0; i-- {
		if !n.Branches[i].Rect.Intersects(hint) {
			continue
		}
		child := n.Branches[i].Child
		childCover, childGone, err := t.deleteRec(child, hint, match, o, removed, orphans)
		if err != nil {
			t.done(nid, dirty)
			return geom.Rect{}, false, err
		}
		moved := !n.Branches[i].Rect.Equal(childCover)
		if !childGone && !moved {
			continue
		}
		if !dirty {
			if n, err = t.mut(n); err != nil {
				return geom.Rect{}, false, err
			}
			dirty = true
		}
		if childGone {
			// Spanning records linked to the removed branch are orphaned.
			for j := len(n.Records) - 1; j >= 0; j-- {
				if n.Records[j].Span == child {
					*orphans = append(*orphans, orphan{rec: n.Records[j], level: -1})
					n.RemoveRecord(j)
				}
			}
			n.RemoveBranch(i)
			t.forgetLeaf(child)
			if err := t.pool.Free(child); err != nil {
				t.done(nid, dirty)
				return geom.Rect{}, false, err
			}
		} else {
			n.Branches[i].Rect = childCover
			if t.cfg.Spanning {
				o.revalidate[nid] = true
			}
		}
	}

	cover := n.Cover(dims)
	underfull := nid != t.root && len(n.Branches) < t.minBranch(n.Level)
	if underfull {
		// Orphan surviving branches (reinserted at their level) and
		// spanning records.
		for _, b := range n.Branches {
			*orphans = append(*orphans, orphan{branch: b, level: n.Level - 1})
		}
		for _, rec := range n.Records {
			*orphans = append(*orphans, orphan{rec: rec, level: -1})
		}
		delete(o.revalidate, nid)
	}
	t.done(nid, dirty)
	return cover, underfull, nil
}

// resetEmptyRoot replaces a branchless non-leaf root with a fresh empty
// leaf (inheriting any skeleton region), so descents always find a sound
// structure. The caller must hold the write lock on t.mu.
func (t *Tree) resetEmptyRoot(o *op) error {
	n, err := t.fetch(t.root, o.accesses)
	if err != nil {
		return err
	}
	if n.IsLeaf() || len(n.Branches) > 0 {
		t.done(n.ID, false)
		return nil
	}
	region := geom.Rect{}
	if n.HasRegion() {
		region = n.Region.Clone()
	}
	old := n.ID
	t.done(old, false)
	leaf, err := t.pool.NewNode(0, t.cfg.Sizes.BytesForLevel(0))
	if err != nil {
		return err
	}
	if region.Dims() > 0 {
		leaf.Region = region
	}
	t.root = leaf.ID
	t.height = 1
	t.done(leaf.ID, true)
	return t.pool.Free(old)
}

// insertBranch re-attaches an orphaned subtree branch at the given level
// (the level of the node the branch points to). It descends by least
// enlargement to a node at level+1 and installs the branch there, splitting
// upward as needed.
func (o *op) insertBranch(b node.Branch, level int) error {
	t := o.t
	// An empty leaf root simply adopts the subtree as the new root.
	rootN, err := t.fetch(t.root, o.accesses)
	if err != nil {
		return err
	}
	if rootN.IsLeaf() && len(rootN.Records) == 0 {
		old := rootN.ID
		t.done(old, false)
		if err := t.pool.Free(old); err != nil {
			return err
		}
		t.forgetLeaf(old)
		t.root = b.Child
		t.height = level + 1
		return nil
	}
	t.done(rootN.ID, false)
	// If the tree is now shorter than the subtree needs, grow the root.
	for t.height-1 < level+1 {
		if err := t.growRootForBranch(o); err != nil {
			return err
		}
	}
	var path []pathStep
	cur, err := t.fetch(t.root, o.accesses)
	if err != nil {
		return err
	}
	for cur.Level > level+1 {
		bi := chooseBranch(cur, b.Rect)
		child, err := t.fetch(cur.Branches[bi].Child, o.accesses)
		if err != nil {
			return o.release(path, cur, err)
		}
		path = append(path, pathStep{cur, bi})
		cur = child
	}
	if cur, err = t.mut(cur); err != nil {
		return o.release(path, nil, err)
	}
	o.addBranch(cur, b)
	if t.cfg.Spanning {
		o.revalidate[cur.ID] = true
	}
	return o.ascend(path, cur)
}

// growRootForBranch adds one level above the current root so that an
// orphaned subtree of height equal to the tree can be re-attached. The
// caller must hold the write lock on t.mu.
func (t *Tree) growRootForBranch(o *op) error {
	cur, err := t.fetch(t.root, o.accesses)
	if err != nil {
		return err
	}
	newRoot, err := t.pool.NewNode(cur.Level+1, t.cfg.Sizes.BytesForLevel(cur.Level+1))
	if err != nil {
		t.done(cur.ID, false)
		return err
	}
	newRoot.Branches = append(newRoot.Branches, node.Branch{Rect: cur.Cover(t.cfg.Dims), Child: cur.ID})
	t.done(cur.ID, false)
	t.root = newRoot.ID
	t.height++
	t.done(newRoot.ID, true)
	return nil
}

// collapseRoot shrinks the tree while the root is a non-leaf with a single
// branch and no spanning records of its own (any that exist are reinserted
// through the op queue). The caller must hold the write lock on t.mu.
func (t *Tree) collapseRoot(o *op) error {
	for {
		n, err := t.fetch(t.root, o.accesses)
		if err != nil {
			return err
		}
		if n.IsLeaf() || len(n.Branches) != 1 {
			t.done(n.ID, false)
			return nil
		}
		for _, rec := range n.Records {
			o.enqueue(rec.Rect, rec.ID)
			t.stats.Reinserts++
		}
		child := n.Branches[0].Child
		t.done(n.ID, false)
		if err := t.pool.Free(n.ID); err != nil {
			return err
		}
		t.root = child
		t.height--
		if err := o.drain(); err != nil {
			return err
		}
	}
}
