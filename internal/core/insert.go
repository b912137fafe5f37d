package core

import (
	"errors"
	"fmt"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// pathStep records one step of a root-to-node descent: the node and the
// branch index taken out of it.
type pathStep struct {
	n   *node.Node
	idx int
}

// pending is a record queued for reinsertion once the tree is structurally
// consistent: remnant portions from cuts, demoted spanning records, and
// entries orphaned by condensation or coalescing.
type pending struct {
	rect     geom.Rect
	id       node.RecordID
	attempts int
}

// op carries per-operation state. All tree mutations run inside an op so
// that reinsertions and spanning-record revalidation happen at safe points.
type op struct {
	t          *Tree
	queue      []pending
	revalidate map[page.ID]bool      // nodes whose spanning records need rechecking
	seen       map[node.RecordID]int // reinsertion attempts per record this op
	accesses   *uint64
}

func (t *Tree) newOp(accesses *uint64) *op {
	return &op{
		t:          t,
		revalidate: make(map[page.ID]bool),
		seen:       make(map[node.RecordID]int),
		accesses:   accesses,
	}
}

// Insert adds a record to the index. The rectangle may be degenerate in any
// subset of dimensions (points and 1-dimensional intervals embedded in K
// dimensions are first-class data, per the paper's third motivation).
func (t *Tree) Insert(rect geom.Rect, id node.RecordID) error {
	if err := t.validateRect(rect); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginOp()
	t.stageSidecarInsert(rect, id)
	if err := t.insertOne(rect, id); err != nil {
		return t.abortOp(err)
	}
	p := t.sampling
	if p == nil {
		return t.publishOp()
	}
	p.sample = append(p.sample, node.Record{Rect: rect.Clone(), ID: id})
	if err := t.publishOp(); err != nil || len(p.sample) < p.target {
		return err
	}
	return t.predict()
}

// insertOne is Insert's body: it places one record, counts it, and
// coalesces on the configured cadence. The caller must hold the write
// lock on t.mu and have opened a write bracket.
func (t *Tree) insertOne(rect geom.Rect, id node.RecordID) error {
	o := t.newOp(&t.stats.InsertNodeAccesses)
	if err := o.insert(rect.Clone(), id, 0); err != nil {
		return err
	}
	if err := o.drain(); err != nil {
		return err
	}
	t.size++
	t.stats.Inserts++
	if t.ids.add(id) {
		// Reused ID: its portions now collide in search results, so the
		// excess-portion gauge must keep duplicate elimination on.
		t.cutPortions++
	}
	if t.cfg.CoalesceEvery > 0 {
		t.sinceCoalesce++
		if t.sinceCoalesce >= t.cfg.CoalesceEvery {
			t.sinceCoalesce = 0
			if err := t.coalesce(o); err != nil {
				return err
			}
			return o.drain()
		}
	}
	return nil
}

// spansQualify reports whether rec qualifies as a spanning record for the
// region: it spans the region in at least one dimension of positive extent.
// The positive-extent requirement keeps degenerate dimensions (e.g. the Y
// extent of a node holding identical-Y segments) from trivially qualifying
// every record. It takes pointers and indexes the corners itself: the
// by-value form copied both rectangles' slice headers through the stack on
// every call, which made spannedBranch's per-branch loop, and so a load,
// up to a quarter slower at some stack depths than at others.
func spansQualify(rec, region *geom.Rect) bool {
	for d := range rec.Min {
		if region.Max[d]-region.Min[d] > 0 && rec.Min[d] <= region.Min[d] && rec.Max[d] >= region.Max[d] {
			return true
		}
	}
	return false
}

// spannedBranch returns the index of the first branch of n whose region is
// spanned by rect, provided rect can be stored on n (it intersects n's
// region, so a clipped spanning portion exists). Returns -1 when rect is
// not a spanning record at this node.
func spannedBranch(n *node.Node, rect, region geom.Rect) int {
	if !rect.Intersects(region) {
		return -1
	}
	for i := range n.Branches {
		if spansQualify(&rect, &n.Branches[i].Rect) {
			return i
		}
	}
	return -1
}

// chooseBranch implements Guttman's ChooseLeaf step: the branch needing the
// least area enlargement to include rect, ties broken by smallest area. It
// takes rect by pointer, as spansQualify does, so the caller's frame layout
// does not change what the per-branch loop copies.
func chooseBranch(n *node.Node, rect *geom.Rect) int {
	best := 0
	bestEnl := n.Branches[0].Rect.Enlargement(rect)
	bestArea := n.Branches[0].Rect.Area()
	for i := 1; i < len(n.Branches); i++ {
		enl := n.Branches[i].Rect.Enlargement(rect)
		area := n.Branches[i].Rect.Area()
		if enl < bestEnl || (geom.Feq(enl, bestEnl) && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// maxSpanningAttempts bounds reinsertions of one record within a single
// operation before it is forced into a leaf. Eviction chains are monotone
// in record margin, so this is a backstop, not the usual terminator; it
// must be generous enough that a cut record's portions can re-place
// themselves as spanning records a few levels down.
const maxSpanningAttempts = 4

// insert places one record (or record portion). attempts counts prior
// reinsertions of this record within the current operation; past the
// bound the record is forced into a leaf to guarantee convergence.
func (o *op) insert(rect geom.Rect, id node.RecordID, attempts int) error {
	t := o.t
	allowSpanning := t.cfg.Spanning && attempts < maxSpanningAttempts

	var path []pathStep
	cur, err := t.fetch(t.root, o.accesses)
	if err != nil {
		return err
	}
	region := cur.Cover(t.cfg.Dims)
	if region.IsEmptyMarker() {
		region = rect.Clone()
	}

	for !cur.IsLeaf() {
		if allowSpanning {
			if bi := spannedBranch(cur, rect, region); bi >= 0 {
				portion := rect
				var remnants []geom.Rect
				// Cutting (Section 3.1.1, Figure 3) keeps a spanning
				// record inside the region its node's parent records for
				// it. The root has no parent: its cover is defined by its
				// own contents, so a record stored on the root needs no
				// cut.
				if cur.ID != t.root && !region.Contains(rect) {
					clip, ok := rect.Clip(region)
					if !ok {
						return fmt.Errorf("core: cut of %v by %v produced no spanning portion", rect, region)
					}
					remnants = rect.Remnants(region)
					portion = clip
				}
				rec := node.Record{Rect: portion, ID: id, Span: cur.Branches[bi].Child}
				// A refused record leaves cur untouched, so only a node that
				// will take the record is cloned.
				if _, ok := o.spanningVictim(cur, rec); ok {
					if cur, err = t.mut(cur); err != nil {
						return err
					}
				}
				if o.placeSpanning(cur, rec) {
					t.stats.SpanPlaced++
					if len(remnants) > 0 {
						t.stats.Cuts++
						t.stats.Remnants += uint64(len(remnants))
						t.cutPortions += len(remnants)
					}
					if err := o.ascend(path, cur); err != nil {
						return err
					}
					for _, rem := range remnants {
						o.enqueue(rem, id)
					}
					return nil
				}
				// No room among longer residents: the record continues
				// its descent and is stored lower in the tree.
			}
		}
		bi := chooseBranch(cur, &rect)
		region = cur.Branches[bi].Rect.Clone()
		child, err := t.fetch(cur.Branches[bi].Child, o.accesses)
		if err != nil {
			return err
		}
		path = append(path, pathStep{cur, bi})
		cur = child
	}

	if cur, err = t.mut(cur); err != nil {
		return err
	}
	cur.Records = append(cur.Records, node.Record{Rect: rect, ID: id})
	t.touchLeaf(cur.ID)
	return o.ascend(path, cur)
}

// ascend walks back up a descent path from the modified node n, updating
// branch rectangles, installing split siblings, placing promoted spanning
// records, and growing the root as needed. An ancestor is cloned only when
// one of those changes it: the walk stops at the first one whose branch
// rectangle already equals the child's new cover with no sibling or
// promoted record pending — nothing above it can change either — and
// leaves the rest of the path untouched.
func (o *op) ascend(path []pathStep, n *node.Node) error {
	t := o.t
	dims := t.cfg.Dims

	var sibling *node.Node     // new node at child's level
	var promoted []node.Record // spanning records bound for the parent
	var err error
	if t.overflowing(n) {
		if sibling, promoted, err = o.split(n); err != nil {
			return err
		}
	}

	child := n
	for i := len(path) - 1; i >= 0; i-- {
		parent, idx := path[i].n, path[i].idx
		newRect := child.Cover(dims)
		moved := !parent.Branches[idx].Rect.Equal(newRect)
		if !moved && sibling == nil && len(promoted) == 0 {
			return nil
		}
		if parent, err = t.mut(parent); err != nil {
			return err
		}
		if moved {
			parent.Branches[idx].Rect = newRect
			if t.cfg.Spanning {
				// The branch region changed: growth can break former
				// spanning relationships (the paper's demotion case), and a
				// shrink can collapse a dimension to zero extent, which also
				// disqualifies records spanning through it.
				o.revalidate[parent.ID] = true
			}
		}

		if sibling != nil {
			o.addBranch(parent, node.Branch{
				Rect: sibling.Cover(dims), Child: sibling.ID,
			})
			sibling = nil
		}
		o.placePromoted(parent, promoted)
		promoted = nil
		if t.overflowing(parent) {
			if sibling, promoted, err = o.split(parent); err != nil {
				return err
			}
		}
		child = parent
	}

	// child is the (old) root. Grow new roots while splits remain.
	for sibling != nil {
		newRoot, err := t.pool.NewNode(child.Level+1, t.cfg.Sizes.BytesForLevel(child.Level+1))
		if err != nil {
			return err
		}
		newRoot.Branches = append(newRoot.Branches,
			node.Branch{Rect: child.Cover(dims), Child: child.ID},
			node.Branch{Rect: sibling.Cover(dims), Child: sibling.ID},
		)
		o.placePromoted(newRoot, promoted)
		promoted = nil
		sibling = nil
		t.root = newRoot.ID
		t.height++
		child = newRoot
		if t.overflowing(newRoot) {
			sibling, promoted, err = o.split(newRoot)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// placePromoted stores records promoted from a split onto their new parent
// node; records that cannot fit even after evicting shorter residents are
// queued for reinsertion.
func (o *op) placePromoted(parent *node.Node, promoted []node.Record) {
	for _, rec := range promoted {
		if o.placeSpanning(parent, rec) {
			o.t.stats.Promotions++
			// The record qualified against its source node's pre-split
			// cover, but the installed branch rect is the post-split cover,
			// which can shrink past the record (removing the promoted
			// records themselves shrinks it). Recheck the link once the
			// operation's structural changes settle.
			o.revalidate[parent.ID] = true
		} else {
			o.enqueue(rec.Rect, rec.ID)
		}
	}
}

// enqueue schedules a record for reinsertion after the current structural
// change completes.
func (o *op) enqueue(rect geom.Rect, id node.RecordID) {
	o.seen[id]++
	o.queue = append(o.queue, pending{rect: rect, id: id, attempts: o.seen[id]})
}

// drain revalidates spanning records and processes the reinsertion queue
// until both are empty.
func (o *op) drain() error {
	for guard := 0; ; guard++ {
		if guard > 1_000_000 {
			return errors.New("core: reinsertion did not converge (structure bug)")
		}
		if len(o.revalidate) > 0 {
			var ids []page.ID
			for id := range o.revalidate {
				ids = append(ids, id)
			}
			o.revalidate = make(map[page.ID]bool)
			for _, id := range ids {
				if err := o.revalidateNode(id); err != nil {
					return err
				}
			}
			continue
		}
		if len(o.queue) == 0 {
			return nil
		}
		p := o.queue[len(o.queue)-1]
		o.queue = o.queue[:len(o.queue)-1]
		o.t.stats.Reinserts++
		if err := o.insert(p.rect, p.id, p.attempts); err != nil {
			return err
		}
	}
}

// revalidateNode rechecks every spanning record on a node: records that no
// longer span their linked branch are relinked to another branch they span,
// or removed and queued for reinsertion (the paper's demotion).
func (o *op) revalidateNode(id page.ID) error {
	t := o.t
	n, err := t.fetch(id, o.accesses)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil // node freed by a concurrent structural change in this op
		}
		return err
	}
	if n.IsLeaf() {
		return nil
	}
	dirty := false // set once n is the bracket's clone, made at the first stale link
	for i := len(n.Records) - 1; i >= 0; i-- {
		rec := n.Records[i]
		bi := n.BranchIndex(rec.Span)
		if bi >= 0 && spansQualify(&rec.Rect, &n.Branches[bi].Rect) {
			continue
		}
		if !dirty {
			if n, err = t.mut(n); err != nil {
				return err
			}
			dirty = true
		}
		relinked := false
		for j := range n.Branches {
			if spansQualify(&rec.Rect, &n.Branches[j].Rect) {
				n.Records[i].Span = n.Branches[j].Child
				t.stats.Relinks++
				relinked = true
				break
			}
		}
		if !relinked {
			n.RemoveRecord(i)
			t.stats.Demotions++
			o.enqueue(rec.Rect, rec.ID)
		}
	}
	return nil
}
