package core

import (
	"sort"
	"sync/atomic"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
)

// coalesce merges sparsely populated, spatially adjacent sibling leaves
// (Section 4: skeleton indexes adapt to the actual distribution by making
// high-density regions finer through splitting and sparse regions coarser
// through coalescing). Triggered every Config.CoalesceEvery insertions; the
// scan considers only the Config.CoalesceCandidates least-frequently-
// modified leaves, the restriction the paper proposes.
//
// Two leaves merge when their regions share a full (D-1)-dimensional face
// and the combined record count stays below CoalesceMaxFill of leaf
// capacity. Spanning records linked to the removed leaf are relinked to the
// merged leaf when they still span it, and reinserted otherwise. The caller
// must hold the write lock on t.mu.
func (t *Tree) coalesce(o *op) error {
	L := t.cfg.CoalesceCandidates
	if L <= 0 || t.height < 2 {
		return nil
	}
	candidates := t.leastModifiedLeaves(L)
	if len(candidates) == 0 {
		return nil
	}
	// One pass over the leaf parents; merge at most one pair per parent
	// per trigger to bound the work.
	return t.coalesceScan(t.root, candidates, o)
}

// leastModifiedLeaves returns the IDs of the L leaves with the smallest
// modification counts.
func (t *Tree) leastModifiedLeaves(L int) map[page.ID]bool {
	type leafMod struct {
		id   page.ID
		mods uint64
	}
	all := make([]leafMod, 0, len(t.modCounts))
	for id, m := range t.modCounts {
		all = append(all, leafMod{id, m})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].mods != all[b].mods {
			return all[a].mods < all[b].mods
		}
		return all[a].id < all[b].id
	})
	if len(all) > L {
		all = all[:L]
	}
	out := make(map[page.ID]bool, len(all))
	for _, lm := range all {
		out[lm.id] = true
	}
	return out
}

// coalesceScan walks down to leaf parents and merges one eligible pair per
// parent.
func (t *Tree) coalesceScan(nid page.ID, candidates map[page.ID]bool, o *op) error {
	n, err := t.fetch(nid, o.accesses)
	if err != nil {
		return err
	}
	if n.IsLeaf() {
		t.done(nid, false)
		return nil
	}
	if n.Level > 1 {
		children := make([]page.ID, len(n.Branches))
		for i := range n.Branches {
			children[i] = n.Branches[i].Child
		}
		t.done(nid, false)
		for _, c := range children {
			if err := t.coalesceScan(c, candidates, o); err != nil {
				return err
			}
		}
		return nil
	}

	// n is a leaf parent: look for a mergeable pair involving a candidate,
	// and clone n only once one is found. (The visit is charged twice, as
	// when the scan re-fetched every leaf parent for mutation, so
	// InsertNodeAccesses means what it did.)
	atomic.AddUint64(o.accesses, 1)
	for i := range n.Branches {
		if !candidates[n.Branches[i].Child] {
			continue
		}
		j := t.findMergePartner(n, i, o)
		if j < 0 {
			continue
		}
		if n, err = t.mut(n); err != nil {
			return err
		}
		err = t.mergeLeaves(n, i, j, o)
		if err == nil && t.cfg.Spanning {
			o.revalidate[nid] = true
		}
		t.done(nid, true)
		return err // one merge per parent per trigger
	}
	t.done(nid, false)
	return nil
}

// findMergePartner returns the index of a sibling branch whose leaf is
// spatially adjacent to branch i and small enough to merge, or -1.
func (t *Tree) findMergePartner(n *node.Node, i int, o *op) int {
	maxRecords := int(float64(t.leafCap()) * t.cfg.CoalesceMaxFill)
	li, err := t.fetch(n.Branches[i].Child, o.accesses)
	if err != nil {
		return -1
	}
	ci := len(li.Records)
	ri := li.Region
	hasRegion := li.HasRegion()
	t.done(li.ID, false)
	if !hasRegion {
		// Only skeleton leaves carry regions; adjacency is defined on
		// partition regions.
		return -1
	}
	best, bestCount := -1, maxRecords+1
	for j := range n.Branches {
		if j == i {
			continue
		}
		lj, err := t.fetch(n.Branches[j].Child, o.accesses)
		if err != nil {
			continue
		}
		ok := lj.HasRegion() && regionsAdjacent(ri, lj.Region) && ci+len(lj.Records) <= maxRecords
		cj := len(lj.Records)
		t.done(lj.ID, false)
		if ok && ci+cj < bestCount {
			best, bestCount = j, ci+cj
		}
	}
	return best
}

// regionsAdjacent reports whether two regions share a full (D-1)-face:
// identical extents in all dimensions but one, touching in that one.
// Comparisons are epsilon-tolerant: skeleton partition boundaries come from
// histogram quantile arithmetic, and faces that differ only by rounding
// still tile the domain.
func regionsAdjacent(a, b geom.Rect) bool {
	touchDim := -1
	for d := 0; d < a.Dims(); d++ {
		if geom.Feq(a.Min[d], b.Min[d]) && geom.Feq(a.Max[d], b.Max[d]) {
			continue
		}
		if geom.Feq(a.Max[d], b.Min[d]) || geom.Feq(b.Max[d], a.Min[d]) {
			if touchDim >= 0 {
				return false
			}
			touchDim = d
			continue
		}
		return false
	}
	return touchDim >= 0
}

// mergeLeaves folds leaf j into leaf i under their shared parent n.
func (t *Tree) mergeLeaves(n *node.Node, i, j int, o *op) error {
	keepID := n.Branches[i].Child
	dropID := n.Branches[j].Child
	keep, err := t.fetchMut(keepID, o.accesses)
	if err != nil {
		return err
	}
	// The dropped leaf is only read: its page is freed as it stands.
	drop, err := t.fetch(dropID, o.accesses)
	if err != nil {
		t.done(keepID, true)
		return err
	}
	keep.Records = append(keep.Records, drop.Records...)
	keep.Region = keep.Region.Union(drop.Region)
	t.done(dropID, false)
	if err := t.pool.Free(dropID); err != nil {
		t.done(keepID, true)
		return err
	}
	t.forgetLeaf(dropID)
	t.touchLeaf(keepID)

	n.Branches[i].Rect = keep.Cover(t.cfg.Dims)
	t.done(keepID, true)
	n.RemoveBranch(j)

	// Spanning records linked to the dropped leaf relink to the merged
	// leaf when they still span it; otherwise they are reinserted.
	for k := len(n.Records) - 1; k >= 0; k-- {
		if n.Records[k].Span != dropID {
			continue
		}
		// Relink against the merged branch (the merged rect index may
		// have shifted after RemoveBranch; look it up).
		bi := n.BranchIndex(keepID)
		if bi >= 0 && spansQualify(n.Records[k].Rect, n.Branches[bi].Rect) {
			n.Records[k].Span = keepID
			t.stats.Relinks++
			continue
		}
		rec := n.Records[k]
		n.RemoveRecord(k)
		t.stats.Demotions++
		o.enqueue(rec.Rect, rec.ID)
	}
	t.stats.Coalesces++
	return nil
}
