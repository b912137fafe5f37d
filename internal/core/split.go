package core

import (
	"sort"

	"segidx/internal/geom"
	"segidx/internal/node"
)

// split divides an overflowing node n into n and a new sibling at the same
// level (paper Section 3.1.2, Figure 4):
//
//   - leaf records, or non-leaf branches, are distributed by the configured
//     algorithm (Guttman quadratic/linear), or by a median cut of the
//     partition region for skeleton nodes;
//   - spanning index records are "carried over" with the branch they are
//     linked to;
//   - records that span the region of n or the sibling after the split are
//     removed and returned as promotions for the parent (with Span set to
//     the node they span);
//   - spanning records exceeding a side's capacity are queued for
//     reinsertion (this can only happen when almost all records link to one
//     branch).
//
// The returned sibling is a new node of the bracket; the caller installs it
// in the parent.
func (o *op) split(n *node.Node) (*node.Node, []node.Record, error) {
	t := o.t
	dims := t.cfg.Dims
	if !n.IsLeaf() && len(n.Branches) < 2 {
		// Nothing to distribute; shed spanning records to fit instead of
		// splitting. (Unreachable under the byte-sharing policy — splits
		// are triggered only by branch overflow — but kept as a guard.)
		o.shedToFit(n)
		return nil, nil, nil
	}
	sib, err := t.pool.NewNode(n.Level, t.cfg.Sizes.BytesForLevel(n.Level))
	if err != nil {
		return nil, nil, err
	}

	if n.IsLeaf() {
		t.stats.LeafSplits++
		rects := make([]geom.Rect, len(n.Records))
		for i := range n.Records {
			rects[i] = n.Records[i].Rect
		}
		keep, move := o.distribute(n, sib, rects)
		recs := n.Records
		n.Records = pickRecords(recs, keep)
		sib.Records = pickRecords(recs, move)
		t.touchLeaf(n.ID)
		t.touchLeaf(sib.ID)
	} else {
		t.stats.NonLeafSplits++
		rects := make([]geom.Rect, len(n.Branches))
		for i := range n.Branches {
			rects[i] = n.Branches[i].Rect
		}
		keep, move := o.distribute(n, sib, rects)
		branches := n.Branches
		n.Branches = pickBranches(branches, keep)
		sib.Branches = pickBranches(branches, move)
		// Carry spanning records over with their linked branch.
		moved := make(map[uint64]bool, len(sib.Branches))
		for i := range sib.Branches {
			moved[uint64(sib.Branches[i].Child)] = true
		}
		var keepRecs []node.Record
		for _, rec := range n.Records {
			if moved[uint64(rec.Span)] {
				sib.Records = append(sib.Records, rec)
			} else {
				keepRecs = append(keepRecs, rec)
			}
		}
		n.Records = keepRecs
	}

	// Promotion (paper: after a split, spanning records that span N or
	// N-sibling move to the parent; with LeafPromotion the same check
	// applies to leaf data records).
	var promoted []node.Record
	if t.cfg.Spanning && (!n.IsLeaf() || t.cfg.LeafPromotion) {
		coverN := n.Cover(dims)
		coverS := sib.Cover(dims)
		promote := func(m *node.Node) {
			for i := len(m.Records) - 1; i >= 0; i-- {
				// Never promote a leaf empty: an empty leaf has no cover
				// for its parent branch, and the promoted record would be
				// linked to a contentless node.
				if m.IsLeaf() && len(m.Records) <= 1 {
					break
				}
				rec := m.Records[i]
				if o.seen[rec.ID] >= maxSpanningAttempts+1 {
					continue // cycling record; leave it where it is
				}
				switch {
				case spansQualify(&rec.Rect, &coverN):
					rec.Span = n.ID
				case spansQualify(&rec.Rect, &coverS):
					rec.Span = sib.ID
				default:
					continue
				}
				m.RemoveRecord(i)
				promoted = append(promoted, rec)
			}
		}
		promote(n)
		promote(sib)
	}

	// Carried-over spanning records can exceed a side's page bytes; shed
	// the shortest to the reinsertion queue.
	o.shedToFit(n)
	o.shedToFit(sib)

	// A pending revalidation for n must cover records that just migrated
	// to the sibling (a branch that grew earlier in this operation may
	// have been carried over); revalidating both halves is cheap and
	// always safe.
	if t.cfg.Spanning && !n.IsLeaf() {
		o.revalidate[n.ID] = true
		o.revalidate[sib.ID] = true
	}
	return sib, promoted, nil
}

func pickRecords(src []node.Record, idx []int) []node.Record {
	out := make([]node.Record, 0, len(idx))
	for _, i := range idx {
		out = append(out, src[i])
	}
	return out
}

func pickBranches(src []node.Branch, idx []int) []node.Branch {
	out := make([]node.Branch, 0, len(idx))
	for _, i := range idx {
		out = append(out, src[i])
	}
	return out
}

// distribute partitions entry indices between the node (keep) and its new
// sibling (move). Skeleton nodes split their partition region; others use
// Guttman's quadratic split, the paper's algorithm.
func (o *op) distribute(n, sib *node.Node, rects []geom.Rect) (keep, move []int) {
	if n.HasRegion() {
		return o.regionSplit(n, sib, rects)
	}
	return quadraticSplit(rects, o.splitMinFill(n, len(rects)))
}

func (o *op) splitMinFill(n *node.Node, entries int) int {
	var capTotal int
	if n.IsLeaf() {
		capTotal = o.t.leafCap()
	} else {
		capTotal = o.t.branchCap(n.Level)
	}
	m := int(float64(capTotal) * minFillFrac)
	if m < 1 {
		m = 1
	}
	if m > entries/2 {
		m = entries / 2
	}
	if m < 1 {
		m = 1
	}
	return m
}

// regionSplit cuts a skeleton node's partition region perpendicular to its
// longest axis at the median of the entry centers, assigning entries by the
// sorted halves. Both sides inherit a region half, preserving the
// skeleton's regular decomposition as high-density regions refine (Section
// 4: "high-density regions are made finer grained through conventional node
// splitting").
func (o *op) regionSplit(n, sib *node.Node, rects []geom.Rect) (keep, move []int) {
	region := n.Region
	axis := region.LongestDim()
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rects[order[a]].Center(axis) < rects[order[b]].Center(axis)
	})
	k := len(order) / 2
	keep = order[:k]
	move = order[k:]

	cut := (rects[order[k-1]].Center(axis) + rects[order[k]].Center(axis)) / 2
	if cut <= region.Min[axis] || cut >= region.Max[axis] {
		cut = region.Center(axis)
	}
	left := region.Clone()
	left.Max[axis] = cut
	right := region.Clone()
	right.Min[axis] = cut
	n.Region = left
	// The sibling inherits the right region half. (The caller recomputes
	// branch rects from Cover, which unions the region with any entries
	// straddling the cut.)
	sib.Region = right
	return keep, move
}

// quadraticSplit is Guttman's quadratic-cost distribution: pick the two
// seeds wasting the most area if grouped together, then repeatedly assign
// the entry with the greatest preference difference to its preferred group,
// respecting the minimum fill.
func quadraticSplit(rects []geom.Rect, minFill int) (groupA, groupB []int) {
	n := len(rects)
	seedA, seedB := pickSeedsQuadratic(rects)
	groupA = append(groupA, seedA)
	groupB = append(groupB, seedB)
	coverA := rects[seedA].Clone()
	coverB := rects[seedB].Clone()

	rest := make([]int, 0, n-2)
	for i := 0; i < n; i++ {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		// If one group must take everything remaining to reach minimum
		// fill, assign the rest wholesale.
		if len(groupA)+len(rest) <= minFill {
			for _, i := range rest {
				groupA = append(groupA, i)
			}
			break
		}
		if len(groupB)+len(rest) <= minFill {
			for _, i := range rest {
				groupB = append(groupB, i)
			}
			break
		}
		// PickNext: maximize |d1 - d2|.
		bestIdx, bestDiff := -1, -1.0
		var bestDA, bestDB float64
		for pos, i := range rest {
			dA := coverA.Enlargement(&rects[i])
			dB := coverB.Enlargement(&rects[i])
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			// Two infinite enlargements give a NaN diff, which compares
			// false; the first candidate is taken regardless.
			if diff > bestDiff || bestIdx < 0 {
				bestIdx, bestDiff = pos, diff
				bestDA, bestDB = dA, dB
			}
		}
		i := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		toA := false
		switch {
		case bestDA < bestDB:
			toA = true
		case bestDA > bestDB:
			toA = false
		case !geom.Feq(coverA.Area(), coverB.Area()):
			toA = coverA.Area() < coverB.Area()
		default:
			toA = len(groupA) <= len(groupB)
		}
		if toA {
			groupA = append(groupA, i)
			coverA.ExpandInPlace(rects[i])
		} else {
			groupB = append(groupB, i)
			coverB.ExpandInPlace(rects[i])
		}
	}
	return groupA, groupB
}

func pickSeedsQuadratic(rects []geom.Rect) (int, int) {
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			d := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if d > worst {
				worst = d
				seedA, seedB = i, j
			}
		}
	}
	return seedA, seedB
}
