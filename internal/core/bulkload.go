package core

import (
	"fmt"
	"math"
	"sort"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
)

// BulkLoad builds a packed R-Tree bottom-up from a complete dataset using
// Sort-Tile-Recursive packing — the static alternative the paper contrasts
// skeleton indexes against (Section 4, citing Roussopoulos & Leifker's
// packed R-Trees): packing produces near-perfect occupancy and low overlap
// but requires all data up front, whereas a skeleton index achieves a
// similar regular decomposition dynamically.
//
// The records are sorted by center along dimension 0, sliced into
// tiles, recursively sorted along the remaining dimensions, and packed
// into leaves at the given fill fraction; upper levels pack the same way
// over child rectangles. When cfg.Spanning is enabled, the loaded tree is
// a valid SR-Tree (subsequent inserts may create spanning records), but
// packing itself places every record in a leaf.
//
//seglint:allow locks — the tree is under construction and unpublished; no other goroutine can observe it until BulkLoad returns
func BulkLoad(cfg Config, st store.Store, records []Record, fill float64) (*Tree, error) {
	if fill <= 0 || fill > 1 {
		return nil, fmt.Errorf("core: bulk-load fill %g outside (0, 1]", fill)
	}
	t, err := New(cfg, st)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return t, nil
	}
	for i, r := range records {
		if err := t.validateRect(r.Rect); err != nil {
			return nil, fmt.Errorf("core: bulk-load record %d: %w", i, err)
		}
	}

	// The load runs as one write bracket: the packed structure becomes
	// visible to snapshots in a single epoch bump at the end, and the
	// empty root's page is reclaimed through the same deferred-free path
	// as any other operation's.
	t.beginOp()

	perLeaf := int(float64(t.leafCap()) * fill)
	if perLeaf < 1 {
		perLeaf = 1
	}
	// Pack leaves.
	entries := make([]node.Record, len(records))
	for i, r := range records {
		entries[i] = node.Record{Rect: r.Rect.Clone(), ID: r.ID}
	}
	rects := make([]geom.Rect, len(entries))
	for i := range entries {
		rects[i] = entries[i].Rect
	}
	order := strOrder(rects, cfg.Dims, perLeaf)

	var level []node.Branch
	for lo := 0; lo < len(order); lo += perLeaf {
		hi := lo + perLeaf
		if hi > len(order) {
			hi = len(order)
		}
		leaf, err := t.pool.NewNode(0, t.cfg.Sizes.BytesForLevel(0))
		if err != nil {
			return nil, t.abortOp(err)
		}
		for _, idx := range order[lo:hi] {
			leaf.Records = append(leaf.Records, entries[idx])
		}
		cover := leaf.Cover(cfg.Dims)
		level = append(level, node.Branch{Rect: cover, Child: leaf.ID})
		t.done(leaf.ID, true)
	}

	// Pack upper levels until one node remains.
	lvl := 1
	for len(level) > 1 {
		perNode := int(float64(t.branchCap(lvl)) * fill)
		if perNode < 2 {
			perNode = 2
		}
		branchRects := make([]geom.Rect, len(level))
		for i := range level {
			branchRects[i] = level[i].Rect
		}
		order := strOrder(branchRects, cfg.Dims, perNode)
		var next []node.Branch
		for lo := 0; lo < len(order); lo += perNode {
			hi := lo + perNode
			if hi > len(order) {
				hi = len(order)
			}
			n, err := t.pool.NewNode(lvl, t.cfg.Sizes.BytesForLevel(lvl))
			if err != nil {
				return nil, t.abortOp(err)
			}
			for _, idx := range order[lo:hi] {
				n.Branches = append(n.Branches, level[idx])
			}
			next = append(next, node.Branch{Rect: n.Cover(cfg.Dims), Child: n.ID})
			t.done(n.ID, true)
		}
		level = next
		lvl++
	}

	// Replace the empty root created by New.
	oldRoot := t.root
	t.root = level[0].Child
	rootNode, err := t.fetch(t.root, nil)
	if err != nil {
		return nil, t.abortOp(err)
	}
	t.height = rootNode.Level + 1
	t.done(t.root, false)
	t.size = len(records)
	for i := range records {
		if t.ids.add(records[i].ID) {
			t.cutPortions++
		}
	}
	if err := t.pool.Free(oldRoot); err != nil {
		return nil, t.abortOp(err)
	}
	if err := t.publishOp(); err != nil {
		return nil, err
	}
	return t, nil
}

// Record pairs a rectangle with its ID for bulk operations.
type Record struct {
	Rect geom.Rect
	ID   node.RecordID
}

// strOrder returns the Sort-Tile-Recursive permutation of the given
// rectangles for the target group size: sort by center of dimension 0,
// slice into vertical slabs of ~sqrt tiles, recursively order each slab by
// the remaining dimensions.
func strOrder(rects []geom.Rect, dims, groupSize int) []int {
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	strSort(order, rects, 0, dims, groupSize)
	return order
}

func strSort(order []int, rects []geom.Rect, dim, dims, groupSize int) {
	sort.SliceStable(order, func(a, b int) bool {
		return rects[order[a]].Center(dim) < rects[order[b]].Center(dim)
	})
	if dim == dims-1 || len(order) <= groupSize {
		return
	}
	// Number of groups overall, spread across the remaining dimensions.
	groups := int(math.Ceil(float64(len(order)) / float64(groupSize)))
	slabCount := int(math.Ceil(math.Pow(float64(groups), 1/float64(dims-dim))))
	if slabCount < 1 {
		slabCount = 1
	}
	slabSize := (len(order) + slabCount - 1) / slabCount
	for lo := 0; lo < len(order); lo += slabSize {
		hi := lo + slabSize
		if hi > len(order) {
			hi = len(order)
		}
		strSort(order[lo:hi], rects, dim+1, dims, groupSize)
	}
}
