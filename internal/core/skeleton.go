package core

import (
	"fmt"
	"math"

	"segidx/internal/geom"
	"segidx/internal/histogram"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// Estimate describes the expected input for skeleton pre-construction
// (Section 4): the number of tuples, the domain, and optionally a
// per-dimension histogram of the expected value distribution. A nil
// histogram for a dimension assumes a uniform distribution over the domain
// (Figure 5); non-uniform histograms produce the unequal partitions of
// Figure 6.
type Estimate struct {
	Tuples int
	Domain geom.Rect
	Hists  []*histogram.Histogram // len 0 or Dims; nil entries mean uniform
}

// Validate checks the estimate against a configuration.
func (e Estimate) Validate(cfg Config) error {
	if e.Tuples < 1 {
		return fmt.Errorf("core: skeleton estimate of %d tuples", e.Tuples)
	}
	if !e.Domain.Valid() || e.Domain.Dims() != cfg.Dims {
		return fmt.Errorf("core: skeleton domain invalid or wrong dimensionality")
	}
	for d := 0; d < cfg.Dims; d++ {
		if e.Domain.Length(d) <= 0 {
			return fmt.Errorf("core: skeleton domain degenerate in dimension %d", d)
		}
		if math.IsInf(e.Domain.Length(d), 0) {
			return fmt.Errorf("core: skeleton domain has infinite width in dimension %d", d)
		}
	}
	if len(e.Hists) != 0 && len(e.Hists) != cfg.Dims {
		return fmt.Errorf("core: %d histograms for %d dimensions", len(e.Hists), cfg.Dims)
	}
	return nil
}

// NewSkeleton creates a skeleton index: the full node hierarchy is
// pre-allocated top-down from the estimate, partitioning each dimension at
// the equi-depth quantiles of the estimated distribution, and then adapts
// to the actual input through node splitting and (if configured)
// coalescing.
func NewSkeleton(cfg Config, st store.Store, est Estimate) (*Tree, error) {
	t, err := New(cfg, st)
	if err != nil {
		return nil, err
	}
	if err := t.BuildSkeleton(est); err != nil {
		return nil, err
	}
	return t, nil
}

// DefaultBins is the per-dimension histogram resolution used for
// distribution prediction.
const DefaultBins = 100

// prediction is the sampling phase of a tree built by NewPredicted. The
// sample mirrors the staging tree's records in arrival order: inserts
// append to it and deleteMatching drops what it removes.
type prediction struct {
	cfg    Config   // the skeleton's configuration
	est    Estimate // tuples and domain; predict adds the histograms
	target int      // sample size T
	sample []node.Record
}

// NewPredicted creates a skeleton index that predicts its input
// distribution (Section 4): "the first T tuples are kept in memory",
// per-dimension histograms are computed from them, a skeleton is built
// from those histograms, and the sampled plus subsequent tuples are
// inserted into it. Until then the tree is a plain R-Tree on st, with
// spanning and coalescing off, since nothing is known yet that either
// would adapt to. The T-th insert, or the first Flush or Close, builds
// the skeleton. The paper found T between 5% and 10% of the expected
// input to work well.
func NewPredicted(cfg Config, st store.Store, est Estimate, sample int) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := est.Validate(cfg); err != nil {
		return nil, err
	}
	if sample < 1 || sample > est.Tuples {
		return nil, fmt.Errorf("core: prediction sample %d outside [1, %d]", sample, est.Tuples)
	}
	staging := cfg
	staging.Spanning, staging.CoalesceEvery = false, 0
	t, err := New(staging, st)
	if err != nil {
		return nil, err
	}
	est.Domain, est.Hists = est.Domain.Clone(), nil
	t.sampling = &prediction{cfg: cfg, est: est, target: sample}
	return t, nil
}

// predict ends the sampling phase inside one write bracket: it computes
// the histograms from the sample, replaces the staging pages with the
// skeleton's, and drains the sample into it in arrival order. Readers see
// the staging tree until the one publish and the drained skeleton after
// it, never a skeleton still being drained; snapshots pinned before keep
// reading the staging pages through their versions. The sidecar, if any,
// already holds every sampled record, so the drain does not stage them
// again. The caller must hold the write lock on t.mu.
func (t *Tree) predict() error {
	p := t.sampling
	est := p.est
	est.Hists = make([]*histogram.Histogram, t.cfg.Dims)
	for d := range est.Hists {
		h, err := histogram.New(est.Domain.Min[d], est.Domain.Max[d], DefaultBins)
		if err != nil {
			return err
		}
		for _, r := range p.sample {
			h.AddInterval(r.Rect.Min[d], r.Rect.Max[d])
		}
		est.Hists[d] = h
	}
	// The skeleton starts from nothing, as a freshly built one does: its
	// counters count the drain, not the staging inserts.
	ids, staging := t.ids, t.cfg
	t.sampling, t.ids, t.modCounts, t.sinceCoalesce = nil, idSet{}, make(map[page.ID]uint64), 0
	t.size, t.cutPortions = 0, 0
	t.resetStats()
	// Field by field: lock-free readers read t.cfg.Dims.
	t.cfg.Spanning, t.cfg.CoalesceEvery = p.cfg.Spanning, p.cfg.CoalesceEvery
	t.beginOp()
	err := t.buildSkeleton(est)
	for i := 0; err == nil && i < len(p.sample); i++ {
		err = t.insertOne(p.sample[i].Rect, p.sample[i].ID)
	}
	if err != nil {
		// The staging tree stays, and the next insert or Flush retries.
		t.sampling, t.ids = p, ids
		t.cfg.Spanning, t.cfg.CoalesceEvery = staging.Spanning, staging.CoalesceEvery
		return t.abortOp(err)
	}
	return t.publishOp()
}

// BuildSkeleton replaces the empty tree with a pre-allocated skeleton. The
// tree must be empty.
func (t *Tree) BuildSkeleton(est Estimate) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.size != 0 || t.height != 1 {
		return ErrNotEmpty
	}
	if err := est.Validate(t.cfg); err != nil {
		return err
	}
	t.beginOp()
	if err := t.buildSkeleton(est); err != nil {
		return t.abortOp(err)
	}
	return t.publishOp()
}

// buildSkeleton builds the skeleton's pages and frees every page of the
// tree it replaces. It runs inside the caller's write bracket, so a
// failure rolls every freshly allocated page back and success publishes
// the whole hierarchy in one epoch. The caller must hold the write lock on
// t.mu.
func (t *Tree) buildSkeleton(est Estimate) error {
	perDim, err := t.skeletonShape(est.Tuples)
	if err != nil {
		return err
	}
	levels := len(perDim)

	// Per-dimension leaf boundaries at equi-depth quantiles; upper level
	// boundaries are nested subsets so children tile their parents
	// exactly.
	dims := t.cfg.Dims
	leafCuts := make([][]float64, dims)
	for d := 0; d < dims; d++ {
		var h *histogram.Histogram
		if len(est.Hists) > 0 && est.Hists[d] != nil {
			h = est.Hists[d]
		} else {
			h = histogram.Uniform(est.Domain.Min[d], est.Domain.Max[d])
		}
		cuts, err := h.Partition(perDim[0])
		if err != nil {
			return fmt.Errorf("core: skeleton partition dim %d: %w", d, err)
		}
		// Rebase onto the domain in case the histogram covered a
		// different range.
		cuts[0], cuts[len(cuts)-1] = est.Domain.Min[d], est.Domain.Max[d]
		leafCuts[d] = cuts
	}
	// cutIdx[level][i] indexes into leafCuts: the boundaries of level
	// `level` as positions in the leaf boundary array (identical in every
	// dimension by construction of perDim).
	cutIdx := make([][]int, levels)
	cutIdx[0] = make([]int, perDim[0]+1)
	for i := range cutIdx[0] {
		cutIdx[0][i] = i
	}
	for l := 1; l < levels; l++ {
		p, prev := perDim[l], cutIdx[l-1]
		idx := make([]int, p+1)
		prevP := len(prev) - 1
		for j := 0; j <= p; j++ {
			idx[j] = prev[j*prevP/p]
		}
		cutIdx[l] = idx
	}

	// Build bottom-up. grid holds the node IDs of the current level in
	// row-major order over the level's per-dim grid.
	var prevGrid []page.ID
	var prevRegions []geom.Rect
	for l := 0; l < levels; l++ {
		p := perDim[l]
		count := intPow(p, dims)
		grid := make([]page.ID, count)
		regions := make([]geom.Rect, count)
		for cell := 0; cell < count; cell++ {
			coords := cellCoords(cell, p, dims)
			region := geom.Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
			for d := 0; d < dims; d++ {
				region.Min[d] = leafCuts[d][cutIdx[l][coords[d]]]
				region.Max[d] = leafCuts[d][cutIdx[l][coords[d]+1]]
			}
			n, err := t.pool.NewNode(l, t.cfg.Sizes.BytesForLevel(l))
			if err != nil {
				return err
			}
			n.Region = region
			if l == 0 {
				// Register every skeleton leaf with a zero modification
				// count so untouched leaves qualify as coalescing
				// candidates.
				t.modCounts[n.ID] = 0
			}
			if l > 0 {
				// Attach the block of child cells nested inside this
				// region.
				prevP := perDim[l-1]
				if err := t.attachChildren(n, coords, l, p, prevP, cutIdx, prevGrid, prevRegions, dims); err != nil {
					return err
				}
			}
			grid[cell] = n.ID
			regions[cell] = region
		}
		prevGrid, prevRegions = grid, regions
	}

	return t.replaceTree(prevGrid[0], levels)
}

// attachChildren installs branches on the level-l node at grid coordinates
// coords for every child cell nested in its region.
func (t *Tree) attachChildren(n *node.Node, coords []int, l, p, prevP int, cutIdx [][]int, prevGrid []page.ID, prevRegions []geom.Rect, dims int) error {
	// Child index ranges per dimension: the children whose boundary
	// interval nests inside this node's interval.
	lo := make([]int, dims)
	hi := make([]int, dims)
	for d := 0; d < dims; d++ {
		lo[d] = coords[d] * prevP / p
		hi[d] = (coords[d] + 1) * prevP / p
	}
	// Iterate over the child block.
	idx := make([]int, dims)
	copy(idx, lo)
	for {
		cell := 0
		for d := 0; d < dims; d++ {
			cell = cell*prevP + idx[d]
		}
		n.Branches = append(n.Branches, node.Branch{
			Rect:  prevRegions[cell].Clone(),
			Child: prevGrid[cell],
		})
		// Advance the block iterator.
		d := dims - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < hi[d] {
				break
			}
			idx[d] = lo[d]
		}
		if d < 0 {
			break
		}
	}
	if t.overflowing(n) {
		return fmt.Errorf("core: skeleton node at level %d received %d branches exceeding capacity %d",
			l, len(n.Branches), t.branchCap(l))
	}
	return nil
}

// skeletonShape computes the per-dimension partition count of every level,
// leaf first, following the paper's sizing loop (Section 4): the node count
// at each level is the tuple (or node) count of the level below divided by
// the fanout, rounded up so its D-th root is integral. Where the rounded
// grid would give some node more children than its branch capacity (the
// paper's loop does not guard against this), the partition count is raised
// minimally.
func (t *Tree) skeletonShape(tuples int) ([]int, error) {
	dims := t.cfg.Dims
	var perDim []int
	n := tuples
	for level := 0; ; level++ {
		var fanout int
		if level == 0 {
			fanout = t.leafCap()
		} else {
			fanout = t.branchCap(level)
		}
		nodes := (n + fanout - 1) / fanout
		p := int(math.Ceil(math.Pow(float64(nodes), 1/float64(dims))))
		if p < 1 {
			p = 1
		}
		if level > 0 {
			prev := perDim[level-1]
			// Respect branch capacity: a parent covers ceil(prev/p)
			// children per dimension.
			for p < prev && intPow((prev+p-1)/p, dims) > fanout {
				p++
			}
			if p >= prev {
				// No progress is possible at this fanout; collapse to a
				// single root over the previous level if it fits,
				// otherwise halve.
				if intPow(prev, dims) <= fanout {
					p = 1
				} else {
					p = (prev + 1) / 2
				}
			}
		}
		perDim = append(perDim, p)
		if p == 1 {
			break
		}
		n = intPow(p, dims)
		if level > 64 {
			return nil, fmt.Errorf("core: skeleton sizing did not converge")
		}
	}
	return perDim, nil
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// cellCoords converts a row-major cell index into per-dimension grid
// coordinates.
func cellCoords(cell, p, dims int) []int {
	coords := make([]int, dims)
	for d := dims - 1; d >= 0; d-- {
		coords[d] = cell % p
		cell /= p
	}
	return coords
}
