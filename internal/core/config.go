// Package core implements the paper's segment index engine: Guttman's
// R-Tree as the base structure, with the three Segment Index tactics of
// Section 2.1 available as configuration —
//
//  1. spanning index records stored in non-leaf nodes (the SR-Tree,
//     Section 3), including segment cutting, demotion, and promotion;
//  2. per-level node sizes (leaf pages doubling at each higher level);
//  3. skeleton pre-construction with histogram-driven partitioning,
//     distribution prediction, and adaptive node coalescing (Section 4).
//
// The four index types evaluated in the paper are instances of one engine:
//
//	R-Tree           Config{Spanning: false}, dynamic build
//	SR-Tree          Config{Spanning: true},  dynamic build
//	Skeleton R-Tree  Config{Spanning: false}, BuildSkeleton
//	Skeleton SR-Tree Config{Spanning: true},  BuildSkeleton
//
// Nodes live on pages managed by a buffer pool over a page store; all
// fanout limits derive from page sizes and the on-page entry encoding.
package core

import (
	"errors"
	"fmt"

	"segidx/internal/node"
	"segidx/internal/page"
)

// Config controls a Tree. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Dims is the dimensionality K of the indexed rectangles (K >= 1).
	Dims int

	// Sizes maps tree levels to page sizes. The paper uses 1 KiB leaves
	// doubling per level (tactic 2).
	Sizes page.SizeClasses

	// Spanning enables the SR-Tree extensions: spanning index records in
	// non-leaf nodes, segment cutting, demotion, and promotion.
	Spanning bool

	// BranchReserve is the fraction of a non-leaf node's payload reserved
	// for branch entries when Spanning is enabled (the paper reserves
	// 2/3). Branch and spanning entries share the page bytes (Section
	// 2.1.2): branches may always claim up to this fraction, evicting
	// spanning records if needed, while spanning records may fill every
	// byte branches leave free. Ignored when Spanning is false (the full
	// payload holds branches).
	BranchReserve float64

	// LeafPromotion also checks leaf data records after a leaf split and
	// promotes those that span one of the two resulting leaves. The paper
	// describes promotion for non-leaf splits; without the leaf variant,
	// long intervals inserted before the tree grows can never migrate
	// upward. Enabled by default with Spanning; ablation A5 measures it.
	LeafPromotion bool

	// CoalesceEvery triggers a scan for mergeable sibling leaves after
	// this many insertions (0 disables coalescing). Skeleton indexes in
	// the paper use 1000.
	CoalesceEvery int

	// CoalesceCandidates bounds the scan to the L least-frequently-
	// modified leaves; the paper uses 10.
	CoalesceCandidates int

	// CoalesceMaxFill merges two adjacent leaves only if the combined
	// record count stays below this fraction of leaf capacity.
	CoalesceMaxFill float64

	// PoolBytes caps buffer pool residency (0 = unlimited).
	PoolBytes int
}

// minFillFrac is the minimum node occupancy enforced by splits and deletion
// (Guttman's m <= M/2), as a fraction of the node's capacity: the 40% every
// paper-scale result was produced with.
const minFillFrac = 0.4

// DefaultConfig returns the paper's experimental configuration for
// 2-dimensional data: 1 KiB leaves doubling per level, 2/3 branch reserve,
// quadratic splits, 40% minimum fill.
func DefaultConfig() Config {
	return Config{
		Dims:               2,
		Sizes:              page.DefaultSizeClasses(),
		Spanning:           false,
		BranchReserve:      2.0 / 3.0,
		LeafPromotion:      true,
		CoalesceEvery:      0,
		CoalesceCandidates: 10,
		CoalesceMaxFill:    0.8,
	}
}

// Validate checks the configuration for usability and returns a descriptive
// error otherwise.
func (c Config) Validate() error {
	if c.Dims < 1 {
		return fmt.Errorf("core: Dims %d < 1", c.Dims)
	}
	if c.Dims > 8 {
		return fmt.Errorf("core: Dims %d > 8 (entry encoding supports up to 8)", c.Dims)
	}
	if err := c.Sizes.Validate(); err != nil {
		return err
	}
	if c.Spanning && (c.BranchReserve <= 0 || c.BranchReserve > 1) {
		return fmt.Errorf("core: BranchReserve %g outside (0, 1]", c.BranchReserve)
	}
	if c.CoalesceEvery < 0 || c.CoalesceCandidates < 0 {
		return errors.New("core: negative coalescing parameters")
	}
	if c.CoalesceMaxFill < 0 || c.CoalesceMaxFill > 1 {
		return fmt.Errorf("core: CoalesceMaxFill %g outside [0, 1]", c.CoalesceMaxFill)
	}
	codec := node.Codec{Dims: c.Dims}
	if codec.LeafCapacity(c.Sizes.LeafBytes) < 2 {
		return fmt.Errorf("core: leaf pages of %d bytes hold fewer than 2 records", c.Sizes.LeafBytes)
	}
	minBranch := 1 << uint(c.Dims) // skeleton construction needs 2^D children per node
	for level := 1; level <= 2; level++ {
		if c.branchCapAt(level, codec) < max(4, minBranch) {
			return fmt.Errorf("core: level-%d pages hold too few branches", level)
		}
	}
	if c.Spanning && c.spanCapAt(1, codec) < 1 {
		return fmt.Errorf("core: BranchReserve %g leaves no room for spanning records", c.BranchReserve)
	}
	return nil
}

// reserve returns the effective branch reservation fraction.
func (c Config) reserve() float64 {
	if !c.Spanning {
		return 1.0
	}
	return c.BranchReserve
}

func (c Config) branchCapAt(level int, codec node.Codec) int {
	return codec.BranchCapacity(c.Sizes.BytesForLevel(level), c.reserve())
}

func (c Config) spanCapAt(level int, codec node.Codec) int {
	if !c.Spanning {
		return 0
	}
	return codec.SpanningCapacity(c.Sizes.BytesForLevel(level), c.BranchReserve)
}
