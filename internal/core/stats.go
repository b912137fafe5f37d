package core

import "sync/atomic"

// Stats counts tree activity since creation. Counters are maintained under
// the tree lock; Stats() returns a consistent snapshot.
//
// SearchNodeAccesses / Searches reproduce the paper's cost metric: the
// average number of index nodes accessed per search is the per-experiment
// delta of SearchNodeAccesses divided by the delta of Searches.
type Stats struct {
	Searches           uint64 // Search/SearchFunc calls
	SearchNodeAccesses uint64 // nodes touched by searches
	Inserts            uint64 // logical records inserted
	InsertNodeAccesses uint64 // nodes touched by inserts (incl. reinserts)
	Deletes            uint64 // logical records deleted

	LeafSplits    uint64 // leaf node splits
	NonLeafSplits uint64 // non-leaf node splits

	Cuts       uint64 // records cut into spanning + remnant portions
	Remnants   uint64 // remnant portions created by cuts
	SpanPlaced uint64 // spanning index records placed on non-leaf nodes
	Promotions uint64 // records moved to a parent node after a split
	Demotions  uint64 // spanning records removed for reinsertion
	Relinks    uint64 // spanning records relinked to a different branch

	Coalesces uint64 // sibling leaf merges performed

	// Reinserts counts insertions from an op's reinsertion queue, once per
	// record popped: demoted spanning records, cut remnants, promoted
	// records that found no room, and the records of a dismantled node or
	// collapsed root.
	Reinserts uint64

	// CutPortions is a gauge (not a counter): the number of stored record
	// portions currently in excess of logical records. Zero means no
	// record has more than one stored portion, which lets Search and
	// Count skip duplicate elimination.
	CutPortions uint64
}

// Add accumulates o into s, for totals over the trees of a forest. Every
// field is a per-tree count (CutPortions, the only gauge, sums disjoint
// per-tree gauges), so field-wise addition neither drops nor double-counts.
func (s *Stats) Add(o Stats) {
	s.Searches += o.Searches
	s.SearchNodeAccesses += o.SearchNodeAccesses
	s.Inserts += o.Inserts
	s.InsertNodeAccesses += o.InsertNodeAccesses
	s.Deletes += o.Deletes
	s.LeafSplits += o.LeafSplits
	s.NonLeafSplits += o.NonLeafSplits
	s.Cuts += o.Cuts
	s.Remnants += o.Remnants
	s.SpanPlaced += o.SpanPlaced
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.Relinks += o.Relinks
	s.Coalesces += o.Coalesces
	s.Reinserts += o.Reinserts
	s.CutPortions += o.CutPortions
}

// Stats returns a snapshot of the tree's counters. Counters written only
// by mutating operations are read under the lock; search-path counters are
// updated atomically by concurrent readers and loaded the same way.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{
		Searches:           atomic.LoadUint64(&t.stats.Searches),
		SearchNodeAccesses: atomic.LoadUint64(&t.stats.SearchNodeAccesses),
		InsertNodeAccesses: atomic.LoadUint64(&t.stats.InsertNodeAccesses),
		Inserts:            t.stats.Inserts,
		Deletes:            t.stats.Deletes,
		LeafSplits:         t.stats.LeafSplits,
		NonLeafSplits:      t.stats.NonLeafSplits,
		Cuts:               t.stats.Cuts,
		Remnants:           t.stats.Remnants,
		SpanPlaced:         t.stats.SpanPlaced,
		Promotions:         t.stats.Promotions,
		Demotions:          t.stats.Demotions,
		Relinks:            t.stats.Relinks,
		Coalesces:          t.stats.Coalesces,
		Reinserts:          t.stats.Reinserts,
		CutPortions:        uint64(t.cutPortions),
	}
}
