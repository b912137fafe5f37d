// Package segidx implements Segment Indexes: dynamic indexing structures
// for multi-dimensional interval data, reproducing Kolovson & Stonebraker,
// "Segment Indexes: Dynamic Indexing Techniques for Multi-Dimensional
// Interval Data" (SIGMOD 1991).
//
// The package provides the paper's four index types over a paged storage
// substrate with a buffer pool:
//
//	NewRTree            Guttman's R-Tree (the baseline)
//	NewSRTree           Segment R-Tree: spanning index records in non-leaf
//	                    nodes, with segment cutting, promotion and demotion
//	NewSkeletonRTree    pre-constructed R-Tree adapted by splitting and
//	                    coalescing
//	NewSkeletonSRTree   the combination — the paper's best performer on
//	                    skewed interval data
//
// All four share one engine, so comparisons between them isolate exactly
// the paper's three tactics: spanning records, per-level node sizes, and
// skeleton pre-construction. An Index has one shape as well: a forest of
// n >= 1 such trees (WithShards; one by default), where the forest of one
// routes nothing and persists as the single file its tree writes.
//
// # Quick start
//
//	idx, err := segidx.NewSRTree()
//	if err != nil { ... }
//	// A record is a rectangle plus a caller-chosen ID. Intervals and
//	// points are degenerate rectangles.
//	_ = idx.Insert(segidx.Interval(1990, 1995, 52000), 1) // salary 52k for 1990-1995
//	matches, _ := idx.Search(segidx.Box(1992, 0, 1993, 100000))
//
// # Skewed interval data
//
// The paper's headline result concerns data whose interval lengths are
// highly non-uniform (e.g. historical data: many short salary periods, a
// few very long ones). For such data, construct a Skeleton SR-Tree with an
// estimate of the input:
//
//	idx, err := segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{
//	    Tuples:          200_000,
//	    Domain:          segidx.Box(0, 0, 100_000, 100_000),
//	    PredictFraction: 0.05, // buffer 5% of the input, predict the rest
//	})
//
// # Persistence
//
// Indexes are in-memory by default. WithFile stores pages in a single
// file; Flush persists dirty nodes and metadata, and Open reattaches:
//
//	idx, _ := segidx.NewRTree(segidx.WithFile("index.db"))
//	...
//	_ = idx.Flush()
//	_ = idx.Close()
//	idx2, _ := segidx.Open("index.db")
package segidx
