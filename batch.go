package segidx

import (
	"context"

	"segidx/internal/fanout"
)

// Parallelism reports the worker bound the batch APIs use: the value set
// by WithParallelism or SetParallelism, or GOMAXPROCS when unset.
func (x *Index) Parallelism() int { return x.f.Parallelism() }

// SetParallelism changes the worker bound for subsequent batch calls
// (0 restores the GOMAXPROCS default). The bound also governs
// scatter-gather queries and flushes across several shards. Safe to call
// concurrently; operations already in flight keep the bound they started
// with.
func (x *Index) SetParallelism(n int) { x.f.SetParallelism(n) }

// SearchBatch runs Search for every query concurrently, with at most
// Parallelism() goroutines, and returns the results in query order:
// results[i] holds the records intersecting queries[i], deduplicated by
// ID, exactly as a sequential Search(queries[i]) would return them.
//
// Workers draw per-query contexts (traversal stack, dedup
// set, result arena) from the tree's shared pool, so a batch of N
// workers settles on N recycled contexts: steady-state batch queries
// allocate only the returned result slices.
//
// The whole batch rides one MVCC snapshot: every query observes the same
// commit boundary regardless of writer activity during the batch, and no
// query blocks behind a writer.
//
// The first error stops the batch and is returned; a canceled context
// returns ctx.Err(). On error the partial results are discarded. A nil
// ctx is treated as context.Background().
func (x *Index) SearchBatch(ctx context.Context, queries []Rect) ([][]Entry, error) {
	v := x.f.Snapshot()
	defer v.Release()
	results := make([][]Entry, len(queries))
	err := x.runBatch(ctx, len(queries), func(i int) error {
		out, err := v.Search(queries[i])
		if err != nil {
			return err
		}
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// StabBatch runs Stab for every point concurrently (see SearchBatch for
// ordering, parallelism, snapshot, and error semantics). Each point is a
// coordinate slice of the index's dimensionality.
func (x *Index) StabBatch(ctx context.Context, points [][]float64) ([][]Entry, error) {
	v := x.f.Snapshot()
	defer v.Release()
	results := make([][]Entry, len(points))
	err := x.runBatch(ctx, len(points), func(i int) error {
		out, err := v.SearchContaining(Point(points[i]...))
		if err != nil {
			return err
		}
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// InsertBatch inserts every record through a pool of at most
// Parallelism() workers. Inserts serialize internally behind the index's
// write lock, so the pool bounds goroutines rather than promising linear
// speedup; it exists so producers can hand over a slab of records and
// overlap their own work with the index build.
//
// The first error cancels the remaining work and is returned. Records
// already handed to workers when the error occurred may or may not have
// been inserted — on error, callers that need exactness should rebuild or
// reconcile via Search. A nil ctx is treated as context.Background().
func (x *Index) InsertBatch(ctx context.Context, records []BulkRecord) error {
	return x.runBatch(ctx, len(records), func(i int) error {
		return x.f.Insert(records[i].Rect, records[i].ID)
	})
}

// runBatch executes fn(0..n-1) across a bounded worker pool (see
// fanout.Run), returning the first error (worker or context). Indexes are
// claimed from an atomic cursor so completion order is irrelevant to
// callers that write results into index i of a pre-sized slice.
func (x *Index) runBatch(ctx context.Context, n int, fn func(i int) error) error {
	return fanout.Run(ctx, x.Parallelism(), n, fn)
}
