package segidx_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"segidx"
	"segidx/internal/workload"
)

// batchQueries returns a deterministic query mix spanning the paper's
// vertical, square, and horizontal aspect ratios.
func batchQueries() []segidx.Rect {
	queries := workload.Queries(1, 40, 55)
	queries = append(queries, workload.Queries(0.01, 40, 56)...)
	queries = append(queries, workload.Queries(100, 40, 57)...)
	return queries
}

// TestSearchBatchMatchesSequential is the batch/sequential equivalence
// property: on a static index, SearchBatch at parallelism 8 must return
// element-wise exactly what a sequential Search loop returns (same
// entries, same order — the tree is not mutated, so the traversal order
// is deterministic). Runs against all four index types.
func TestSearchBatchMatchesSequential(t *testing.T) {
	const n = 2500
	data := workload.I3.Generate(n, 4321)
	queries := batchQueries()

	for name, mk := range constructors(n) {
		t.Run(name, func(t *testing.T) {
			idx, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			for i, r := range data {
				if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			want := make([][]segidx.Entry, len(queries))
			for i, q := range queries {
				out, err := idx.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out
			}
			idx.SetParallelism(8)
			got, err := idx.SearchBatch(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("SearchBatch returned %d results, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("query %d: batch result diverged from sequential Search\n got: %v\nwant: %v",
						i, got[i], want[i])
				}
			}
		})
	}
}

// TestStabBatchMatchesSequential checks the same property for stabbing
// queries.
func TestStabBatchMatchesSequential(t *testing.T) {
	const n = 2000
	data := workload.I3.Generate(n, 99)
	idx, err := segidx.NewSRTree()
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i, r := range data {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	rng := workload.NewRNG(7)
	points := make([][]float64, 200)
	for i := range points {
		points[i] = []float64{rng.Uniform(0, workload.DomainHi), rng.Uniform(0, workload.DomainHi)}
	}
	want := make([][]segidx.Entry, len(points))
	for i, p := range points {
		out, err := idx.Stab(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	idx.SetParallelism(8)
	got, err := idx.StabBatch(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("point %d: batch stab diverged from sequential Stab", i)
		}
	}
}

// TestInsertBatchBuildsEquivalentIndex loads the same records through
// InsertBatch (parallelism 8) and through a sequential Insert loop, then
// checks the batch-built index holds the same record set: equal Len,
// valid invariants, and identical ID sets for every query (entry order
// may differ because the tree shapes differ with insertion order).
func TestInsertBatchBuildsEquivalentIndex(t *testing.T) {
	const n = 2500
	data := workload.I3.Generate(n, 777)
	recs := make([]segidx.BulkRecord, n)
	for i, r := range data {
		recs[i] = segidx.BulkRecord{Rect: r, ID: segidx.RecordID(i + 1)}
	}
	queries := batchQueries()

	for name, mk := range constructors(n) {
		t.Run(name, func(t *testing.T) {
			seq, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer seq.Close()
			for _, rec := range recs {
				if err := seq.Insert(rec.Rect, rec.ID); err != nil {
					t.Fatal(err)
				}
			}
			par, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer par.Close()
			par.SetParallelism(8)
			if err := par.InsertBatch(context.Background(), recs); err != nil {
				t.Fatal(err)
			}
			if par.Len() != seq.Len() {
				t.Fatalf("Len = %d, want %d", par.Len(), seq.Len())
			}
			if err := par.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				a, err := seq.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := par.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDSet(a, b) {
					t.Fatalf("query %d: batch-built index returned %d records, sequential %d",
						qi, len(b), len(a))
				}
			}
		})
	}
}

func sameIDSet(a, b []segidx.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	ai := make([]segidx.RecordID, len(a))
	bi := make([]segidx.RecordID, len(b))
	for i := range a {
		ai[i], bi[i] = a[i].ID, b[i].ID
	}
	sort.Slice(ai, func(x, y int) bool { return ai[x] < ai[y] })
	sort.Slice(bi, func(x, y int) bool { return bi[x] < bi[y] })
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	return true
}

// TestSearchBatchCancellation verifies a canceled context aborts the
// batch with ctx.Err() on both the sequential and the worker-pool path.
func TestSearchBatchCancellation(t *testing.T) {
	idx, err := segidx.NewRTree()
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i, r := range workload.I3.Generate(500, 3) {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	queries := workload.Queries(1, 64, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 8} {
		idx.SetParallelism(par)
		res, err := idx.SearchBatch(ctx, queries)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if res != nil {
			t.Fatalf("parallelism %d: partial results returned on error", par)
		}
		if err := idx.InsertBatch(ctx, nil); err != nil {
			t.Fatalf("empty batch with canceled ctx: %v", err)
		}
	}
}

// TestOneQueryBatch covers the one-query path of SearchBatch and
// StabBatch, which skips the batch snapshot and the fan-out: on a 3-shard
// index it returns exactly what Search and Stab return, an error from the
// query itself, and ctx.Err() for a canceled context.
func TestOneQueryBatch(t *testing.T) {
	idx, err := segidx.NewSRTree(segidx.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i, r := range workload.I3.Generate(1500, 17) {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	rng := workload.NewRNG(19)
	for _, q := range batchQueries() {
		want, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.SearchBatch(ctx, []segidx.Rect{q})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Fatalf("SearchBatch(%v) = %v, want [%v]", q, got, want)
		}

		p := []float64{rng.Uniform(0, workload.DomainHi), rng.Uniform(0, workload.DomainHi)}
		want, err = idx.Stab(p...)
		if err != nil {
			t.Fatal(err)
		}
		got, err = idx.StabBatch(nil, [][]float64{p})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Fatalf("StabBatch(%v) = %v, want [%v]", p, got, want)
		}
	}

	if res, err := idx.StabBatch(ctx, [][]float64{{1}}); err == nil || res != nil {
		t.Fatalf("a stab of the wrong dimensionality returned %v, %v; want an error", res, err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if res, err := idx.SearchBatch(canceled, batchQueries()[:1]); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled SearchBatch = %v, %v; want context.Canceled", res, err)
	}
	if res, err := idx.StabBatch(canceled, [][]float64{{1, 1}}); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled StabBatch = %v, %v; want context.Canceled", res, err)
	}
}

// TestBatchParallelismKnob covers the parallelism accessors and the
// empty-batch and option paths.
func TestBatchParallelismKnob(t *testing.T) {
	idx, err := segidx.NewRTree(segidx.WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if got := idx.Parallelism(); got != 3 {
		t.Fatalf("Parallelism = %d, want 3 (from option)", got)
	}
	idx.SetParallelism(0)
	if got := idx.Parallelism(); got < 1 {
		t.Fatalf("default Parallelism = %d, want >= 1", got)
	}
	idx.SetParallelism(-5) // negative clamps to the default
	if got := idx.Parallelism(); got < 1 {
		t.Fatalf("Parallelism after negative set = %d, want >= 1", got)
	}
	// Empty and nil-context batches are no-ops.
	res, err := idx.SearchBatch(nil, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty SearchBatch = %v, %v", res, err)
	}
	if err := idx.InsertBatch(nil, []segidx.BulkRecord{{Rect: segidx.Box(1, 1, 2, 2), ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d after 1-record batch", idx.Len())
	}
	if _, err := segidx.NewRTree(segidx.WithParallelism(-1)); err == nil {
		t.Fatal("WithParallelism(-1) accepted")
	}
}
