package segidx_test

// Benchmarks regenerating the paper's evaluation (one per graph, plus
// ablations and operation micro-benchmarks). Each graph benchmark builds
// the four index types over the graph's dataset outside the timer, then
// measures searches across the paper's QAR sweep, reporting the paper's
// metric as "nodes/search".
//
// The dataset size defaults to 20,000 tuples so `go test -bench=.` stays
// minutes-scale; set SEGIDX_BENCH_TUPLES=200000 to run at the paper's
// scale (cmd/segbench runs the full experiment with per-QAR breakdowns).

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"segidx"
	"segidx/internal/harness"
	"segidx/internal/workload"
)

func benchTuples() int {
	if s := os.Getenv("SEGIDX_BENCH_TUPLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 20000
}

// newFor constructs one empty index of the given kind for a spec.
func newFor(b testing.TB, spec harness.Spec, kind harness.Kind) *segidx.Index {
	b.Helper()
	opts := []segidx.Option{
		segidx.WithLeafNodeBytes(spec.LeafBytes),
		segidx.WithNodeGrowth(spec.Growth),
		segidx.WithBranchReserve(spec.BranchReserve),
		segidx.WithCoalescing(spec.CoalesceEvery, spec.CoalesceCandidates),
	}
	est := segidx.SkeletonEstimate{
		Tuples:          spec.Tuples,
		Domain:          segidx.Box(workload.DomainLo, workload.DomainLo, workload.DomainHi, workload.DomainHi),
		PredictFraction: float64(spec.PredictSample) / float64(spec.Tuples),
	}
	var (
		idx *segidx.Index
		err error
	)
	switch kind {
	case harness.KindRTree:
		idx, err = segidx.NewRTree(opts...)
	case harness.KindSRTree:
		idx, err = segidx.NewSRTree(opts...)
	case harness.KindSkeletonRTree:
		idx, err = segidx.NewSkeletonRTree(est, opts...)
	case harness.KindSkeletonSRTree:
		idx, err = segidx.NewSkeletonSRTree(est, opts...)
	}
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// buildFor constructs and loads one index type for a spec.
func buildFor(b testing.TB, spec harness.Spec, kind harness.Kind) *segidx.Index {
	b.Helper()
	idx := newFor(b, spec, kind)
	for i, r := range spec.Dataset.Generate(spec.Tuples, spec.Seed) {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	return idx
}

// benchGraph measures the QAR search sweep for every index type on one of
// the paper's graphs.
func benchGraph(b *testing.B, graph int) {
	spec, err := harness.GraphSpec(graph, benchTuples())
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			idx := buildFor(b, spec, kind)
			defer idx.Close()
			// Pre-generate the paper's query mix: the full QAR sweep.
			var queries []segidx.Rect
			for _, qar := range spec.QARs {
				queries = append(queries, workload.Queries(qar, 20, spec.Seed)...)
			}
			before := idx.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := idx.Stats()
			searches := after.Searches - before.Searches
			if searches > 0 {
				b.ReportMetric(float64(after.SearchNodeAccesses-before.SearchNodeAccesses)/float64(searches), "nodes/search")
			}
		})
	}
}

func BenchmarkGraph1(b *testing.B) { benchGraph(b, 1) } // I1: uniform Y, uniform lengths
func BenchmarkGraph2(b *testing.B) { benchGraph(b, 2) } // I2: exp Y, uniform lengths
func BenchmarkGraph3(b *testing.B) { benchGraph(b, 3) } // I3: uniform Y, exp lengths
func BenchmarkGraph4(b *testing.B) { benchGraph(b, 4) } // I4: exp Y, exp lengths
func BenchmarkGraph5(b *testing.B) { benchGraph(b, 5) } // R1: uniform rectangles
func BenchmarkGraph6(b *testing.B) { benchGraph(b, 6) } // R2: exp-size rectangles
func BenchmarkGraph7(b *testing.B) { benchGraph(b, 7) } // RE1 (omitted in paper)
func BenchmarkGraph8(b *testing.B) { benchGraph(b, 8) } // RE2 (omitted in paper)

// BenchmarkInsert measures insertion throughput per index type on the
// skewed interval workload (I3).
func BenchmarkInsert(b *testing.B) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			spec := harness.NewSpec("insert", workload.I3, b.N+1)
			data := spec.Dataset.Generate(b.N, spec.Seed)
			idx := newFor(b, spec, kind)
			defer idx.Close()
			before := idx.PoolStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.Insert(data[i], segidx.RecordID(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			reportClones(b, before, idx.PoolStats())
		})
	}
}

// BenchmarkAblationReserve measures the VQAR search cost of the SR-Tree at
// the three branch-reserve fractions Section 4 mentions (A1).
func BenchmarkAblationReserve(b *testing.B) {
	for _, reserve := range []float64{0.5, 2.0 / 3.0, 0.75} {
		reserve := reserve
		b.Run(fmt.Sprintf("reserve=%.2f", reserve), func(b *testing.B) {
			spec := harness.NewSpec("A1", workload.I3, benchTuples())
			spec.BranchReserve = reserve
			idx := buildFor(b, spec, harness.KindSkeletonSRTree)
			defer idx.Close()
			queries := workload.Queries(0.001, 50, spec.Seed)
			before := idx.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := idx.Stats()
			if n := after.Searches - before.Searches; n > 0 {
				b.ReportMetric(float64(after.SearchNodeAccesses-before.SearchNodeAccesses)/float64(n), "nodes/search")
			}
		})
	}
}

// BenchmarkAblationNodeSize compares doubling node sizes (tactic 2) with
// fixed-size nodes (A2).
func BenchmarkAblationNodeSize(b *testing.B) {
	for _, growth := range []int{2, 1} {
		growth := growth
		b.Run(fmt.Sprintf("growth=%d", growth), func(b *testing.B) {
			spec := harness.NewSpec("A2", workload.I3, benchTuples())
			spec.Growth = growth
			idx := buildFor(b, spec, harness.KindSkeletonSRTree)
			defer idx.Close()
			queries := workload.Queries(0.001, 50, spec.Seed)
			before := idx.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := idx.Stats()
			if n := after.Searches - before.Searches; n > 0 {
				b.ReportMetric(float64(after.SearchNodeAccesses-before.SearchNodeAccesses)/float64(n), "nodes/search")
			}
		})
	}
}

// BenchmarkSearch measures single-query latency per index type on I3 with
// a unit-aspect query.
func BenchmarkSearch(b *testing.B) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			spec := harness.NewSpec("search", workload.I3, benchTuples())
			idx := buildFor(b, spec, kind)
			defer idx.Close()
			queries := workload.Queries(1, 64, spec.Seed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchParallel measures concurrent search throughput per index
// type on I3 with b.RunParallel; compare the per-op time against
// BenchmarkSearch at the same -cpu to get the read scale-up factor
// (EXPERIMENTS.md records the numbers).
func BenchmarkSearchParallel(b *testing.B) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			spec := harness.NewSpec("search-parallel", workload.I3, benchTuples())
			idx := buildFor(b, spec, kind)
			defer idx.Close()
			queries := workload.Queries(1, 64, spec.Seed)
			var goroutines atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Stagger each goroutine's starting query so concurrent
				// workers do not walk the same tree path in lockstep.
				i := int(goroutines.Add(1)) * 17
				for pb.Next() {
					if _, err := idx.Search(queries[i%len(queries)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkSearchBatch measures SearchBatch throughput (the whole QAR mix
// as one batch) at the worker bound given by -cpu.
func BenchmarkSearchBatch(b *testing.B) {
	spec := harness.NewSpec("search-batch", workload.I3, benchTuples())
	idx := buildFor(b, spec, harness.KindSRTree)
	defer idx.Close()
	queries := workload.Queries(1, 256, spec.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SearchBatch(context.Background(), queries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}

// BenchmarkStab measures stabbing-query latency on the SR-Tree.
func BenchmarkStab(b *testing.B) {
	spec := harness.NewSpec("stab", workload.I3, benchTuples())
	idx := buildFor(b, spec, harness.KindSRTree)
	defer idx.Close()
	rng := workload.NewRNG(12)
	points := make([][2]float64, 256)
	for i := range points {
		points[i] = [2]float64{rng.Uniform(0, workload.DomainHi), rng.Uniform(0, workload.DomainHi)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		if _, err := idx.Stab(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelete measures deletion on a pre-built SR-Tree (records are
// re-inserted after deletion to keep the tree size stable across b.N).
func BenchmarkDelete(b *testing.B) {
	spec := harness.NewSpec("delete", workload.I3, benchTuples())
	idx := buildFor(b, spec, harness.KindSRTree)
	defer idx.Close()
	data := spec.Dataset.Generate(spec.Tuples, spec.Seed)
	var cow segidx.PoolStats // over the deletes alone
	before := idx.PoolStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(data)
		id := segidx.RecordID(j + 1)
		n, err := idx.Delete(id, data[j])
		if err != nil {
			b.Fatal(err)
		}
		if n != 1 {
			b.Fatalf("delete %d removed %d", id, n)
		}
		b.StopTimer()
		after := idx.PoolStats()
		cow.Clones += after.Clones - before.Clones
		cow.ClonedBytes += after.ClonedBytes - before.ClonedBytes
		if err := idx.Insert(data[j], id); err != nil {
			b.Fatal(err)
		}
		before = idx.PoolStats()
		b.StartTimer()
	}
	reportClones(b, segidx.PoolStats{}, cow)
}

// reportClones reports the copy-on-write cost of the b.N measured
// operations: pages cloned and page bytes cloned per operation.
func reportClones(b *testing.B, before, after segidx.PoolStats) {
	b.ReportMetric(float64(after.Clones-before.Clones)/float64(b.N), "clones/op")
	b.ReportMetric(float64(after.ClonedBytes-before.ClonedBytes)/float64(b.N), "cloned-B/op")
}

// BenchmarkBulkLoad measures packed construction throughput.
func BenchmarkBulkLoad(b *testing.B) {
	data := workload.R1.Generate(benchTuples(), 99)
	recs := make([]segidx.BulkRecord, len(data))
	for i, r := range data {
		recs[i] = segidx.BulkRecord{Rect: r, ID: segidx.RecordID(i + 1)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := segidx.BulkLoadRTree(recs, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		idx.Close()
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}
