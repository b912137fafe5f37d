package segidx_test

// Hot read path micro-benchmarks. These measure allocation and latency of
// the query path on a fully resident tree (the default pool is unbounded,
// so after the warm-up sweep every page is cached and no I/O or decode
// happens inside the timed loop).
//
// The CI bench smoke job runs these with -benchtime=1x -race; the gated
// view APIs (SearchFunc, StabFunc, Count) must report 0 allocs/op — the
// AllocsPerRun gates in hotpath_alloc_test.go enforce it.

import (
	"testing"

	"segidx"
	"segidx/internal/harness"
	"segidx/internal/workload"
)

// hotpathQueries returns the fixed query mix used by every hot-path
// benchmark: unit-aspect windows over the I3 interval workload.
func hotpathQueries(spec harness.Spec) []segidx.Rect {
	return workload.Queries(1, 64, spec.Seed)
}

// warmResident runs every query once so each reachable page is decoded and
// cached before the timed loop (the pool is unbounded by default).
func warmResident(b testing.TB, idx *segidx.Index, queries []segidx.Rect) {
	b.Helper()
	for _, q := range queries {
		if err := idx.SearchFunc(q, func(segidx.Entry) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchFunc measures the streaming query API on a resident tree
// for all four index variants. Gated at 0 allocs/op.
func BenchmarkSearchFunc(b *testing.B) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			spec := harness.NewSpec("hotpath", workload.I3, benchTuples())
			idx := buildFor(b, spec, kind)
			defer idx.Close()
			queries := hotpathQueries(spec)
			warmResident(b, idx, queries)
			var hits int
			fn := func(e segidx.Entry) bool { hits++; return true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.SearchFunc(queries[i%len(queries)], fn); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if hits == 0 {
				b.Fatal("no hits: benchmark not exercising the match path")
			}
		})
	}
}

// BenchmarkSearchArena measures the materializing Search API (result slice
// returned to the caller) on a resident tree for all four variants.
func BenchmarkSearchArena(b *testing.B) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			spec := harness.NewSpec("hotpath", workload.I3, benchTuples())
			idx := buildFor(b, spec, kind)
			defer idx.Close()
			queries := hotpathQueries(spec)
			warmResident(b, idx, queries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCount measures match counting on a resident tree. Gated at
// 0 allocs/op.
func BenchmarkCount(b *testing.B) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			spec := harness.NewSpec("hotpath", workload.I3, benchTuples())
			idx := buildFor(b, spec, kind)
			defer idx.Close()
			queries := hotpathQueries(spec)
			warmResident(b, idx, queries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Count(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// stabPoints returns points lying on records of the spec's dataset (the
// interval workloads place segments at exact Y values, so uniform random
// points would stab nothing).
func stabPoints(spec harness.Spec, n int) [][]float64 {
	records := spec.Dataset.Generate(spec.Tuples, spec.Seed)
	step := len(records) / n
	if step < 1 {
		step = 1
	}
	var points [][]float64
	for i := 0; i < len(records) && len(points) < n; i += step {
		r := records[i]
		points = append(points, []float64{(r.Min[0] + r.Max[0]) / 2, r.Min[1]})
	}
	return points
}

// BenchmarkStabFunc measures the streaming stabbing API on a resident tree
// for all four index variants. Gated at 0 allocs/op.
func BenchmarkStabFunc(b *testing.B) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			spec := harness.NewSpec("hotpath", workload.I3, benchTuples())
			idx := buildFor(b, spec, kind)
			defer idx.Close()
			points := stabPoints(spec, 256)
			var hits int
			fn := func(e segidx.Entry) bool { hits++; return true }
			// Pre-built coordinate slices passed through with p... — a
			// literal StabFunc(fn, x, y) call allocates the variadic
			// slice at the call site.
			for _, p := range points {
				if err := idx.StabFunc(fn, p...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.StabFunc(fn, points[i%len(points)]...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if hits == 0 {
				b.Fatal("no hits: benchmark not exercising the match path")
			}
		})
	}
}

// BenchmarkStabHot measures materializing stabbing queries (covering
// portions are unioned per record and returned) on a resident SR-Tree.
func BenchmarkStabHot(b *testing.B) {
	spec := harness.NewSpec("hotpath", workload.I3, benchTuples())
	idx := buildFor(b, spec, harness.KindSRTree)
	defer idx.Close()
	points := stabPoints(spec, 256)
	for _, p := range points {
		if _, err := idx.Stab(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		if _, err := idx.Stab(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}
