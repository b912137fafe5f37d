//go:build !race

package segidx_test

// Allocation regression gates for the zero-allocation read path. Each test
// asserts testing.AllocsPerRun == 0 for a view-lifetime query API on a
// fully resident tree, for all four index variants. A regression here means
// something on the search path started escaping to the heap — run the
// benchmark in hotpath_bench_test.go with -memprofile to find it.
//
// The race detector instruments allocations and defeats the measurement,
// so this file is excluded from -race builds (the CI bench smoke job still
// runs the benchmarks themselves under -race for correctness).

import (
	"runtime/debug"
	"testing"

	"segidx"
	"segidx/internal/harness"
	"segidx/internal/workload"
)

// allocTuples keeps the alloc-gate trees small: residency is what matters,
// not scale, and AllocsPerRun runs the probe many times.
const allocTuples = 4000

// withGCOff disables the collector for the duration of fn so a mid-probe
// GC cannot clear the query-context sync.Pool and charge the refill to the
// measured run.
func withGCOff(fn func()) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	fn()
}

func TestSearchFuncZeroAllocs(t *testing.T) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
			idx := buildFor(t, spec, kind)
			defer idx.Close()
			queries := hotpathQueries(spec)
			warmResident(t, idx, queries)
			fn := func(segidx.Entry) bool { return true }
			i := 0
			var avg float64
			withGCOff(func() {
				avg = testing.AllocsPerRun(100, func() {
					if err := idx.SearchFunc(queries[i%len(queries)], fn); err != nil {
						t.Fatal(err)
					}
					i++
				})
			})
			if avg != 0 {
				t.Fatalf("SearchFunc allocates %g objects per call on a resident tree, want 0", avg)
			}
		})
	}
}

func TestStabFuncZeroAllocs(t *testing.T) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
			idx := buildFor(t, spec, kind)
			defer idx.Close()
			points := stabPoints(spec, 64)
			fn := func(segidx.Entry) bool { return true }
			for _, p := range points {
				if err := idx.StabFunc(fn, p...); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			var avg float64
			withGCOff(func() {
				avg = testing.AllocsPerRun(100, func() {
					if err := idx.StabFunc(fn, points[i%len(points)]...); err != nil {
						t.Fatal(err)
					}
					i++
				})
			})
			if avg != 0 {
				t.Fatalf("StabFunc allocates %g objects per call on a resident tree, want 0", avg)
			}
		})
	}
}

// accelAllocIndex builds a sidecar-accelerated index in always mode and
// loads it with interval data, returning stab points on the hot dimension.
func accelAllocIndex(t *testing.T) (*segidx.Index, [][]float64) {
	t.Helper()
	idx := accelBuild(t, "sr-tree", 1, allocTuples,
		segidx.WithStabAccel(0, 10), segidx.WithHybridMode(segidx.HybridAlways))
	records := workload.I3.Generate(allocTuples, 31)
	for i, r := range records {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var points [][]float64
	for i := 0; i < len(records) && len(points) < 64; i += len(records) / 64 {
		r := records[i]
		points = append(points, []float64{(r.Min[0] + r.Max[0]) / 2, r.Min[1]})
	}
	return idx, points
}

// accelRouted sums the sidecar-routed query count across all shards.
func accelRouted(idx *segidx.Index) uint64 {
	var n uint64
	for _, s := range idx.AccelStats() {
		n += s.RoutedAccel
	}
	return n
}

func TestAccelStabFuncZeroAllocs(t *testing.T) {
	idx, points := accelAllocIndex(t)
	defer idx.Close()
	fn := func(segidx.Entry) bool { return true }
	for _, p := range points {
		if err := idx.StabFunc(fn, p...); err != nil {
			t.Fatal(err)
		}
	}
	before := accelRouted(idx)
	i := 0
	var avg float64
	withGCOff(func() {
		avg = testing.AllocsPerRun(100, func() {
			if err := idx.StabFunc(fn, points[i%len(points)]...); err != nil {
				t.Fatal(err)
			}
			i++
		})
	})
	if accelRouted(idx) <= before {
		t.Fatal("always mode did not route the probes through the sidecar")
	}
	if avg != 0 {
		t.Fatalf("sidecar StabFunc allocates %g objects per call, want 0", avg)
	}
}

func TestAccelCountZeroAllocs(t *testing.T) {
	idx, points := accelAllocIndex(t)
	defer idx.Close()
	// Vertical hot-dimension lines: the 1-D-degenerate ranges the sidecar
	// answers from its stab-part plus origin-part scan.
	queries := make([]segidx.Rect, len(points))
	for i, p := range points {
		queries[i] = segidx.Box(p[0], workload.DomainLo, p[0], workload.DomainHi)
	}
	for _, q := range queries {
		if _, err := idx.Count(q); err != nil {
			t.Fatal(err)
		}
	}
	before := accelRouted(idx)
	i := 0
	var avg float64
	withGCOff(func() {
		avg = testing.AllocsPerRun(100, func() {
			if _, err := idx.Count(queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	})
	if accelRouted(idx) <= before {
		t.Fatal("always mode did not route the probes through the sidecar")
	}
	if avg != 0 {
		t.Fatalf("sidecar Count allocates %g objects per call, want 0", avg)
	}
}

func TestCountZeroAllocs(t *testing.T) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
			idx := buildFor(t, spec, kind)
			defer idx.Close()
			queries := hotpathQueries(spec)
			warmResident(t, idx, queries)
			i := 0
			var avg float64
			withGCOff(func() {
				avg = testing.AllocsPerRun(100, func() {
					if _, err := idx.Count(queries[i%len(queries)]); err != nil {
						t.Fatal(err)
					}
					i++
				})
			})
			if avg != 0 {
				t.Fatalf("Count allocates %g objects per call on a resident tree, want 0", avg)
			}
		})
	}
}

// TestStagingPhaseZeroAllocs gates the read path of a predicted skeleton
// index that is still collecting its sample: those queries are plain tree
// queries on the staging tree, not scans that copy the sample out.
func TestStagingPhaseZeroAllocs(t *testing.T) {
	spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
	idx, err := segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{
		Tuples:          allocTuples,
		Domain:          workload.Domain(),
		PredictFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i, r := range spec.Dataset.Generate(allocTuples/4, spec.Seed) { // half the sample
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	queries := hotpathQueries(spec)
	warmResident(t, idx, queries)
	spec.Tuples = allocTuples / 4
	points := stabPoints(spec, 64)
	hits := 0
	fn := func(segidx.Entry) bool { hits++; return true }
	i := 0
	for name, probe := range map[string]func() error{
		"SearchFunc": func() error { return idx.SearchFunc(queries[i%len(queries)], fn) },
		"StabFunc":   func() error { return idx.StabFunc(fn, points[i%len(points)]...) },
		"Count":      func() error { n, err := idx.Count(queries[i%len(queries)]); hits += n; return err },
	} {
		hits = 0
		var avg float64
		withGCOff(func() {
			avg = testing.AllocsPerRun(100, func() {
				if err := probe(); err != nil {
					t.Fatal(err)
				}
				i++
			})
		})
		if avg != 0 {
			t.Errorf("%s allocates %g objects per call while sampling, want 0", name, avg)
		}
		if hits == 0 {
			t.Errorf("%s matched nothing; test is vacuous", name)
		}
	}
}
