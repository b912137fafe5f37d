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

// accelAllocIndex builds a sidecar-accelerated index in the given mode and
// loads it with interval data, returning stab points on the hot dimension.
func accelAllocIndex(t *testing.T, mode segidx.HybridMode) (*segidx.Index, [][]float64) {
	t.Helper()
	idx := accelBuild(t, "sr-tree", 1, allocTuples,
		segidx.WithStabAccel(0, 10), segidx.WithHybridMode(mode))
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

// accelAllocGate asserts that probe allocates nothing per call and that
// every call went to the sidecar when viaSidecar, else to the tree.
func accelAllocGate(t *testing.T, idx *segidx.Index, viaSidecar bool, probe func() error) {
	t.Helper()
	side0, tree0 := accelRoutes(idx)
	var avg float64
	withGCOff(func() {
		avg = testing.AllocsPerRun(100, func() {
			if err := probe(); err != nil {
				t.Fatal(err)
			}
		})
	})
	side, tree := accelRoutes(idx)
	side, tree = side-side0, tree-tree0
	ok, want := side > 0 && tree == 0, "sidecar"
	if !viaSidecar {
		ok, want = tree > 0 && side == 0, "tree"
	}
	if !ok {
		t.Fatalf("%d calls routed to the sidecar and %d to the tree; want all to the %s", side, tree, want)
	}
	if avg != 0 {
		t.Fatalf("allocates %g objects per call, want 0", avg)
	}
}

// accelAllocModes are the modes the sidecar alloc gates run in: always,
// and auto, the default.
var accelAllocModes = []segidx.HybridMode{segidx.HybridAlways, segidx.HybridAuto}

func TestAccelStabFuncZeroAllocs(t *testing.T) {
	for _, mode := range accelAllocModes {
		t.Run(mode.String(), func(t *testing.T) {
			idx, points := accelAllocIndex(t, mode)
			defer idx.Close()
			fn := func(segidx.Entry) bool { return true }
			for _, p := range points {
				if err := idx.StabFunc(fn, p...); err != nil {
					t.Fatal(err)
				}
			}
			// A 2-D point covers none of the data's Y extent: auto sends it
			// to the tree.
			i := 0
			accelAllocGate(t, idx, mode == segidx.HybridAlways, func() error {
				i++
				return idx.StabFunc(fn, points[i%len(points)]...)
			})
		})
	}
}

func TestAccelCountZeroAllocs(t *testing.T) {
	for _, mode := range accelAllocModes {
		t.Run(mode.String(), func(t *testing.T) {
			idx, points := accelAllocIndex(t, mode)
			defer idx.Close()
			// Vertical hot-dimension lines: the 1-D-degenerate ranges the
			// sidecar answers from its stab-part plus origin-part scan, in
			// either mode.
			queries := make([]segidx.Rect, len(points))
			for i, p := range points {
				queries[i] = segidx.Box(p[0], workload.DomainLo, p[0], workload.DomainHi)
			}
			for _, q := range queries {
				if _, err := idx.Count(q); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			accelAllocGate(t, idx, true, func() error {
				i++
				_, err := idx.Count(queries[i%len(queries)])
				return err
			})
		})
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
