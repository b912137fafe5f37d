//go:build !race

package segidx_test

// Allocation regression gates for the zero-allocation read path. Each test
// asserts testing.AllocsPerRun == 0 for a view-lifetime query API on a
// fully resident tree, for all four index variants; TestSearchAllocs holds
// the materializing Search at one count for every result size. A
// regression here means something on the search path started escaping to
// the heap — run the benchmark in hotpath_bench_test.go with -memprofile
// to find it.
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

// gateZeroAllocs fails unless probe allocates nothing on each of its n
// inputs. Each input is measured on its own, after one warm-up call:
// AllocsPerRun truncates its mean, so an allocation only some inputs make
// would hide in a mix of them.
func gateZeroAllocs(t *testing.T, what string, n int, probe func(i int) error) {
	t.Helper()
	for i := 0; i < n; i++ {
		var avg float64
		withGCOff(func() {
			avg = testing.AllocsPerRun(10, func() {
				if err := probe(i); err != nil {
					t.Fatal(err)
				}
			})
		})
		if avg != 0 {
			t.Fatalf("%s allocates %g objects per call on input %d, want 0", what, avg, i)
		}
	}
}

func TestSearchFuncZeroAllocs(t *testing.T) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
			idx := buildFor(t, spec, kind)
			defer idx.Close()
			queries := append(hotpathQueries(spec), growingBoxes()...)
			warmResident(t, idx, queries)
			for _, fn := range earlyStopFuncs {
				gateZeroAllocs(t, "SearchFunc on a resident tree", len(queries), func(i int) error {
					return idx.SearchFunc(queries[i], fn)
				})
			}
		})
	}
}

// earlyStopFuncs are the callbacks the streaming gates run: one takes every
// entry, the other stops the query at its first.
var earlyStopFuncs = []func(segidx.Entry) bool{
	func(segidx.Entry) bool { return true },
	func(segidx.Entry) bool { return false },
}

func TestStabFuncZeroAllocs(t *testing.T) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
			idx := buildFor(t, spec, kind)
			defer idx.Close()
			points := stabPoints(spec, 64)
			for _, fn := range earlyStopFuncs {
				gateZeroAllocs(t, "StabFunc on a resident tree", len(points), func(i int) error {
					return idx.StabFunc(fn, points[i]...)
				})
			}
		})
	}
}

// accelAllocIndex builds a sidecar-accelerated index in the given mode and
// loads it with interval data, returning stab points on the hot dimension.
// Every tenth record is then deleted under a snapshot the index keeps until
// Close, so the sidecar's lists hold dead slots that queries skip.
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
	view := idx.Snapshot()
	t.Cleanup(view.Release)
	for i := 5; i < len(records); i += 10 {
		if n, err := idx.Delete(segidx.RecordID(i+1), records[i]); err != nil || n != 1 {
			t.Fatalf("delete %d: %d, %v", i+1, n, err)
		}
	}
	var points [][]float64
	for i := 0; i < len(records) && len(points) < 64; i += len(records) / 64 {
		r := records[i]
		points = append(points, []float64{(r.Min[0] + r.Max[0]) / 2, r.Min[1]})
	}
	return idx, points
}

// accelAllocGate asserts that probe allocates nothing per call on each of
// its n inputs and that every call went to the sidecar when viaSidecar,
// else to the tree.
func accelAllocGate(t *testing.T, idx *segidx.Index, viaSidecar bool, n int, probe func(i int) error) {
	t.Helper()
	side0, tree0 := accelRoutes(idx)
	gateZeroAllocs(t, "the query", n, probe)
	side, tree := accelRoutes(idx)
	side, tree = side-side0, tree-tree0
	ok, want := side > 0 && tree == 0, "sidecar"
	if !viaSidecar {
		ok, want = tree > 0 && side == 0, "tree"
	}
	if !ok {
		t.Fatalf("%d calls routed to the sidecar and %d to the tree; want all to the %s", side, tree, want)
	}
}

// accelAllocModes are the modes the sidecar alloc gates run in: always,
// auto (the default), and off, whose sidecar is kept but never routed to.
var accelAllocModes = []segidx.HybridMode{segidx.HybridAlways, segidx.HybridAuto, segidx.HybridOff}

func TestAccelStabFuncZeroAllocs(t *testing.T) {
	for _, mode := range accelAllocModes {
		t.Run(mode.String(), func(t *testing.T) {
			idx, points := accelAllocIndex(t, mode)
			defer idx.Close()
			// A 2-D point covers none of the data's Y extent: auto sends it
			// to the tree. The second callback stops at the first match.
			for _, fn := range earlyStopFuncs {
				accelAllocGate(t, idx, mode == segidx.HybridAlways, len(points), func(i int) error {
					return idx.StabFunc(fn, points[i]...)
				})
			}
		})
	}
}

func TestAccelCountZeroAllocs(t *testing.T) {
	for _, mode := range accelAllocModes {
		t.Run(mode.String(), func(t *testing.T) {
			idx, points := accelAllocIndex(t, mode)
			defer idx.Close()
			// Vertical hot-dimension lines: the 1-D-degenerate ranges the
			// sidecar answers from its stab-part plus origin-part scan,
			// unless routing is off. Then ranges wider than the hot domain,
			// which auto sends to the tree and always clamps to the edge
			// cells.
			lines := make([]segidx.Rect, len(points))
			wide := make([]segidx.Rect, len(points))
			for i, p := range points {
				lines[i] = segidx.Box(p[0], workload.DomainLo, p[0], workload.DomainHi)
				wide[i] = segidx.Box(workload.DomainLo-1, p[1], workload.DomainHi+1, p[1])
			}
			for _, c := range []struct {
				queries    []segidx.Rect
				viaSidecar bool
			}{
				{lines, mode != segidx.HybridOff},
				{wide, mode == segidx.HybridAlways},
			} {
				accelAllocGate(t, idx, c.viaSidecar, len(c.queries), func(i int) error {
					_, err := idx.Count(c.queries[i])
					return err
				})
			}
		})
	}
}

// TestAccelDegradedZeroAllocs gates a degraded sidecar: a duplicate record
// ID makes it a pass-through, and every query, even in always mode, runs
// on the tree at no allocation.
func TestAccelDegradedZeroAllocs(t *testing.T) {
	idx, points := accelAllocIndex(t, segidx.HybridAlways)
	defer idx.Close()
	if err := idx.Insert(segidx.Box(1, 1, 2, 2), 1); err != nil {
		t.Fatal(err)
	}
	if s := idx.AccelStats(); len(s) != 1 || !s[0].Degraded {
		t.Fatalf("a duplicate ID left the sidecar serving: %+v", s)
	}
	fn := func(segidx.Entry) bool { return true }
	accelAllocGate(t, idx, false, len(points), func(i int) error {
		return idx.StabFunc(fn, points[i]...)
	})
}

func TestCountZeroAllocs(t *testing.T) {
	for _, kind := range harness.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
			idx := buildFor(t, spec, kind)
			defer idx.Close()
			queries := append(hotpathQueries(spec), growingBoxes()...)
			warmResident(t, idx, queries)
			gateZeroAllocs(t, "Count on a resident tree", len(queries), func(i int) error {
				_, err := idx.Count(queries[i])
				return err
			})
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
	for name, c := range map[string]struct {
		n     int
		probe func(i int) error
	}{
		"SearchFunc": {len(queries), func(i int) error { return idx.SearchFunc(queries[i], fn) }},
		"StabFunc":   {len(points), func(i int) error { return idx.StabFunc(fn, points[i]...) }},
		"Count":      {len(queries), func(i int) error { n, err := idx.Count(queries[i]); hits += n; return err }},
	} {
		hits = 0
		gateZeroAllocs(t, name+" while sampling", c.n, c.probe)
		if hits == 0 {
			t.Errorf("%s matched nothing; test is vacuous", name)
		}
	}
}

// growingBoxes returns squares about the domain's centre whose sides grow
// 4× a step, from a handful of matches to a good share of the index.
func growingBoxes() []segidx.Rect {
	c := (workload.DomainLo + workload.DomainHi) / 2
	var qs []segidx.Rect
	for w := 500.0; w <= 32000; w *= 4 {
		qs = append(qs, segidx.Box(c-w, c-w, c+w, c+w))
	}
	return qs
}

// searchAllocsPerResult is what a materializing Search costs on a one-shard
// index, whatever the result's size: two in core (the result slice and its
// one float array) and three in the forest's scatter and fan-out.
const searchAllocsPerResult = 5

// gateSearchAllocs fails unless search costs exactly searchAllocsPerResult
// allocations on each query with a non-empty result, and the results span
// at least a factor of ten in size: an allocation per visited node or per
// collected entry moves the count with the result.
func gateSearchAllocs(t *testing.T, search func(segidx.Rect) ([]segidx.Entry, error), queries []segidx.Rect) {
	t.Helper()
	for _, q := range queries { // grow the pooled context's buffers first
		if _, err := search(q); err != nil {
			t.Fatal(err)
		}
	}
	minLen, maxLen := 0, 0
	for _, q := range queries {
		res, err := search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			continue
		}
		if minLen == 0 || len(res) < minLen {
			minLen = len(res)
		}
		maxLen = max(maxLen, len(res))
		var avg float64
		withGCOff(func() {
			avg = testing.AllocsPerRun(20, func() {
				if _, err := search(q); err != nil {
					t.Fatal(err)
				}
			})
		})
		if avg != searchAllocsPerResult {
			t.Errorf("Search of %v (%d entries) allocates %g objects, want %d for every result size", q, len(res), avg, searchAllocsPerResult)
		}
	}
	if minLen == 0 || maxLen < 10*minLen {
		t.Fatalf("results of %d to %d entries; the gate needs non-empty results a factor of ten apart", minLen, maxLen)
	}
}

// TestSearchAllocs gates the materializing Search on a resident tree, for
// all four variants, live and through a pinned view.
func TestSearchAllocs(t *testing.T) {
	for _, kind := range harness.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", workload.I3, allocTuples)
			idx := buildFor(t, spec, kind)
			defer idx.Close()
			queries := append(hotpathQueries(spec), growingBoxes()...)
			warmResident(t, idx, queries)
			gateSearchAllocs(t, idx.Search, queries)
			view := idx.Snapshot()
			defer view.Release()
			gateSearchAllocs(t, view.Search, queries)
		})
	}
}

// TestDedupAllocs gates the dedup set of Search and Count on the spanning
// variant that cuts the most records (the skeleton SR-Tree): half the record IDs sit
// in the bitmap and half at or above its 1<<20 cap, in the overflow map,
// and the large boxes meet records in more than one portion. I3 cuts
// intervals; R2 cuts rectangles, whose later-found portions also extend a
// record's cover upwards in SearchContainingFunc's union.
func TestDedupAllocs(t *testing.T) {
	for _, ds := range []workload.Dataset{workload.I3, workload.R2} {
		t.Run(ds.String(), func(t *testing.T) {
			spec := harness.NewSpec("allocgate", ds, allocTuples)
			idx := newFor(t, spec, harness.KindSkeletonSRTree)
			defer idx.Close()
			for i, r := range spec.Dataset.Generate(spec.Tuples, spec.Seed) {
				id := segidx.RecordID(i + 1)
				if i%2 == 1 {
					id += 1 << 20
				}
				if err := idx.Insert(r, id); err != nil {
					t.Fatal(err)
				}
			}
			if idx.Stats().CutPortions == 0 {
				t.Fatal("no cut portions: the dedup set is never consulted")
			}
			queries := growingBoxes()
			warmResident(t, idx, queries)
			high, dups := 0, 0
			for _, q := range queries {
				seen := map[segidx.RecordID]bool{}
				if err := idx.SearchFunc(q, func(e segidx.Entry) bool {
					if seen[e.ID] && e.ID >= 1<<20 {
						dups++
					}
					seen[e.ID] = true
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for id := range seen {
					if id >= 1<<20 {
						high++
					}
				}
			}
			if high == 0 || dups == 0 {
				t.Fatalf("%d results and %d repeated portions above the bitmap's cap; the overflow arm is not exercised", high, dups)
			}
			gateSearchAllocs(t, idx.Search, queries)
			gateZeroAllocs(t, "Count with the dedup set in use", len(queries), func(i int) error {
				_, err := idx.Count(queries[i])
				return err
			})
			// SearchContainingFunc unions the portions of each record a box meets.
			fn := func(segidx.Entry) bool { return true }
			gateZeroAllocs(t, "SearchContainingFunc over cut records", len(queries), func(i int) error {
				return idx.SearchContainingFunc(queries[i], fn)
			})
		})
	}
}
