package core

import (
	"fmt"
	"math/rand"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
)

// TestAllIdenticalRecords stresses split heuristics with zero spatial
// information: every record is the same point.
func TestAllIdenticalRecords(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			tr, err := NewInMemory(smallConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			p := geom.Point(500, 500)
			for i := 0; i < 500; i++ {
				if err := tr.Insert(p, node.RecordID(i+1)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			n, err := tr.Count(p)
			if err != nil || n != 500 {
				t.Fatalf("Count = %d, %v", n, err)
			}
			if n, _ := tr.Count(geom.Point(499, 500)); n != 0 {
				t.Fatalf("adjacent point matched %d", n)
			}
		})
	}
}

// TestIdenticalSegments stresses the spanning machinery with identical
// long segments (every record spans everything it can).
func TestIdenticalSegments(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	seg := geom.Rect2(0, 500, 1000, 500)
	for i := 0; i < 300; i++ {
		if err := tr.Insert(seg, node.RecordID(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%100 == 99 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d: %v", i+1, err)
			}
		}
	}
	n, err := tr.Count(geom.Point(500, 500))
	if err != nil || n != 300 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestOneDimensionalModel runs the brute-force comparison in K=1 (the
// paper's rule-lock dimensionality).
func TestOneDimensionalModel(t *testing.T) {
	cfg := smallConfig(true)
	cfg.Dims = 1
	tr, err := NewInMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(401))
	m := newModel()
	for i := 0; i < 2000; i++ {
		lo := rng.Float64() * 1000
		width := rng.Float64() * 10
		if rng.Intn(8) == 0 {
			width = rng.Float64() * 700
		}
		hi := lo + width
		if hi > 1000 {
			hi = 1000
		}
		r := geom.Interval1(lo, hi)
		id := node.RecordID(i + 1)
		if err := tr.Insert(r, id); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		m.insert(r, id)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		lo := rng.Float64() * 1000
		query := geom.Interval1(lo, lo+rng.Float64()*50)
		if !idsEqual(searchIDs(t, tr, query), m.search(query)) {
			t.Fatalf("1-D search diverged on %v", query)
		}
	}
}

// TestThreeDimensionalModel runs the brute-force comparison in K=3.
func TestThreeDimensionalModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dims = 3
	cfg.Sizes.LeafBytes = 512
	cfg.Spanning = true
	tr, err := NewInMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(402))
	m := newModel()
	rect3 := func(maxSide float64) geom.Rect {
		min := make([]float64, 3)
		max := make([]float64, 3)
		for d := 0; d < 3; d++ {
			min[d] = rng.Float64() * 1000
			max[d] = min[d] + rng.Float64()*maxSide
		}
		return geom.Rect{Min: min, Max: max}
	}
	for i := 0; i < 1500; i++ {
		side := 15.0
		if rng.Intn(10) == 0 {
			side = 500
		}
		r := rect3(side)
		id := node.RecordID(i + 1)
		if err := tr.Insert(r, id); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		m.insert(r, id)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 100; q++ {
		query := rect3(120)
		if !idsEqual(searchIDs(t, tr, query), m.search(query)) {
			t.Fatalf("3-D search diverged on %v", query)
		}
	}
}

// TestDomainBoundaryRecords places records exactly on the skeleton domain
// boundary, where partition edges coincide with data.
func TestDomainBoundaryRecords(t *testing.T) {
	tr, err := NewInMemory(skeletonConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BuildSkeleton(Estimate{Tuples: 500, Domain: domain1000()}); err != nil {
		t.Fatal(err)
	}
	boundary := []geom.Rect{
		geom.Point(0, 0),
		geom.Point(1000, 1000),
		geom.Point(0, 1000),
		geom.Rect2(0, 0, 1000, 0),     // bottom edge segment
		geom.Rect2(0, 0, 0, 1000),     // left edge segment
		geom.Rect2(0, 500, 1000, 500), // full-width segment
		geom.Rect2(0, 0, 1000, 1000),  // the whole domain
		geom.Rect2(500, 0, 500, 1000), // full-height segment
		geom.Point(500, 500),          // partition cross point
	}
	for i, r := range boundary {
		if err := tr.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatalf("insert %d (%v): %v", i, r, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Count(domain1000())
	if err != nil || got != len(boundary) {
		t.Fatalf("Count = %d, %v; want %d", got, err, len(boundary))
	}
	// Records outside the estimated domain still insert correctly.
	if err := tr.Insert(geom.Point(1500, -200), 999); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.Count(geom.Rect2(1400, -300, 1600, 0)); n != 1 {
		t.Fatalf("out-of-domain record not found (%d)", n)
	}
}

// TestDuplicateIDsAcrossRecords documents the behavior when callers reuse
// an ID: search deduplicates them into one logical result.
func TestDuplicateIDsAcrossRecords(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.Point(1, 1), 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.Point(900, 900), 7); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Search(geom.Rect2(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("duplicate IDs deduplicated to %d results, want 1", len(got))
	}
}

// TestStoreErrorSurfacesFromInsert injects a store failure under a pool
// too small to keep the tree resident and checks the error propagates.
func TestStoreErrorSurfacesFromInsert(t *testing.T) {
	st := store.NewMemStore()
	cfg := smallConfig(false)
	cfg.PoolBytes = 1024 // a handful of 256-byte pages
	tr, err := New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(403))
	for i := 0; i < 200; i++ {
		if err := tr.Insert(randBox(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("disk on fire")
	st.InjectReadError(1, boom)
	// Some subsequent operation must hit the failed read; the tree
	// surfaces it instead of corrupting.
	var sawErr bool
	for i := 0; i < 50 && !sawErr; i++ {
		if _, err := tr.Search(randQuery(rng)); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Skip("pool kept everything resident; injection not reachable")
	}
	// After the transient failure, the tree keeps working.
	if _, err := tr.Search(randQuery(rng)); err != nil {
		t.Fatalf("tree unusable after transient store error: %v", err)
	}
}

// TestSplitInfiniteEnlargements splits nodes whose every candidate's
// area enlargement overflows to +Inf in both groups: PickNext's
// difference is then NaN for every candidate, and the split must still
// place each one instead of indexing the candidate list at -1.
func TestSplitInfiniteEnlargements(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Spanning = true
	tr, err := NewInMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 1; i <= n; i++ {
		if err := tr.Insert(geom.Rect2(-1e300, -float64(i)*1e298, 1e300, 1e300), node.RecordID(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, err := tr.Count(geom.Rect2(-1e300, -1e301, 1e300, 1e300)); err != nil || got != n {
		t.Fatalf("Count = %d, %v; want %d", got, err, n)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
