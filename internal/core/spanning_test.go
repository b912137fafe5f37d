package core

import (
	"math/rand"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
)

// collectSpanning walks the tree and returns all spanning index records.
func collectSpanning(t *testing.T, tr *Tree) []node.Record {
	t.Helper()
	var out []node.Record
	var walk func(id page.ID)
	walk = func(id page.ID) {
		n, err := tr.fetch(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !n.IsLeaf() {
			out = append(out, n.Records...)
		}
		for _, b := range n.Branches {
			walk(b.Child)
		}
	}
	walk(tr.root)
	return out
}

// buildClusteredTree inserts three well-separated clusters of points so the
// tree has branches with predictable, disjoint regions. The middle cluster
// around (500, 500) sits strictly inside the root cover, so segments
// spanning it need no cutting.
func buildClusteredTree(t *testing.T, spanning bool) *Tree {
	t.Helper()
	tr, err := NewInMemory(smallConfig(spanning))
	if err != nil {
		t.Fatal(err)
	}
	id := node.RecordID(1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		var x, y float64
		switch i % 3 {
		case 0:
			x, y = 90+rng.Float64()*20, 90+rng.Float64()*20
		case 1:
			x, y = 490+rng.Float64()*20, 490+rng.Float64()*20
		default:
			x, y = 890+rng.Float64()*20, 890+rng.Float64()*20
		}
		if err := tr.Insert(geom.Point(x, y), id); err != nil {
			t.Fatal(err)
		}
		id++
	}
	if tr.Height() < 2 {
		t.Fatal("fixture tree did not grow past one level")
	}
	return tr
}

// TestSpanningPlacementFigure2 reproduces the Figure 2 situation: a segment
// spanning one child's region but not the whole tree is stored as a
// spanning index record on the parent, linked to the spanned branch.
func TestSpanningPlacementFigure2(t *testing.T) {
	tr := buildClusteredTree(t, true)
	// A horizontal segment crossing all of the middle cluster's x-range,
	// fully inside the root cover (no cutting needed), but nowhere near
	// spanning the full domain.
	seg := geom.Rect2(400, 500, 600, 500)
	segID := node.RecordID(10001)
	if err := tr.Insert(seg, segID); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	spans := collectSpanning(t, tr)
	found := false
	for _, rec := range spans {
		if rec.ID == segID {
			found = true
			if rec.Span == page.Nil {
				t.Error("spanning record without branch link")
			}
		}
	}
	if !found {
		t.Fatalf("segment spanning a child region was not stored as a spanning record; spans=%d", len(spans))
	}
	// It must still be found by searches.
	got := searchIDs(t, tr, geom.Rect2(495, 495, 520, 505))
	hasSeg := false
	for _, id := range got {
		if id == segID {
			hasSeg = true
		}
	}
	if !hasSeg {
		t.Error("spanning record not returned by search")
	}
}

// findSubRootCutSegment inspects the tree and constructs a segment that
// (a) spans no branch of the root, (b) routes to a non-leaf child C by
// least enlargement, (c) spans one of C's branches, and (d) extends beyond
// C's region — exactly the Figure 3 situation, which forces a cut.
// (Records spanning a branch of the root itself are stored on the root
// uncut, since the root has no parent region constraining them.)
func findSubRootCutSegment(t *testing.T, tr *Tree) geom.Rect {
	t.Helper()
	root, err := tr.fetch(tr.root, nil)
	if err != nil {
		t.Fatal(err)
	}
	rootCover := root.Cover(2)
	for ci, cb := range root.Branches {
		child, err := tr.fetch(cb.Child, nil)
		if err != nil {
			t.Fatal(err)
		}
		if child.IsLeaf() {
			continue
		}
		for _, b := range child.Branches {
			if b.Rect.Length(0) <= 0 || b.Rect.Max[0] >= cb.Rect.Max[0] {
				continue
			}
			seg := geom.Rect2(cb.Rect.Min[0]-60, b.Rect.Center(1), b.Rect.Max[0], b.Rect.Center(1))
			if spannedBranch(root, seg, rootCover) != -1 {
				continue // would be stored on the root without a cut
			}
			if chooseBranch(root, &seg) != ci {
				continue // would descend elsewhere
			}
			if !spansQualify(&seg, &b.Rect) {
				continue
			}
			return seg
		}
	}
	t.Fatal("fixture tree offers no sub-root cut opportunity")
	return geom.Rect{}
}

// TestCuttingFigure3 reproduces Figure 3: a segment that spans a node but
// extends beyond the node's parent is cut into a spanning portion and
// remnant portions, all sharing the record ID, and together covering the
// original segment.
func TestCuttingFigure3(t *testing.T) {
	tr := buildClusteredTree(t, true)
	seg := findSubRootCutSegment(t, tr)
	segID := node.RecordID(20001)
	if err := tr.Insert(seg, segID); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Cuts == 0 || st.Remnants == 0 {
		t.Fatalf("expected a cut, stats = %+v", st)
	}
	// All portions share the ID; their union must cover the original
	// segment and each portion must be inside it.
	var portions []geom.Rect
	err := tr.SearchFunc(geom.Rect2(0, 0, 1000, 1000), func(e Entry) bool {
		if e.ID == segID {
			portions = append(portions, e.Rect)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(portions) < 2 {
		t.Fatalf("expected >= 2 portions after cutting, got %d", len(portions))
	}
	cover := geom.EmptyRect(2)
	for _, p := range portions {
		if !seg.Contains(p) {
			t.Errorf("portion %v escapes original %v", p, seg)
		}
		cover.ExpandInPlace(p)
	}
	if !cover.Equal(seg) {
		t.Errorf("portions cover %v, want %v", cover, seg)
	}
	// Search deduplicates portions into one logical result.
	got := searchIDs(t, tr, seg)
	count := 0
	for _, id := range got {
		if id == segID {
			count++
		}
	}
	if count != 1 {
		t.Errorf("deduplicated search returned the record %d times", count)
	}
}

// TestDemotion verifies that when a branch region expands past a formerly
// spanning record, the record is demoted (or relinked) rather than left
// violating the span property — the insertion-algorithm enhancement of
// Section 3.1.1.
func TestDemotion(t *testing.T) {
	tr := buildClusteredTree(t, true)
	seg := geom.Rect2(400, 500, 600, 500)
	if err := tr.Insert(seg, 30001); err != nil {
		t.Fatal(err)
	}
	// Now grow the middle cluster far beyond the segment's x-range so the
	// spanned branch region expands past it; every insert must leave the
	// spanning invariant intact (revalidation demotes or relinks as
	// needed).
	rng := rand.New(rand.NewSource(6))
	id := node.RecordID(40000)
	for i := 0; i < 200; i++ {
		x := 200 + rng.Float64()*600 // well beyond [400,600]
		y := 490 + rng.Float64()*30
		if err := tr.Insert(geom.Point(x, y), id); err != nil {
			t.Fatal(err)
		}
		id++
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after expanding insert %d: %v", i, err)
		}
	}
	// The segment must still be findable.
	got := searchIDs(t, tr, geom.Rect2(500, 499, 510, 501))
	found := false
	for _, g := range got {
		if g == 30001 {
			found = true
		}
	}
	if !found {
		t.Error("segment lost after demotions")
	}
}

// TestPromotionOnSplit verifies Section 3.1.2: after splits, records that
// span one of the resulting nodes move to the parent as spanning records.
func TestPromotionOnSplit(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	// Insert long horizontal segments at distinct y values: as leaves
	// split, segments spanning the shrunken leaves must be promoted.
	for i := 0; i < 60; i++ {
		y := float64(i * 10)
		if err := tr.Insert(geom.Rect2(0, y, 1000, y), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Promotions == 0 {
		t.Fatalf("no promotions on long-segment workload: %+v", st)
	}
	if len(collectSpanning(t, tr)) == 0 {
		t.Fatal("no spanning records stored")
	}
	// All records remain findable.
	all := searchIDs(t, tr, geom.Rect2(0, 0, 1000, 1000))
	if len(all) != 60 {
		t.Fatalf("found %d records, want 60", len(all))
	}
}

// TestSpanningCapacityRespected floods one subtree with spanning records
// and checks the capacity invariant holds throughout.
func TestSpanningCapacityRespected(t *testing.T) {
	tr := buildClusteredTree(t, true)
	rng := rand.New(rand.NewSource(8))
	id := node.RecordID(50000)
	for i := 0; i < 300; i++ {
		// Segments spanning cluster A's x-range at cluster-A y values.
		y := 90 + rng.Float64()*20
		if err := tr.Insert(geom.Rect2(80, y, 120, y), id); err != nil {
			t.Fatal(err)
		}
		id++
		if i%50 == 49 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d spanning inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafPromotionAblation checks that disabling leaf promotion still
// yields a correct index (used by ablation A5).
func TestLeafPromotionAblation(t *testing.T) {
	cfg := smallConfig(true)
	cfg.LeafPromotion = false
	tr, err := NewInMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1500; i++ {
		r := randSegment(rng)
		id := node.RecordID(i + 1)
		if err := tr.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		m.insert(r, id)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 100; q++ {
		query := randQuery(rng)
		if !idsEqual(searchIDs(t, tr, query), m.search(query)) {
			t.Fatal("no-leaf-promotion tree diverged from model")
		}
	}
}

// TestRootPlacementUncut: a record spanning a branch of the root is stored
// on the root without cutting, even when it extends beyond the current
// root cover — the root has no parent region to stay inside.
func TestRootPlacementUncut(t *testing.T) {
	tr := buildClusteredTree(t, true)
	seg := geom.Rect2(-500, 500, 1500, 500) // far beyond the root cover
	if err := tr.Insert(seg, 4242); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Cuts; got != 0 {
		t.Fatalf("root placement cut the record (%d cuts)", got)
	}
	var portions int
	var stored geom.Rect
	err := tr.SearchFunc(geom.Rect2(-1000, 0, 2000, 1000), func(e Entry) bool {
		if e.ID == 4242 {
			portions++
			stored = e.Rect
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if portions != 1 {
		t.Fatalf("record stored in %d portions, want 1", portions)
	}
	if !stored.Equal(seg) {
		t.Fatalf("stored rect %v, want %v", stored, seg)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
