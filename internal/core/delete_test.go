package core

import (
	"fmt"
	"math/rand"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
)

func TestDeleteBasics(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			tr, err := NewInMemory(smallConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			r := geom.Rect2(10, 10, 20, 10)
			if err := tr.Insert(r, 1); err != nil {
				t.Fatal(err)
			}
			n, err := tr.Delete(1, r)
			if err != nil || n != 1 {
				t.Fatalf("Delete = %d, %v; want 1", n, err)
			}
			if tr.Len() != 0 {
				t.Fatalf("Len after delete = %d", tr.Len())
			}
			got := searchIDs(t, tr, geom.Rect2(0, 0, 1000, 1000))
			if len(got) != 0 {
				t.Fatalf("deleted record still found: %v", got)
			}
			// Deleting a missing record is a no-op returning 0.
			n, err = tr.Delete(99, geom.Rect2(0, 0, 1000, 1000))
			if err != nil || n != 0 {
				t.Fatalf("Delete missing = %d, %v", n, err)
			}
		})
	}
}

func TestDeleteCutRecordRemovesAllPortions(t *testing.T) {
	tr := buildClusteredTree(t, true)
	seg := findSubRootCutSegment(t, tr)
	if err := tr.Insert(seg, 777); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Cuts == 0 {
		t.Fatal("fixture did not cut the record")
	}
	n, err := tr.Delete(777, seg)
	if err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	var leftovers int
	err = tr.SearchFunc(geom.Rect2(0, 0, 1000, 1000), func(e Entry) bool {
		if e.ID == 777 {
			leftovers++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if leftovers != 0 {
		t.Fatalf("%d portions of a cut record survived deletion", leftovers)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteChurnMatchesModel(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			tr, err := NewInMemory(smallConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			m := newModel()
			nextID := node.RecordID(1)
			live := []node.RecordID{}
			for step := 0; step < 3000; step++ {
				if len(live) == 0 || rng.Intn(3) != 0 {
					r := randSegment(rng)
					if err := tr.Insert(r, nextID); err != nil {
						t.Fatalf("step %d insert: %v", step, err)
					}
					m.insert(r, nextID)
					live = append(live, nextID)
					nextID++
				} else {
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					hint := m.rects[id]
					n, err := tr.Delete(id, hint)
					if err != nil {
						t.Fatalf("step %d delete: %v", step, err)
					}
					if n != 1 {
						t.Fatalf("step %d delete of live record returned %d", step, n)
					}
					m.delete(id)
				}
				if step%500 == 499 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if tr.Len() != len(m.rects) {
						t.Fatalf("step %d: Len %d != model %d", step, tr.Len(), len(m.rects))
					}
					for q := 0; q < 20; q++ {
						query := randQuery(rng)
						if !idsEqual(searchIDs(t, tr, query), m.search(query)) {
							t.Fatalf("step %d: search diverged on %v", step, query)
						}
					}
				}
			}
		})
	}
}

func TestDeleteEverythingCollapsesTree(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	rects := map[node.RecordID]geom.Rect{}
	for i := 0; i < 800; i++ {
		r := randSegment(rng)
		id := node.RecordID(i + 1)
		if err := tr.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		rects[id] = r
	}
	if tr.Height() < 3 {
		t.Fatalf("fixture height %d, want >= 3", tr.Height())
	}
	for id, r := range rects {
		if _, err := tr.Delete(id, r); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d after deleting everything, want 1 (collapsed root)", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree remains usable.
	if err := tr.Insert(geom.Point(1, 1), 9999); err != nil {
		t.Fatal(err)
	}
	if got := searchIDs(t, tr, geom.Rect2(0, 0, 2, 2)); !idsEqual(got, []node.RecordID{9999}) {
		t.Fatalf("post-collapse insert lost: %v", got)
	}
}

func TestDeleteWithPartialHintLeavesOthers(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	// Two records, distinct IDs, same area.
	if err := tr.Insert(geom.Rect2(10, 10, 20, 20), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.Rect2(10, 10, 20, 20), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Delete(1, geom.Rect2(0, 0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	got := searchIDs(t, tr, geom.Rect2(0, 0, 100, 100))
	if !idsEqual(got, []node.RecordID{2}) {
		t.Fatalf("wrong record deleted: %v", got)
	}
}

func TestDeleteValidatesHint(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Delete(1, geom.Rect{Min: []float64{1}, Max: []float64{0}}); err == nil {
		t.Error("invalid hint accepted")
	}
}

func TestDeleteWhereMatchesModel(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			rng := rand.New(rand.NewSource(501))
			tr, err := NewInMemory(smallConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			m := newModel()
			for i := 0; i < 2000; i++ {
				r := randSegment(rng)
				id := node.RecordID(i + 1)
				if err := tr.Insert(r, id); err != nil {
					t.Fatal(err)
				}
				m.insert(r, id)
			}
			// Remove everything in the left third of the domain.
			region := geom.Rect2(0, 0, 333, 1000)
			want := len(m.search(region))
			got, err := tr.DeleteWhere(region, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("DeleteWhere removed %d, model says %d", got, want)
			}
			for _, id := range m.search(region) {
				m.delete(id)
			}
			if tr.Len() != len(m.rects) {
				t.Fatalf("Len = %d, model %d", tr.Len(), len(m.rects))
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 100; q++ {
				query := randQuery(rng)
				if !idsEqual(searchIDs(t, tr, query), m.search(query)) {
					t.Fatalf("post-DeleteWhere search diverged on %v", query)
				}
			}
		})
	}
}

func TestDeleteWherePredicate(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	// Even IDs in a cluster; odd IDs elsewhere.
	for i := 0; i < 100; i++ {
		var r geom.Rect
		if i%2 == 0 {
			r = geom.Point(float64(100+i), 100)
		} else {
			r = geom.Point(float64(100+i), 900)
		}
		if err := tr.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete only even-ID records from the whole domain.
	n, err := tr.DeleteWhere(geom.Rect2(0, 0, 1000, 1000), func(e Entry) bool {
		return e.ID%2 == 1 // ids are i+1, so odd IDs are the i%2==0 cluster
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("predicate delete removed %d, want 50", n)
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	left, err := tr.Count(geom.Rect2(0, 0, 1000, 500))
	if err != nil || left != 0 {
		t.Fatalf("low cluster survivors: %d, %v", left, err)
	}
}

func TestDeleteWhereRemovesAllPortionsOfCutRecords(t *testing.T) {
	tr := buildClusteredTree(t, true)
	seg := findSubRootCutSegment(t, tr)
	if err := tr.Insert(seg, 888); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Cuts == 0 {
		t.Fatal("fixture did not cut")
	}
	// Delete via a query touching only part of the segment; every portion
	// must go.
	touch := geom.Rect2(seg.Max[0]-1, seg.Min[1], seg.Max[0], seg.Min[1])
	n, err := tr.DeleteWhere(touch, func(e Entry) bool { return e.ID == 888 })
	if err != nil || n != 1 {
		t.Fatalf("DeleteWhere = %d, %v", n, err)
	}
	leftovers := 0
	err = tr.SearchFunc(geom.Rect2(-100, 0, 1100, 1000), func(e Entry) bool {
		if e.ID == 888 {
			leftovers++
		}
		return true
	})
	if err != nil || leftovers != 0 {
		t.Fatalf("%d portions survived, err=%v", leftovers, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWhereEmptyAndValidation(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.DeleteWhere(geom.Rect2(0, 0, 10, 10), nil)
	if err != nil || n != 0 {
		t.Fatalf("empty DeleteWhere = %d, %v", n, err)
	}
	if _, err := tr.DeleteWhere(geom.Rect{Min: []float64{1}, Max: []float64{0}}, nil); err == nil {
		t.Error("invalid query accepted")
	}
}

// TestDismantleReinsertsEachSurvivorOnce pins what Stats.Reinserts counts:
// a delete that leaves a leaf underfull dismantles it, and each of its k
// surviving records is reinserted once, so the counter rises by exactly k
// when the reinsertions cause no split.
func TestDismantleReinsertsEachSurvivorOnce(t *testing.T) {
	tr, err := NewInMemory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*tr.leafCap(); i++ {
		x := float64(i)
		if err := tr.Insert(geom.Rect2(x, 0, x+0.5, 0.5), node.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leafRecords(t, tr)
	if tr.Height() != 2 || len(leaves) < 3 {
		t.Fatalf("fixture: height %d with %d leaves, want height 2 and at least 3 leaves", tr.Height(), len(leaves))
	}
	// Thin every leaf to the minimum fill, so the survivors of the one
	// dismantled below fit beside any sibling without a split.
	for _, recs := range leaves {
		for _, rec := range recs[tr.minLeaf():] {
			if n, err := tr.Delete(rec.ID, rec.Rect); err != nil || n != 1 {
				t.Fatalf("Delete(%d) = %d, %v", rec.ID, n, err)
			}
		}
	}
	if got := len(leafRecords(t, tr)); got != len(leaves) {
		t.Fatalf("thinning changed the leaf count %d -> %d", len(leaves), got)
	}

	victim := leaves[0][0]
	k := tr.minLeaf() - 1
	if k < 1 {
		t.Fatalf("fixture: minLeaf %d leaves no survivors", tr.minLeaf())
	}
	before := tr.Stats()
	if n, err := tr.Delete(victim.ID, victim.Rect); err != nil || n != 1 {
		t.Fatalf("Delete(%d) = %d, %v", victim.ID, n, err)
	}
	after := tr.Stats()
	if splits := after.LeafSplits + after.NonLeafSplits - before.LeafSplits - before.NonLeafSplits; splits != 0 {
		t.Fatalf("fixture: the delete caused %d splits", splits)
	}
	if got := len(leafRecords(t, tr)); got != len(leaves)-1 {
		t.Fatalf("leaf count %d after the delete, want %d (one leaf dismantled)", got, len(leaves)-1)
	}
	if got := after.Reinserts - before.Reinserts; got != uint64(k) {
		t.Fatalf("Reinserts rose by %d, want %d (one per survivor)", got, k)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// leafRecords returns the records of each leaf under a height-2 tree's
// root, in branch order.
func leafRecords(t *testing.T, tr *Tree) [][]node.Record {
	t.Helper()
	root, err := tr.fetch(tr.root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.done(root.ID, false)
	var out [][]node.Record
	for _, b := range root.Branches {
		leaf, err := tr.fetch(b.Child, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]node.Record(nil), leaf.Records...))
		tr.done(leaf.ID, false)
	}
	return out
}
