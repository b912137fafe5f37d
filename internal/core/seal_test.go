package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/workload"
)

// Every node a published state can reach is sealed: readers test entries on
// its packed run alone. These tests pin the invariant's two guards and the
// allocation cost of sealing at publish.

// sealTestTree is a small SR-Tree several levels deep.
func sealTestTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want >= 3", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCheckInvariantsCatchesRepointedRect re-points one leaf record's Rect
// header after sealing, to a rectangle that breaks no other invariant, and
// expects CheckInvariants to report that the packed run disagrees.
func TestCheckInvariantsCatchesRepointedRect(t *testing.T) {
	tr := sealTestTree(t)
	var leaf page.ID
	for _, id := range nodeIDs(t, tr) {
		n, err := tr.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		dirty := false
		if leaf == page.Nil && n.IsLeaf() {
			for i := range n.Records {
				if r := n.Records[i].Rect; r.Min[0] < r.Max[0] {
					// A point at the record's corner stays inside every
					// cover the record was inside.
					n.Records[i].Rect = geom.Point(r.Min...)
					leaf, dirty = id, true
					break
				}
			}
		}
		if err := tr.pool.Unpin(id, dirty); err != nil {
			t.Fatal(err)
		}
	}
	if leaf == page.Nil {
		t.Fatal("no leaf record with a positive extent")
	}
	err := tr.CheckInvariants()
	var ie *InvariantError
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "packed key") {
		t.Fatalf("CheckInvariants = %v, want a packed-key mismatch", err)
	}
	if last := ie.Path[len(ie.Path)-1]; last.ID != leaf {
		t.Fatalf("violation reported at %v, want leaf %v", last, leaf)
	}
}

// TestReaderRejectsUnsealedNode swaps the published root for an unsealed
// header clone of itself: every query must fail rather than answer.
func TestReaderRejectsUnsealedNode(t *testing.T) {
	tr := sealTestTree(t)
	q := geom.Rect2(0, 0, workload.DomainHi, workload.DomainHi)
	if n, err := tr.Count(q); err != nil || n != tr.Len() {
		t.Fatalf("Count before = (%d, %v), want (%d, nil)", n, err, tr.Len())
	}
	root, err := tr.pool.Get(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	*root = root.CloneHeaders()
	if err := tr.pool.Unpin(tr.root, false); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "not sealed") {
		t.Fatalf("CheckInvariants = %v, want an unsealed node", err)
	}
	reads := map[string]func() error{
		"Search":           func() error { _, err := tr.Search(q); return err },
		"SearchFunc":       func() error { return tr.SearchFunc(q, func(Entry) bool { return true }) },
		"Count":            func() error { _, err := tr.Count(q); return err },
		"SearchContaining": func() error { _, err := tr.SearchContaining(geom.Point(1, 1)); return err },
	}
	for name, read := range reads {
		if err := read(); !errors.Is(err, errUnsealed) {
			t.Errorf("%s over an unsealed root = %v, want errUnsealed", name, err)
		}
	}
}
