package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
)

// TestCheckInvariantsEmptyTree pins that a freshly created tree — a single
// empty root leaf — already satisfies every invariant, in both spanning
// modes.
func TestCheckInvariantsEmptyTree(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			tr, err := NewInMemory(smallConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("empty tree violates invariants: %v", err)
			}
			if tr.Len() != 0 {
				t.Fatalf("empty tree Len() = %d", tr.Len())
			}
		})
	}
}

// TestCheckInvariantsAfterCoalesce drives a skeleton tree through enough
// deletes to trigger leaf coalescing and verifies the structure stays valid
// afterwards.
func TestCheckInvariantsAfterCoalesce(t *testing.T) {
	cfg := skeletonConfig(false)
	cfg.CoalesceEvery = 50
	tr, err := NewInMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Over-provision the skeleton so most leaves stay sparse, then load one
	// corner: deletes from the dense corner leave many near-empty adjacent
	// siblings for the coalescer.
	if err := tr.BuildSkeleton(Estimate{Tuples: 5000, Domain: domain1000()}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 600
	rects := make([]geom.Rect, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 120
		y := rng.Float64() * 120
		rects[i] = geom.Rect2(x, y, x, y)
		if err := tr.Insert(rects[i], node.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Delete(node.RecordID(i), rects[i]); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if got := tr.Stats().Coalesces; got == 0 {
		t.Fatal("expected the delete stream to trigger at least one coalesce")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after coalescing: %v", err)
	}
}

// TestInvariantErrorPath corrupts the leftmost leaf of a multi-level tree
// through the buffer pool and verifies CheckInvariants reports the full
// root-to-violation path with node IDs and levels.
func TestInvariantErrorPath(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 250; i++ {
		if err := tr.Insert(randBox(rng), node.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want >= 3 so the path has interior steps", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("pre-corruption: %v", err)
	}

	// Walk the leftmost spine down to a leaf, recording the expected path.
	var want []PathStep
	id := tr.root
	for {
		n, err := tr.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, PathStep{ID: id, Level: n.Level})
		if n.IsLeaf() {
			if len(n.Records) == 0 {
				t.Fatal("leftmost leaf is empty; cannot corrupt a record")
			}
			// Inflate a record far past every ancestor branch rect. The
			// rect stays valid (min <= max) so the codec round-trips it;
			// only the containment invariant breaks.
			n.Records[0].Rect = geom.Rect2(-9e6, -9e6, 9e6, 9e6)
			break
		}
		id = n.Branches[0].Child
	}

	err = tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants missed the corrupted leaf")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error type %T, want *InvariantError (err: %v)", err, err)
	}
	if len(ie.Path) != len(want) {
		t.Fatalf("path %v, want %v", ie.Path, want)
	}
	for i := range want {
		if ie.Path[i] != want[i] {
			t.Fatalf("path step %d = %v, want %v (full path %v)", i, ie.Path[i], want[i], ie.Path)
		}
	}
	// The path must start at the root at height-1 and descend one level per
	// step to the violating leaf.
	if ie.Path[0].ID != tr.root || ie.Path[0].Level != tr.Height()-1 {
		t.Fatalf("path starts at %v, want root %v@%d", ie.Path[0], tr.root, tr.Height()-1)
	}
	last := ie.Path[len(ie.Path)-1]
	if last.Level != 0 {
		t.Fatalf("path ends at %v, want a leaf (level 0)", last)
	}
	for i := 1; i < len(ie.Path); i++ {
		if ie.Path[i].Level != ie.Path[i-1].Level-1 {
			t.Fatalf("path levels not strictly descending: %v", ie.Path)
		}
	}
	msg := err.Error()
	if !strings.Contains(msg, "invariant violation at ") || !strings.Contains(msg, " -> ") {
		t.Fatalf("error message %q does not render the path", msg)
	}
	if !strings.Contains(msg, "exceeds parent branch rect") {
		t.Fatalf("error message %q does not name the violation", msg)
	}
	if errors.Unwrap(err) == nil {
		t.Fatal("InvariantError does not unwrap to the underlying violation")
	}
}

// TestInvariantErrorWrongLevel corrupts an interior branch's child pointer
// to aim at a node two levels down and checks the level invariant fires
// with the interior node on the path.
func TestInvariantErrorWrongLevel(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 250; i++ {
		if err := tr.Insert(randBox(rng), node.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want >= 3", tr.Height())
	}
	// Find a grandchild leaf and point a root branch directly at it.
	root, err := tr.pool.Get(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	child, err := tr.pool.Get(root.Branches[0].Child)
	if err != nil {
		t.Fatal(err)
	}
	root.Branches[0].Child = child.Branches[0].Child

	err = tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants missed the level skip")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error type %T, want *InvariantError", err)
	}
	if ie.Path[0].ID != tr.root {
		t.Fatalf("path %v does not start at the root %v", ie.Path, tr.root)
	}
	if !strings.Contains(err.Error(), "at level") {
		t.Fatalf("error %q does not describe the level violation", err)
	}
}
