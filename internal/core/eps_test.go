package core

import (
	"math"
	"slices"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
)

// The engine's tie tests compare coordinates and areas within geom.Eps.
// Each test below feeds one of them values that are equal within Eps but
// not bitwise, so it fails if that comparison becomes a raw ==.

// TestChooseBranchTieWithinEps: branch 1 needs an enlargement one rounding
// step above branch 0's and has the smaller area, so the area tie-break
// picks it.
func TestChooseBranchTieWithinEps(t *testing.T) {
	n := &node.Node{Level: 1, Branches: []node.Branch{
		{Rect: geom.Rect2(0, 0, 2, 1), Child: 1},
		{Rect: geom.Rect2(math.Nextafter(3, 4), 0, 4, 1), Child: 2},
	}}
	rect := geom.Rect2(2, 0, 3, 1)
	e0 := n.Branches[0].Rect.Enlargement(&rect)
	e1 := n.Branches[1].Rect.Enlargement(&rect)
	if e0 == e1 || !geom.Feq(e0, e1) || e1 < e0 {
		t.Fatalf("enlargements %v and %v: the test needs branch 1's a rounding step above branch 0's", e0, e1)
	}
	if got := chooseBranch(n, &rect); got != 1 {
		t.Fatalf("chooseBranch = %d, want 1 (enlargements tie within Eps, branch 1 is smaller)", got)
	}
}

// TestQuadraticSplitTieWithinEps: the third rectangle contains both seeds,
// so its enlargements round to the same value, and the seeds' areas differ
// by one rounding step; the tie goes to the smaller group, which is A.
func TestQuadraticSplitTieWithinEps(t *testing.T) {
	rects := []geom.Rect{
		geom.Rect2(0, 0, 1, 1),
		geom.Rect2(5, 0, math.Nextafter(6, 0), 1),
		geom.Rect2(-1000, -1000, 1000, 1000),
	}
	a, b := rects[0].Area(), rects[1].Area()
	if a == b || !geom.Feq(a, b) {
		t.Fatalf("seed areas %v and %v: the test needs them equal within Eps but not bitwise", a, b)
	}
	groupA, groupB := quadraticSplit(rects, 1)
	if !slices.Equal(groupA, []int{0, 2}) || !slices.Equal(groupB, []int{1}) {
		t.Fatalf("quadraticSplit = %v | %v, want [0 2] | [1]", groupA, groupB)
	}
}

// TestRegionsAdjacentWithinEps: skeleton regions whose shared face or
// touching edge differs only by rounding are adjacent. One case per
// comparison: equal mins, equal maxes, a's max touching b's min, and b's
// max touching a's min.
func TestRegionsAdjacentWithinEps(t *testing.T) {
	lo, hi := 0.3, math.Nextafter(0.3, 1) // equal within Eps, not bitwise
	for _, c := range []struct {
		name string
		a, b geom.Rect
	}{
		{"mins", geom.Rect2(0, lo, 1, 1), geom.Rect2(1, hi, 2, 1)},
		{"maxes", geom.Rect2(0, 0, 1, lo), geom.Rect2(1, 0, 2, hi)},
		{"a.max touches b.min", geom.Rect2(0, 0, lo, 1), geom.Rect2(hi, 0, 1, 1)},
		{"b.max touches a.min", geom.Rect2(hi, 0, 1, 1), geom.Rect2(0, 0, lo, 1)},
	} {
		if !regionsAdjacent(c.a, c.b) {
			t.Errorf("%s: regionsAdjacent(%v, %v) = false, want true", c.name, c.a, c.b)
		}
	}
}
