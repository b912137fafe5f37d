// Package geom provides K-dimensional interval and rectangle arithmetic for
// segment indexes.
//
// A Rect is a closed axis-aligned box in K >= 1 dimensions. Degenerate
// extents (Min[d] == Max[d]) are legal and represent points or lower
// dimensional intervals; the paper's "interval data" (a time interval crossed
// with a point attribute) is a Rect whose Y extent is degenerate.
//
// The package implements the paper's span relation (Section 2): interval I1
// spans interval I2 iff I1.low <= I2.low and I1.high >= I2.high, extended to
// rectangles per dimension, and the segment-cutting decomposition of Section
// 3.1.1 (a record is cut into a spanning portion clipped to an enclosing
// region plus remnant portions that tile the remainder).
package geom

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Rect is a closed axis-aligned rectangle in len(Min) dimensions.
// Min[d] <= Max[d] must hold in every dimension for a valid Rect.
type Rect struct {
	Min, Max []float64
}

// ErrDimMismatch is returned when two rectangles of different dimensionality
// are combined.
var ErrDimMismatch = errors.New("geom: dimension mismatch")

// NewRect builds a validated Rect from min/max corner coordinates.
// The slices are copied.
func NewRect(min, max []float64) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, ErrDimMismatch
	}
	if len(min) == 0 {
		return Rect{}, errors.New("geom: zero-dimensional rect")
	}
	for d := range min {
		if math.IsNaN(min[d]) || math.IsNaN(max[d]) {
			return Rect{}, fmt.Errorf("geom: NaN coordinate in dimension %d", d)
		}
		if min[d] > max[d] {
			return Rect{}, fmt.Errorf("geom: inverted extent in dimension %d: [%g, %g]", d, min[d], max[d])
		}
	}
	r := Rect{Min: append([]float64(nil), min...), Max: append([]float64(nil), max...)}
	return r, nil
}

// MustRect is NewRect that panics on invalid input. Intended for tests,
// examples, and literals whose validity is evident at the call site.
//
//seglint:allow nodepanic — Must-style constructor, panics by documented contract
func MustRect(min, max []float64) Rect {
	r, err := NewRect(min, max)
	if err != nil {
		panic(err)
	}
	return r
}

// Rect2 builds a 2-dimensional rectangle [xlo, xhi] x [ylo, yhi].
// It panics on inverted extents; use NewRect for checked construction.
func Rect2(xlo, ylo, xhi, yhi float64) Rect {
	return MustRect([]float64{xlo, ylo}, []float64{xhi, yhi})
}

// Point returns the degenerate rectangle containing exactly the given point.
func Point(coords ...float64) Rect {
	return MustRect(coords, coords)
}

// Interval1 builds a 1-dimensional interval [lo, hi].
func Interval1(lo, hi float64) Rect {
	return MustRect([]float64{lo}, []float64{hi})
}

// Dims reports the dimensionality of r. A zero Rect has zero dimensions.
func (r Rect) Dims() int { return len(r.Min) }

// Valid reports whether r is a well-formed rectangle: at least one
// dimension, matching corner lengths, no NaNs, and Min <= Max everywhere.
func (r Rect) Valid() bool {
	if len(r.Min) == 0 || len(r.Min) != len(r.Max) {
		return false
	}
	for d := range r.Min {
		if math.IsNaN(r.Min[d]) || math.IsNaN(r.Max[d]) || r.Min[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of r that shares no storage with r.
func (r Rect) Clone() Rect {
	return Rect{
		Min: append([]float64(nil), r.Min...),
		Max: append([]float64(nil), r.Max...),
	}
}

// CopyInto copies r's corners into the 2K floats at dst[off:off+2K] and
// returns a Rect viewing that storage. It is the arena-materialization
// primitive of the query path: result rects are packed into one
// caller-growable backing array instead of costing two heap slices each.
// The capped views keep an append through the result from spilling into
// the neighboring rect's storage.
func (r Rect) CopyInto(dst []float64, off int) Rect {
	k := len(r.Min)
	out := Rect{Min: dst[off : off+k : off+k], Max: dst[off+k : off+2*k : off+2*k]}
	copy(out.Min, r.Min)
	copy(out.Max, r.Max)
	return out
}

// Equal reports whether r and s have identical corners. Equality is exact
// by design: the tree uses it to detect branch-rectangle changes, and a
// tolerance here would let a cover drift past its parent rectangle while
// containment checks (which are exact) still fail. Use Feq for approximate
// coordinate comparisons.
func (r Rect) Equal(s Rect) bool {
	if r.Dims() != s.Dims() {
		return false
	}
	for d := range r.Min {
		if r.Min[d] != s.Min[d] || r.Max[d] != s.Max[d] {
			return false
		}
	}
	return true
}

// Area returns the K-dimensional volume of r. Degenerate rectangles have
// zero area.
func (r Rect) Area() float64 {
	a := 1.0
	for d := range r.Min {
		a *= r.Max[d] - r.Min[d]
	}
	return a
}

// Margin returns the sum of the edge lengths of r (the K-dimensional
// perimeter analogue used by some split heuristics).
func (r Rect) Margin() float64 {
	m := 0.0
	for d := range r.Min {
		m += r.Max[d] - r.Min[d]
	}
	return m
}

// Length returns the extent of r in dimension d.
func (r Rect) Length(d int) float64 { return r.Max[d] - r.Min[d] }

// Center returns the centroid coordinate of r in dimension d.
func (r Rect) Center(d int) float64 { return (r.Min[d] + r.Max[d]) / 2 }

// LongestDim returns the dimension in which r is widest, breaking ties in
// favor of the lower dimension index.
func (r Rect) LongestDim() int {
	best, bestLen := 0, r.Length(0)
	for d := 1; d < r.Dims(); d++ {
		if l := r.Length(d); l > bestLen {
			best, bestLen = d, l
		}
	}
	return best
}

// Union returns the minimal bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	u := r.Clone()
	u.ExpandInPlace(s)
	return u
}

// ExpandInPlace grows r (in place) to the minimal bounding rectangle of r
// and s. r must already be allocated with the same dimensionality as s.
func (r *Rect) ExpandInPlace(s Rect) {
	for d := range r.Min {
		if s.Min[d] < r.Min[d] {
			r.Min[d] = s.Min[d]
		}
		if s.Max[d] > r.Max[d] {
			r.Max[d] = s.Max[d]
		}
	}
}

// Enlargement returns the increase in area of r needed to fully enclose s.
// It is the quantity minimized by Guttman's ChooseLeaf.
func (r *Rect) Enlargement(s *Rect) float64 {
	enlarged := 1.0
	for d := range r.Min {
		lo, hi := r.Min[d], r.Max[d]
		if s.Min[d] < lo {
			lo = s.Min[d]
		}
		if s.Max[d] > hi {
			hi = s.Max[d]
		}
		enlarged *= hi - lo
	}
	return enlarged - r.Area()
}

// Intersects reports whether r and s share at least one point. Touching
// boundaries count as intersection (closed rectangles).
func (r Rect) Intersects(s Rect) bool {
	for d := range r.Min {
		if s.Max[d] < r.Min[d] || s.Min[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// NextOverlap returns the index of the first entry at or after entry from
// in the run keys that intersects r, or -1 when none does. Entries sit at
// stride words, each starting with a rectangle of r's dimensionality k laid
// out [min₀…min_{k−1}, max₀…max_{k−1}]; the stride − 2k words after it
// (a page image's IDs) are never read. The test is Intersects'
// closed-interval test, so touching edges overlap; it is the one kernel a
// reader tests node entries with, one call per hit rather than per entry.
func (r Rect) NextOverlap(keys []float64, stride, from int) int {
	k := len(r.Min)
	lo, hi := r.Min, r.Max[:k]
	s := 2 * k
	// Most entries fail in the first dimension; testing it from registers
	// before the loop over the rest is what makes the generic kernel
	// nearly as fast as a 2-D unrolled one (EXPERIMENTS.md).
	lo0, hi0 := lo[0], hi[0]
	for i, o := from, from*stride; o+stride <= len(keys); i, o = i+1, o+stride {
		e := keys[o : o+s : o+s]
		if hi0 < e[0] || lo0 > e[k] {
			continue
		}
		d := 1
		for ; d < k; d++ {
			if hi[d] < e[d] || lo[d] > e[k+d] {
				break
			}
		}
		if d == k {
			return i
		}
	}
	return -1
}

// Intersection returns r ∩ s and whether it is non-empty. When non-empty,
// the result is a valid (possibly degenerate) rectangle.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	out := r.Clone()
	for d := range out.Min {
		if s.Min[d] > out.Min[d] {
			out.Min[d] = s.Min[d]
		}
		if s.Max[d] < out.Max[d] {
			out.Max[d] = s.Max[d]
		}
	}
	return out, true
}

// OverlapArea returns the area of r ∩ s (zero when disjoint or touching).
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for d := range r.Min {
		lo := math.Max(r.Min[d], s.Min[d])
		hi := math.Min(r.Max[d], s.Max[d])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Contains reports whether s lies entirely inside r (boundaries included).
func (r Rect) Contains(s Rect) bool {
	for d := range r.Min {
		if s.Min[d] < r.Min[d] || s.Max[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the point p lies inside r.
func (r Rect) ContainsPoint(p []float64) bool {
	for d := range r.Min {
		if p[d] < r.Min[d] || p[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// SpansDim reports whether r spans s in dimension d using the paper's
// definition: r.Min[d] <= s.Min[d] && r.Max[d] >= s.Max[d].
func (r Rect) SpansDim(s Rect, d int) bool {
	return r.Min[d] <= s.Min[d] && r.Max[d] >= s.Max[d]
}

// Spans reports whether r spans s in every dimension, i.e. r contains s.
// For 1-dimensional intervals this is exactly the paper's span relation.
func (r Rect) Spans(s Rect) bool { return r.Contains(s) }

// SpansAnyDim reports whether r spans s in at least one dimension. This is
// the paper's qualification test for a K-dimensional spanning index record
// (Section 3.1.1: a rectangle qualifies "if it spans B's region in either or
// both dimensions").
func (r Rect) SpansAnyDim(s Rect) bool {
	for d := range r.Min {
		if r.SpansDim(s, d) {
			return true
		}
	}
	return false
}

// Clip returns the portion of r inside region, and whether it is non-empty.
// This is the "spanning portion" of the paper's cutting operation.
func (r Rect) Clip(region Rect) (Rect, bool) {
	return r.Intersection(region)
}

// Remnants decomposes r \ region into at most 2K disjoint rectangles (the
// "remnant portions" of Section 3.1.1, Figure 3). The returned pieces,
// together with the clip of r to region, exactly tile r with
// disjoint interiors. When r and region are disjoint, the sole remnant is r
// itself.
func (r Rect) Remnants(region Rect) []Rect {
	if region.Contains(r) {
		return nil
	}
	if !r.Intersects(region) {
		return []Rect{r.Clone()}
	}
	var out []Rect
	rem := r.Clone()
	for d := range rem.Min {
		if rem.Min[d] < region.Min[d] {
			piece := rem.Clone()
			piece.Max[d] = region.Min[d]
			out = append(out, piece)
			rem.Min[d] = region.Min[d]
		}
		if rem.Max[d] > region.Max[d] {
			piece := rem.Clone()
			piece.Min[d] = region.Max[d]
			out = append(out, piece)
			rem.Max[d] = region.Max[d]
		}
	}
	return out
}

// AspectRatio returns the horizontal-to-vertical aspect ratio of a
// 2-dimensional rectangle: extent in dimension 0 divided by extent in
// dimension 1. Degenerate denominators yield +Inf; 0/0 yields 1.
func (r Rect) AspectRatio() float64 {
	w, h := r.Length(0), r.Length(1)
	if Fzero(h) {
		if Fzero(w) {
			return 1
		}
		return math.Inf(1)
	}
	return w / h
}

// String renders r as [lo,hi]x[lo,hi]... for diagnostics.
func (r Rect) String() string {
	var b strings.Builder
	for d := range r.Min {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "[%g,%g]", r.Min[d], r.Max[d])
	}
	return b.String()
}

// EmptyRect returns the identity element for Union in dims dimensions: a
// rectangle with inverted infinite extents. Expanding it with any valid
// rectangle yields that rectangle. It is not Valid() on its own.
func EmptyRect(dims int) Rect {
	r := Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
	for d := 0; d < dims; d++ {
		r.Min[d] = math.Inf(1)
		r.Max[d] = math.Inf(-1)
	}
	return r
}

// IsEmptyMarker reports whether r is the EmptyRect identity (or has never
// been expanded).
func (r Rect) IsEmptyMarker() bool {
	return r.Dims() > 0 && r.Min[0] > r.Max[0]
}
