package geom

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fuzzRect builds a valid 2-D rectangle from four arbitrary float64s:
// non-finite inputs are rejected, magnitudes clamped to ±1e6 (keeping area
// arithmetic well inside float64 precision), and coordinates ordered per
// dimension.
func fuzzRect(a, b, c, d float64) (Rect, bool) {
	vals := [4]float64{a, b, c, d}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Rect{}, false
		}
		if v > 1e6 {
			vals[i] = 1e6
		} else if v < -1e6 {
			vals[i] = -1e6
		}
	}
	xlo, xhi := vals[0], vals[2]
	if xlo > xhi {
		xlo, xhi = xhi, xlo
	}
	ylo, yhi := vals[1], vals[3]
	if ylo > yhi {
		ylo, yhi = yhi, ylo
	}
	return Rect2(xlo, ylo, xhi, yhi), true
}

// FuzzRectOps checks metamorphic properties of the rectangle algebra that
// the tree's correctness rests on: union/intersection containment and
// symmetry, overlap-area consistency, and — the paper's cutting operation —
// that Clip plus Remnants exactly tile the clipped rectangle with disjoint
// pieces.
func FuzzRectOps(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 5.0, 5.0, 15.0, 15.0) // partial overlap
	f.Add(0.0, 0.0, 10.0, 10.0, 2.0, 2.0, 4.0, 4.0)   // containment
	f.Add(0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 6.0, 6.0)     // disjoint
	f.Add(0.0, 0.0, 10.0, 0.0, 3.0, 0.0, 7.0, 0.0)    // degenerate segments
	f.Add(-3.0, -3.0, 3.0, 3.0, -3.0, -3.0, 3.0, 3.0) // identical
	f.Add(0.0, 0.0, 8.0, 8.0, 8.0, 0.0, 16.0, 8.0)    // touching edge
	f.Add(-1e6, -1e6, 1e6, 1e6, -0.5, -0.5, 0.5, 0.5) // extreme scale gap
	f.Fuzz(func(t *testing.T, a1, b1, c1, d1, a2, b2, c2, d2 float64) {
		r, ok := fuzzRect(a1, b1, c1, d1)
		if !ok {
			t.Skip()
		}
		s, ok := fuzzRect(a2, b2, c2, d2)
		if !ok {
			t.Skip()
		}

		// Union: symmetric, contains both operands, and never shrinks.
		u := r.Union(s)
		if !u.Equal(s.Union(r)) {
			t.Fatalf("Union not symmetric: %v vs %v", u, s.Union(r))
		}
		if !u.Contains(r) || !u.Contains(s) {
			t.Fatalf("Union %v does not contain operands %v, %v", u, r, s)
		}
		if u.Area() < r.Area() || u.Area() < s.Area() {
			t.Fatalf("Union area %g below operand areas %g, %g", u.Area(), r.Area(), s.Area())
		}
		if r.Contains(s) && !u.Equal(r) {
			t.Fatalf("r contains s but Union %v != r %v", u, r)
		}

		// Enlargement is never negative.
		if r.Enlargement(&s) < 0 {
			t.Fatalf("Enlargement(%v, %v) = %g < 0", r, s, r.Enlargement(&s))
		}

		// Intersection: symmetric with Intersects, contained in both, and
		// its area matches OverlapArea.
		iv, has := r.Intersection(s)
		if has != r.Intersects(s) || r.Intersects(s) != s.Intersects(r) {
			t.Fatalf("Intersects/Intersection disagree for %v, %v", r, s)
		}
		if has {
			if !r.Contains(iv) || !s.Contains(iv) {
				t.Fatalf("intersection %v escapes operands %v, %v", iv, r, s)
			}
			if !Feq(iv.Area(), r.OverlapArea(s)) {
				t.Fatalf("OverlapArea %g != intersection area %g", r.OverlapArea(s), iv.Area())
			}
		} else if r.OverlapArea(s) != 0 {
			t.Fatalf("disjoint rects report OverlapArea %g", r.OverlapArea(s))
		}

		// Cutting (paper Section 3.1.1): the clip of r to s plus the
		// remnants of r outside s tile r exactly — areas sum to Area(r),
		// pieces stay inside r, remnant interiors are pairwise disjoint and
		// disjoint from s.
		rem := r.Remnants(s)
		if len(rem) > 2*r.Dims() {
			t.Fatalf("%d remnants, max is 2K=%d", len(rem), 2*r.Dims())
		}
		total := 0.0
		if clip, ok := r.Clip(s); ok {
			total += clip.Area()
			if !r.Contains(clip) {
				t.Fatalf("clip %v escapes r %v", clip, r)
			}
		}
		for i, p := range rem {
			if !p.Valid() {
				t.Fatalf("remnant %d invalid: %v", i, p)
			}
			if !r.Contains(p) {
				t.Fatalf("remnant %v escapes r %v", p, r)
			}
			if p.OverlapArea(s) > 0 {
				t.Fatalf("remnant %v overlaps the cutting region %v", p, s)
			}
			for j := i + 1; j < len(rem); j++ {
				if p.OverlapArea(rem[j]) > 0 {
					t.Fatalf("remnants %v and %v overlap", p, rem[j])
				}
			}
			total += p.Area()
		}
		if !Feq(total, r.Area()) {
			t.Fatalf("clip+remnant areas %g do not tile r (area %g)", total, r.Area())
		}
		if s.Contains(r) && len(rem) != 0 {
			t.Fatalf("r inside region but %d remnants returned", len(rem))
		}
	})
}

// overlapPalette is the coordinate alphabet FuzzPackedOverlap draws edge
// cases from: signed zeros, infinities, the largest finite magnitudes and
// small integers that make touching edges and points likely.
var overlapPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.5, 3,
}

// overlapFloats decodes fuzz bytes into coordinates: a byte below
// len(overlapPalette) picks a palette value, any other byte is followed by
// eight bytes of raw float64 bits.
func overlapFloats(data []byte) []float64 {
	var out []float64
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		if int(tag) < len(overlapPalette) {
			out = append(out, overlapPalette[tag])
			continue
		}
		if len(data) < 8 {
			break
		}
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// encodeOverlap is overlapFloats' inverse for seed inputs.
func encodeOverlap(vals ...float64) []byte {
	var out []byte
	for _, v := range vals {
		idx := -1
		for i, p := range overlapPalette {
			if math.Float64bits(p) == math.Float64bits(v) {
				idx = i
			}
		}
		if idx >= 0 {
			out = append(out, byte(idx))
			continue
		}
		out = append(out, 0xff)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// idFillers are bit patterns FuzzPackedOverlap writes into the words
// between keys, where a page image keeps its IDs. Read as a coordinate,
// NaN would accept an entry its key rejects and an infinity would reject
// or accept one, so a kernel that read such a word would give different
// hits under different fillers. nil stands for the fuzz input's own
// floats, cycled: arbitrary bits.
var idFillers = []*uint64{
	ptr(math.Float64bits(math.NaN())),
	ptr(math.Float64bits(math.Inf(1))),
	ptr(math.Float64bits(math.Inf(-1))),
	ptr(0xfff0_0000_0000_0001), // a signalling NaN
	nil,
}

func ptr(v uint64) *uint64 { return &v }

// FuzzPackedOverlap checks that the kernel a reader tests node entries
// with, NextOverlap, finds exactly the entries Intersects accepts, in
// order, for k = 1…4 and strides 2k, 2k+1 and 2k+2 (a bare key run, a
// page image's branch run, its record run): the query is the first 2k
// decoded floats, every further 2k floats one entry's key. The words
// after each key are filled from idFillers, and every filling must give
// the same hits: the kernel never reads an ID word as a key. Inputs are
// taken raw — unordered corners, NaN and all — so the two must agree on
// every input, not only on valid rectangles.
func FuzzPackedOverlap(f *testing.F) {
	inf, big := math.Inf(1), math.MaxFloat64
	negZero := math.Copysign(0, -1)
	f.Add(uint8(1), encodeOverlap(0, 1, 1, 2, 2, 3, -1, 0, 5, 7))                     // 1-D touching edges
	f.Add(uint8(2), encodeOverlap(0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 0, 3, 1))    // point corner, touching
	f.Add(uint8(2), encodeOverlap(-inf, 0, inf, 0, 3, 0, 3, 0, 0, negZero, 1, 0))     // infinite line, points, -0
	f.Add(uint8(3), encodeOverlap(-big, -big, -big, big, big, big, 0, 0, 0, 0, 0, 0)) // ±MaxFloat64
	f.Add(uint8(4), encodeOverlap(0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 0.5, 3, 0.5, 3, 0.5, 3, 0.5, 3))
	f.Add(uint8(1+4), encodeOverlap(0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, -1, -1, 0, 0)) // branch stride, k = 2
	f.Add(uint8(1+8), encodeOverlap(0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, -1, -1, 0, 0)) // record stride, k = 2
	f.Add(uint8(0+8), encodeOverlap(0, 1, 1, 2, 2, 3, -1, 0, 5, 7, -inf, inf))         // record stride, k = 1
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		k := int(kb%4) + 1
		stride := 2*k + int(kb/4)%3
		vals := overlapFloats(data)
		if len(vals) < 2*k {
			t.Skip()
		}
		q := Rect{Min: vals[:k:k], Max: vals[k : 2*k : 2*k]}
		flat := vals[2*k:]
		n := len(flat) / (2 * k)
		var want []int
		for i := 0; i < n; i++ {
			o := i * 2 * k
			e := Rect{Min: flat[o : o+k], Max: flat[o+k : o+2*k]}
			if e.Intersects(q) {
				want = append(want, i)
			}
		}
		for _, fill := range idFillers {
			keys := make([]float64, n*stride)
			for j := range keys {
				if i, w := j/stride, j%stride; w < 2*k {
					keys[j] = flat[i*2*k+w]
				} else if fill != nil {
					keys[j] = math.Float64frombits(*fill)
				} else {
					keys[j] = vals[j%len(vals)]
				}
			}
			var got []int
			for i := q.NextOverlap(keys, stride, 0); i >= 0; i = q.NextOverlap(keys, stride, i+1) {
				got = append(got, i)
				if len(got) > n {
					t.Fatalf("NextOverlap revisits entries: %v", got)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d stride=%d q=%v keys=%v: NextOverlap hits %v, Intersects %v", k, stride, q, keys, got, want)
			}
			if q.NextOverlap(keys, stride, n) != -1 {
				t.Fatal("NextOverlap past the last entry found one")
			}
		}
	})
}
