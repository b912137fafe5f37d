package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectValidation(t *testing.T) {
	cases := []struct {
		name    string
		min     []float64
		max     []float64
		wantErr bool
	}{
		{"ok", []float64{0, 0}, []float64{1, 1}, false},
		{"degenerate", []float64{1, 2}, []float64{1, 2}, false},
		{"inverted", []float64{1, 0}, []float64{0, 1}, true},
		{"mismatch", []float64{0}, []float64{1, 1}, true},
		{"empty", nil, nil, true},
		{"nan", []float64{math.NaN()}, []float64{1}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewRect(c.min, c.max)
			if (err != nil) != c.wantErr {
				t.Fatalf("NewRect(%v,%v) err=%v, wantErr=%v", c.min, c.max, err, c.wantErr)
			}
		})
	}
}

func TestAreaMarginCenter(t *testing.T) {
	r := Rect2(0, 0, 4, 2)
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %g, want 8", got)
	}
	if got := r.Margin(); got != 6 {
		t.Errorf("Margin = %g, want 6", got)
	}
	if got := r.Center(0); got != 2 {
		t.Errorf("Center(0) = %g, want 2", got)
	}
	if got := r.LongestDim(); got != 0 {
		t.Errorf("LongestDim = %d, want 0", got)
	}
	if got := Point(3, 3).Area(); got != 0 {
		t.Errorf("point area = %g, want 0", got)
	}
}

func TestUnionAndEnlargement(t *testing.T) {
	a := Rect2(0, 0, 1, 1)
	b := Rect2(2, 2, 3, 3)
	u := a.Union(b)
	if !u.Equal(Rect2(0, 0, 3, 3)) {
		t.Fatalf("Union = %v", u)
	}
	if got := a.Enlargement(&b); got != 9-1 {
		t.Errorf("Enlargement = %g, want 8", got)
	}
	inner := Rect2(0.2, 0.2, 0.8, 0.8)
	if got := a.Enlargement(&inner); got != 0 {
		t.Errorf("Enlargement of contained = %g, want 0", got)
	}
}

func TestIntersection(t *testing.T) {
	a := Rect2(0, 0, 2, 2)
	b := Rect2(1, 1, 3, 3)
	got, ok := a.Intersection(b)
	if !ok || !got.Equal(Rect2(1, 1, 2, 2)) {
		t.Fatalf("Intersection = %v ok=%v", got, ok)
	}
	if _, ok := a.Intersection(Rect2(5, 5, 6, 6)); ok {
		t.Error("disjoint rects intersected")
	}
	// Touching boundaries intersect (closed semantics) with zero overlap area.
	touch := Rect2(2, 0, 4, 2)
	if !a.Intersects(touch) {
		t.Error("touching rects should intersect")
	}
	if a.OverlapArea(touch) != 0 {
		t.Error("touching rects should have zero overlap area")
	}
	if a.OverlapArea(b) != 1 {
		t.Errorf("OverlapArea = %g, want 1", a.OverlapArea(b))
	}
}

func TestSpanRelations(t *testing.T) {
	node := Rect2(10, 10, 20, 20)
	horizontal := Rect2(5, 15, 25, 15) // segment crossing node in X
	if !horizontal.SpansDim(node, 0) {
		t.Error("horizontal segment should span node in dim 0")
	}
	if horizontal.SpansDim(node, 1) {
		t.Error("horizontal segment must not span node in dim 1")
	}
	if !horizontal.SpansAnyDim(node) {
		t.Error("SpansAnyDim should hold")
	}
	if horizontal.Spans(node) {
		t.Error("Spans (all dims) must not hold")
	}
	full := Rect2(0, 0, 30, 30)
	if !full.Spans(node) {
		t.Error("containing rect spans in all dims")
	}
	// Exact equality spans (<=, >= semantics).
	if !node.Spans(node) {
		t.Error("rect spans itself")
	}
}

func TestRemnantsTiling(t *testing.T) {
	region := Rect2(10, 10, 20, 20)
	cases := []Rect{
		Rect2(5, 12, 25, 14),  // sticks out both sides in X
		Rect2(12, 5, 14, 25),  // sticks out both sides in Y
		Rect2(5, 5, 25, 25),   // sticks out everywhere
		Rect2(12, 12, 18, 18), // fully contained
		Rect2(30, 30, 40, 40), // disjoint
		Rect2(5, 15, 15, 15),  // degenerate segment crossing the left edge
		Rect2(10, 10, 20, 20), // exactly the region
		Rect2(0, 10, 10, 20),  // touching along an edge
	}
	for _, r := range cases {
		rem := r.Remnants(region)
		clip, hasClip := r.Clip(region)
		// Total area must be preserved.
		total := 0.0
		if hasClip {
			total += clip.Area()
		}
		for _, p := range rem {
			total += p.Area()
			if !p.Valid() {
				t.Errorf("remnant %v of %v invalid", p, r)
			}
			if !r.Contains(p) {
				t.Errorf("remnant %v not within original %v", p, r)
			}
			if p.OverlapArea(region) != 0 {
				t.Errorf("remnant %v overlaps region interior", p)
			}
		}
		if math.Abs(total-r.Area()) > 1e-9 {
			t.Errorf("pieces of %v have area %g, want %g", r, total, r.Area())
		}
		// Pieces must be pairwise interior-disjoint.
		for i := range rem {
			for j := i + 1; j < len(rem); j++ {
				if rem[i].OverlapArea(rem[j]) != 0 {
					t.Errorf("remnants %v and %v overlap", rem[i], rem[j])
				}
			}
		}
		if region.Contains(r) && len(rem) != 0 {
			t.Errorf("contained rect produced remnants: %v", rem)
		}
	}
}

func TestEmptyRectIdentity(t *testing.T) {
	e := EmptyRect(2)
	if !e.IsEmptyMarker() {
		t.Fatal("EmptyRect should be marked empty")
	}
	r := Rect2(1, 2, 3, 4)
	e.ExpandInPlace(r)
	if !e.Equal(r) {
		t.Fatalf("identity expand = %v, want %v", e, r)
	}
	if e.IsEmptyMarker() {
		t.Error("expanded rect should not be empty marker")
	}
}

func TestAspectRatio(t *testing.T) {
	if got := Rect2(0, 0, 10, 2).AspectRatio(); got != 5 {
		t.Errorf("AspectRatio = %g, want 5", got)
	}
	if got := Rect2(0, 0, 10, 0).AspectRatio(); !math.IsInf(got, 1) {
		t.Errorf("degenerate-height AspectRatio = %g, want +Inf", got)
	}
	if got := Point(1, 1).AspectRatio(); got != 1 {
		t.Errorf("point AspectRatio = %g, want 1", got)
	}
}

// randRect generates a random, possibly degenerate rectangle for property
// tests.
func randRect(rng *rand.Rand, dims int) Rect {
	min := make([]float64, dims)
	max := make([]float64, dims)
	for d := 0; d < dims; d++ {
		a := rng.Float64() * 100
		b := a
		if rng.Intn(4) != 0 { // 25% degenerate extents
			b = a + rng.Float64()*50
		}
		min[d], max[d] = a, b
	}
	return Rect{Min: min, Max: max}
}

func TestPropertyUnionContainsOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := randRect(rng, 2)
		s := randRect(rng, 2)
		u := r.Union(s)
		return u.Contains(r) && u.Contains(s) && u.Area() >= r.Area() && u.Area() >= s.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertySpanIsTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		a := randRect(rng, 2)
		b := randRect(rng, 2)
		c := randRect(rng, 2)
		// Spans (containment) is transitive.
		if a.Spans(b) && b.Spans(c) && !a.Spans(c) {
			return false
		}
		// SpansDim is transitive per dimension.
		for d := 0; d < 2; d++ {
			if a.SpansDim(b, d) && b.SpansDim(c, d) && !a.SpansDim(c, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCutTilesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := randRect(rng, 2)
		region := randRect(rng, 2)
		clip, hasClip := r.Clip(region)
		total := 0.0
		if hasClip {
			total += clip.Area()
			if !region.Contains(clip) || !r.Contains(clip) {
				return false
			}
		}
		for _, p := range r.Remnants(region) {
			if !p.Valid() || !r.Contains(p) {
				return false
			}
			total += p.Area()
		}
		return math.Abs(total-r.Area()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIntersectionCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := randRect(rng, 3)
		s := randRect(rng, 3)
		a, okA := r.Intersection(s)
		b, okB := s.Intersection(r)
		if okA != okB {
			return false
		}
		if okA && !a.Equal(b) {
			return false
		}
		return r.Intersects(s) == s.Intersects(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := Rect2(0, 0, 1, 1)
	c := r.Clone()
	c.Min[0] = -5
	if r.Min[0] != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestConstructors(t *testing.T) {
	if r := Interval1(3, 7); r.Dims() != 1 || r.Min[0] != 3 || r.Max[0] != 7 {
		t.Errorf("Interval1 = %v", r)
	}
	if r := Point(1, 2, 3); r.Dims() != 3 || !r.Valid() || r.Area() != 0 {
		t.Errorf("Point = %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRect did not panic on invalid input")
		}
	}()
	MustRect([]float64{1}, []float64{0})
}

func TestLongestDimAndLength(t *testing.T) {
	r := Rect2(0, 0, 2, 10)
	if r.LongestDim() != 1 {
		t.Errorf("LongestDim = %d", r.LongestDim())
	}
	if r.Length(0) != 2 || r.Length(1) != 10 {
		t.Errorf("Lengths = %g, %g", r.Length(0), r.Length(1))
	}
	// Ties break toward the lower dimension.
	if Rect2(0, 0, 5, 5).LongestDim() != 0 {
		t.Error("tie break wrong")
	}
}

func TestContainsPoint(t *testing.T) {
	r := Rect2(0, 0, 10, 10)
	if !r.ContainsPoint([]float64{0, 0}) || !r.ContainsPoint([]float64{10, 10}) {
		t.Error("boundary points not contained")
	}
	if r.ContainsPoint([]float64{10.0001, 5}) {
		t.Error("outside point contained")
	}
}

func TestStringFormat(t *testing.T) {
	if got := Rect2(1, 2, 3, 4).String(); got != "[1,3]x[2,4]" {
		t.Errorf("String = %q", got)
	}
	if got := Interval1(1, 2).String(); got != "[1,2]" {
		t.Errorf("1-D String = %q", got)
	}
}

func TestOverlapAreaSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := randRect(rng, 2)
		s := randRect(rng, 2)
		if r.OverlapArea(s) != s.OverlapArea(r) {
			return false
		}
		// Overlap area is bounded by both areas.
		o := r.OverlapArea(s)
		return o <= r.Area()+1e-9 && o <= s.Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAspectRatioWithinEps pins AspectRatio's degenerate cases to the
// tolerant zero test: an extent of one rounding step is degenerate, as an
// exact zero is. With a raw == 0 test the first case returns 1/5.6e-17 and
// the second +Inf.
func TestAspectRatioWithinEps(t *testing.T) {
	lo, hi := 0.3, math.Nextafter(0.3, 1)
	if got := Rect2(0, lo, 1, hi).AspectRatio(); !math.IsInf(got, 1) {
		t.Errorf("AspectRatio of a height-%g rect = %g, want +Inf", hi-lo, got)
	}
	if got := Rect2(lo, lo, hi, hi).AspectRatio(); got != 1 {
		t.Errorf("AspectRatio of a %g-wide square = %g, want 1", hi-lo, got)
	}
}
