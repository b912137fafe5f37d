package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
)

// smallConfig returns a configuration with tiny pages so trees grow deep on
// small datasets, exercising splits, promotions, and demotions quickly.
func smallConfig(spanning bool) Config {
	cfg := DefaultConfig()
	cfg.Sizes.LeafBytes = 256 // leaf capacity 4, level-1 branch capacity ~7/11
	cfg.Spanning = spanning
	return cfg
}

// model is a brute-force reference index.
type model struct {
	rects map[node.RecordID]geom.Rect
}

func newModel() *model { return &model{rects: make(map[node.RecordID]geom.Rect)} }

func (m *model) insert(r geom.Rect, id node.RecordID) { m.rects[id] = r.Clone() }
func (m *model) delete(id node.RecordID)              { delete(m.rects, id) }

func (m *model) search(q geom.Rect) []node.RecordID {
	var out []node.RecordID
	for id, r := range m.rects {
		if r.Intersects(q) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func searchIDs(t *testing.T, tr *Tree, q geom.Rect) []node.RecordID {
	t.Helper()
	entries, err := tr.Search(q)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	out := make([]node.RecordID, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.ID)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func idsEqual(a, b []node.RecordID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randSegment generates a horizontal segment (interval in X, point in Y),
// the paper's historical-data shape, with occasional long intervals.
func randSegment(rng *rand.Rand) geom.Rect {
	y := rng.Float64() * 1000
	cx := rng.Float64() * 1000
	length := rng.Float64() * 20
	if rng.Intn(10) == 0 { // 10% long intervals
		length = rng.Float64() * 800
	}
	lo, hi := cx-length/2, cx+length/2
	if lo < 0 {
		lo = 0
	}
	if hi > 1000 {
		hi = 1000
	}
	return geom.Rect2(lo, y, hi, y)
}

// randBox generates a small rectangle with occasional large ones.
func randBox(rng *rand.Rand) geom.Rect {
	cx, cy := rng.Float64()*1000, rng.Float64()*1000
	w, h := rng.Float64()*20, rng.Float64()*20
	if rng.Intn(10) == 0 {
		w = rng.Float64() * 600
	}
	if rng.Intn(10) == 0 {
		h = rng.Float64() * 600
	}
	r := geom.Rect2(clamp(cx-w/2), clamp(cy-h/2), clamp(cx+w/2), clamp(cy+h/2))
	return r
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1000 {
		return 1000
	}
	return v
}

func randQuery(rng *rand.Rand) geom.Rect {
	cx, cy := rng.Float64()*1000, rng.Float64()*1000
	w, h := rng.Float64()*100+1, rng.Float64()*100+1
	return geom.Rect2(clamp(cx-w/2), clamp(cy-h/2), clamp(cx+w/2), clamp(cy+h/2))
}

func TestInsertSearchBasics(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			tr, err := NewInMemory(smallConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(geom.Rect2(10, 10, 20, 10), 1); err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(geom.Rect2(100, 100, 110, 100), 2); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 2 {
				t.Fatalf("Len = %d, want 2", tr.Len())
			}
			got := searchIDs(t, tr, geom.Rect2(0, 0, 50, 50))
			if !idsEqual(got, []node.RecordID{1}) {
				t.Fatalf("search = %v, want [1]", got)
			}
			got = searchIDs(t, tr, geom.Rect2(0, 0, 1000, 1000))
			if !idsEqual(got, []node.RecordID{1, 2}) {
				t.Fatalf("search all = %v, want [1 2]", got)
			}
			got = searchIDs(t, tr, geom.Rect2(500, 500, 600, 600))
			if len(got) != 0 {
				t.Fatalf("empty region search = %v, want []", got)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInsertRejectsBadInput(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.Rect{Min: []float64{0}, Max: []float64{1}}, 1); err != ErrDims {
		t.Errorf("1-D insert into 2-D index = %v, want ErrDims", err)
	}
	if err := tr.Insert(geom.Rect{Min: []float64{5, 5}, Max: []float64{1, 1}}, 1); err != ErrBadRect {
		t.Errorf("inverted rect = %v, want ErrBadRect", err)
	}
	if _, err := tr.Search(geom.Rect{Min: []float64{0}, Max: []float64{1}}); err != ErrDims {
		t.Errorf("1-D query = %v, want ErrDims", err)
	}
}

func TestEmptyTreeSearch(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Search(geom.Rect2(0, 0, 1000, 1000))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty search = %v, %v", got, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthMatchesModel(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*rand.Rand) geom.Rect
	}{
		{"segments", randSegment},
		{"boxes", randBox},
	}
	for _, spanning := range []bool{false, true} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/spanning=%v", c.name, spanning), func(t *testing.T) {
				rng := rand.New(rand.NewSource(17))
				tr, err := NewInMemory(smallConfig(spanning))
				if err != nil {
					t.Fatal(err)
				}
				m := newModel()
				for i := 0; i < 2000; i++ {
					r := c.gen(rng)
					id := node.RecordID(i + 1)
					if err := tr.Insert(r, id); err != nil {
						t.Fatalf("insert %d: %v", i, err)
					}
					m.insert(r, id)
					if i%500 == 499 {
						if err := tr.CheckInvariants(); err != nil {
							t.Fatalf("after %d inserts: %v", i+1, err)
						}
					}
				}
				if tr.Len() != 2000 {
					t.Fatalf("Len = %d", tr.Len())
				}
				if tr.Height() < 2 {
					t.Fatalf("tree did not grow: height %d", tr.Height())
				}
				for q := 0; q < 200; q++ {
					query := randQuery(rng)
					got := searchIDs(t, tr, query)
					want := m.search(query)
					if !idsEqual(got, want) {
						t.Fatalf("query %v: got %d ids, want %d\n got=%v\nwant=%v",
							query, len(got), len(want), got, want)
					}
				}
				// Every logical record is found exactly once by a
				// full-domain search.
				all := searchIDs(t, tr, geom.Rect2(0, 0, 1000, 1000))
				if len(all) != 2000 {
					t.Fatalf("full search found %d records, want 2000", len(all))
				}
				_, distinct, err := tr.RecordCount()
				if err != nil {
					t.Fatal(err)
				}
				if distinct != 2000 {
					t.Fatalf("distinct stored ids = %d, want 2000", distinct)
				}
			})
		}
	}
}

func TestSpanningRecordsActuallyUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Stats()
	if s.SpanPlaced == 0 && s.Promotions == 0 {
		t.Error("SR-Tree stored no spanning records on long-interval data")
	}
	portions, _, err := tr.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	if portions < 3000 {
		t.Errorf("portions %d < records 3000", portions)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRTreeNeverStoresSpanningRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Stats()
	if s.SpanPlaced != 0 || s.Promotions != 0 || s.Cuts != 0 {
		t.Errorf("R-Tree produced spanning activity: %+v", s)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchFuncEarlyStop(t *testing.T) {
	tr, err := NewInMemory(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(geom.Point(float64(i*10), float64(i*10)), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	visits := 0
	err = tr.SearchFunc(geom.Rect2(0, 0, 1000, 1000), func(Entry) bool {
		visits++
		return visits < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits != 5 {
		t.Fatalf("early stop visited %d entries, want 5", visits)
	}
}

func TestCountAndLen(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tr.Count(geom.Rect2(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 || tr.Len() != 500 {
		t.Fatalf("Count=%d Len=%d, want 500", n, tr.Len())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Dims = 0 },
		func(c *Config) { c.Dims = 99 },
		func(c *Config) { c.Spanning = true; c.BranchReserve = 0 },
		func(c *Config) { c.Spanning = true; c.BranchReserve = 1.5 },
		func(c *Config) { c.Sizes.LeafBytes = 64 },
		func(c *Config) { c.CoalesceEvery = -1 },
		func(c *Config) { c.CoalesceMaxFill = 2 },
		func(c *Config) { c.Spanning = true; c.BranchReserve = 0.999 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Stats()
	for q := 0; q < 10; q++ {
		if _, err := tr.Search(randQuery(rng)); err != nil {
			t.Fatal(err)
		}
	}
	after := tr.Stats()
	if after.Searches-before.Searches != 10 {
		t.Errorf("Searches delta = %d, want 10", after.Searches-before.Searches)
	}
	if after.SearchNodeAccesses <= before.SearchNodeAccesses {
		t.Error("SearchNodeAccesses did not advance")
	}
	if after.Inserts != 1000 {
		t.Errorf("Inserts = %d, want 1000", after.Inserts)
	}
	if after.LeafSplits == 0 {
		t.Error("expected leaf splits on 1000 inserts with capacity-4 leaves")
	}
}

// rect4 builds a rect from a [xlo, ylo, xhi, yhi] array.
func rect4(v [4]float64) geom.Rect {
	return geom.Rect2(v[0], v[1], v[2], v[3])
}
