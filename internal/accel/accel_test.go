package accel

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"segidx/internal/geom"
)

// oracleRec mirrors one accelerator record for the brute-force oracle.
type oracleRec struct {
	r     geom.Rect
	id    uint64
	birth uint64
	death uint64 // 0 = live
}

func visibleAt(o oracleRec, epoch uint64) bool {
	return o.birth <= epoch && (o.death == 0 || o.death > epoch)
}

func contains(r, q geom.Rect) bool {
	for i := range q.Min {
		if r.Min[i] > q.Min[i] || r.Max[i] < q.Max[i] {
			return false
		}
	}
	return true
}

func intersects(r, q geom.Rect) bool {
	for i := range q.Min {
		if r.Min[i] > q.Max[i] || r.Max[i] < q.Min[i] {
			return false
		}
	}
	return true
}

// collectIDs returns the sorted IDs the visit path reports, failing t when
// the visit's match count disagrees with them.
func collectIDs(t *testing.T, a *Accel, epoch uint64, q geom.Rect, rangeQ bool) []uint64 {
	t.Helper()
	var ids []uint64
	fn := func(min, max []float64, id uint64) bool {
		ids = append(ids, id)
		return true
	}
	var n int
	if rangeQ {
		n = a.RangeVisit(epoch, q.Min, q.Max, fn)
	} else {
		n = a.ContainVisit(epoch, q.Min, q.Max, fn)
	}
	if n != len(ids) {
		t.Fatalf("visit of %v reports %d matches but emitted %d", q, n, len(ids))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func oracleIDs(recs []oracleRec, epoch uint64, q geom.Rect, rangeQ bool) []uint64 {
	var ids []uint64
	for _, o := range recs {
		if !visibleAt(o, epoch) {
			continue
		}
		if rangeQ && intersects(o.r, q) || !rangeQ && contains(o.r, q) {
			ids = append(ids, o.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
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

// oracleRect draws a rectangle whose hot extent overshoots the [0, 1000]
// domain on both sides and whose other extents are up to 20 tall in
// [0, 100].
func oracleRect(rng *rand.Rand, dims, hot int) geom.Rect {
	r := geom.Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
	for i := range r.Min {
		if i == hot {
			r.Min[i] = rng.Float64()*1400 - 200
			r.Max[i] = r.Min[i] + rng.Float64()*300
		} else {
			r.Min[i] = rng.Float64() * 100
			r.Max[i] = r.Min[i] + rng.Float64()*20
		}
	}
	return r
}

// oracleQuery draws a query whose hot extent is a point (stab or
// time-slice) or a range, and whose other extents are all one shape: a
// point, a data-sized box, the full data extent (every list box falls
// inside it), a band above all data (every box misses it), or a tall band
// that straddles list boxes.
func oracleQuery(rng *rand.Rand, dims, hot int, hotPoint bool, shape int) geom.Rect {
	q := oracleRect(rng, dims, hot)
	for i := range q.Min {
		switch {
		case i == hot:
			if hotPoint {
				q.Max[i] = q.Min[i]
			}
		case shape == 0:
			q.Max[i] = q.Min[i]
		case shape == 2:
			q.Min[i], q.Max[i] = -10, 130
		case shape == 3:
			q.Min[i], q.Max[i] = 125, 200
		case shape == 4:
			q.Max[i] = q.Min[i] + 60
		}
	}
	return q
}

// TestAccelOracle drives interleaved inserts, deletes, and compactions
// through epoched commits and checks stab, containing, and intersection
// answers — visited and counted (nil VisitFunc) — against a brute-force
// oracle at historical epochs, including values outside the configured
// domain, which must clamp, not break. The query shapes make list boxes
// miss, fall inside, and straddle the query; the test asserts all three
// occur.
func TestAccelOracle(t *testing.T) {
	for _, cfg := range []Config{
		{Dims: 2, Dim: 0, Levels: 6, Lo: 0, Hi: 1000},
		{Dims: 2, Dim: 1, Levels: 6, Lo: 0, Hi: 1000},
		{Dims: 3, Dim: 2, Levels: 5, Lo: 0, Hi: 1000},
		{Dims: 1, Dim: 0, Levels: 6, Lo: 0, Hi: 1000},
	} {
		t.Run(fmt.Sprintf("dims=%d/hot=%d", cfg.Dims, cfg.Dim), func(t *testing.T) {
			miss, inside, partial := runAccelOracle(t, cfg)
			if cfg.Dims > 1 && (miss == 0 || inside == 0 || partial == 0) {
				t.Fatalf("query shapes did not exercise every list class: %d miss, %d inside, %d partial", miss, inside, partial)
			}
		})
	}
}

func runAccelOracle(t *testing.T, cfg Config) (miss, inside, partial int) {
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var oracle []oracleRec
	nextID := uint64(1)
	epoch := uint64(1)

	for step := 0; step < 60; step++ {
		// One commit: a few inserts and up to two deletes.
		newEpoch := epoch + 1
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			r := oracleRect(rng, cfg.Dims, cfg.Dim)
			a.StageInsert(r, nextID)
			oracle = append(oracle, oracleRec{r: r, id: nextID, birth: newEpoch})
			nextID++
		}
		for d := rng.Intn(3); d > 0; d-- {
			live := make([]int, 0, len(oracle))
			for i, o := range oracle {
				if o.death == 0 && o.birth <= epoch {
					live = append(live, i)
				}
			}
			if len(live) > 0 {
				i := live[rng.Intn(len(live))]
				a.StageDelete(oracle[i].id)
				oracle[i].death = newEpoch
			}
		}
		// minEpoch trails the commit so compaction stays active.
		minEpoch := uint64(1)
		if newEpoch > 5 {
			minEpoch = newEpoch - 5
		}
		a.Commit(newEpoch, minEpoch)
		epoch = newEpoch
		if a.Degraded() {
			t.Fatalf("step %d: unexpected degrade", step)
		}
		if err := a.CheckBirths(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		// Check answers at several epochs, including historical ones that
		// compaction must not have disturbed (only epochs >= minEpoch are
		// pinnable in the real system).
		for _, e := range []uint64{epoch, epoch - 1, minEpoch} {
			for shape := 0; shape < 5; shape++ {
				for _, hotPoint := range []bool{true, false} {
					q := oracleQuery(rng, cfg.Dims, cfg.Dim, hotPoint, shape)
					for _, rangeQ := range []bool{true, false} {
						want := oracleIDs(oracle, e, q, rangeQ)
						if got := collectIDs(t, a, e, q, rangeQ); !equalIDs(got, want) {
							t.Fatalf("step %d epoch %d range=%v %v: got %v want %v", step, e, rangeQ, q, got, want)
						}
						var n int
						if rangeQ {
							n = a.RangeVisit(e, q.Min, q.Max, nil)
						} else {
							n = a.ContainVisit(e, q.Min, q.Max, nil)
						}
						if n != len(want) {
							t.Fatalf("step %d epoch %d range=%v %v: count %d want %d", step, e, rangeQ, q, n, len(want))
						}
					}
					r := read{lim: q.Max, need: q.Min}
					for v := a.cellOf(q.Min[cfg.Dim]) + a.nCells; v >= 1; v >>= 1 {
						if l := a.covers[v].Load(); l != nil {
							switch m, in := a.classify(&r, l.box); {
							case m:
								miss++
							case in:
								inside++
							default:
								partial++
							}
						}
					}
				}
			}
		}
	}
	st := a.Stats()
	if st.Slots == 0 || st.Live == 0 {
		t.Fatalf("implausible stats after churn: %+v", st)
	}
	return miss, inside, partial
}

// TestAccelStatsRace reads Stats while the writer commits: the /metrics
// endpoint calls it without the tree's write lock. Meaningful under -race.
func TestAccelStatsRace(t *testing.T) {
	a, err := New(Config{Dims: 2, Dim: 0, Levels: 4, Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = a.Stats()
		}
	}()
	for e := uint64(2); e < 200; e++ {
		a.StageInsert(geom.Rect2(float64(e%90), 0, float64(e%90)+5, 1), e)
		if e%2 == 0 {
			a.StageDelete(e - 1)
		}
		a.Commit(e, e-1)
	}
	<-done
	if got := a.Stats().Live; got != 100 {
		t.Fatalf("Live = %d after 198 inserts and 98 deletes, want 100", got)
	}
}

// TestAccelAbort proves staged operations vanish on Abort and the next
// commit applies only its own staging.
func TestAccelAbort(t *testing.T) {
	a, err := New(Config{Dims: 2, Dim: 0, Levels: 4, Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	a.StageInsert(geom.Rect2(10, 0, 20, 0), 1)
	a.Commit(2, 1)
	a.StageInsert(geom.Rect2(30, 0, 40, 0), 2)
	a.StageDelete(1)
	a.Abort()
	a.StageInsert(geom.Rect2(50, 0, 60, 0), 3)
	a.Commit(3, 1)

	got := collectIDs(t, a, 3, geom.Rect2(0, 0, 100, 0), true)
	if !equalIDs(got, []uint64{1, 3}) {
		t.Fatalf("after abort+commit: got %v want [1 3]", got)
	}
}

// TestAccelDegradeOnDuplicateID proves a reused live ID permanently
// disables routing instead of serving wrong answers.
func TestAccelDegradeOnDuplicateID(t *testing.T) {
	a, err := New(Config{Dims: 2, Dim: 0, Levels: 4, Lo: 0, Hi: 100, Mode: ModeAlways})
	if err != nil {
		t.Fatal(err)
	}
	a.StageInsert(geom.Rect2(10, 0, 20, 0), 7)
	a.Commit(2, 1)
	if a.Degraded() {
		t.Fatal("degraded too early")
	}
	a.StageInsert(geom.Rect2(80, 0, 90, 0), 7) // duplicate live ID
	a.Commit(3, 1)
	if !a.Degraded() {
		t.Fatal("duplicate live ID must degrade")
	}
	if a.Route([]float64{15, 0}, []float64{15, 0}) {
		t.Fatal("degraded accelerator must never route, even in ModeAlways")
	}
}

// TestAccelDeleteUnknownID proves deleting an ID the accelerator never
// held (or already deleted) is a harmless no-op.
func TestAccelDeleteUnknownID(t *testing.T) {
	a, err := New(Config{Dims: 2, Dim: 0, Levels: 4, Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	a.StageInsert(geom.Rect2(10, 0, 20, 5), 1)
	a.StageDelete(99)
	a.Commit(2, 1)
	a.StageDelete(1)
	a.StageDelete(1)
	a.Commit(3, 2)
	if got := collectIDs(t, a, 2, geom.Point(15, 2), false); !equalIDs(got, []uint64{1}) {
		t.Fatalf("epoch 2 stab: got %v want [1]", got)
	}
	if got := collectIDs(t, a, 3, geom.Point(15, 2), false); len(got) != 0 {
		t.Fatalf("epoch 3 stab after delete: got %v want empty", got)
	}
}

// TestAccelRouting checks the side Route picks for each query shape in
// each mode, then that auto mode never probes the side it rejected. The
// 2-D cases hold records whose Y extents span [10, 50].
func TestAccelRouting(t *testing.T) {
	base := []geom.Rect{geom.Rect2(10, 10, 20, 30), geom.Rect2(40, 20, 60, 50)}
	outside := geom.Rect2(30, 40, 35, 90) // grows the Y extent to [10, 90]
	for _, tc := range []struct {
		name       string
		dims       int
		rects      []geom.Rect
		del        []uint64 // deleted and compacted after the inserts commit
		degrade    bool
		qmin, qmax []float64
		want       [3]bool // sidecar? in ModeAuto, ModeAlways, ModeOff
	}{
		{"full-extent slice", 2, base, nil, false, []float64{15, 0}, []float64{15, 100}, [3]bool{true, true, false}},
		{"slice over exactly the extent", 2, base, nil, false, []float64{15, 10}, []float64{15, 50}, [3]bool{true, true, false}},
		{"full-extent range of a quarter", 2, base, nil, false, []float64{0, 0}, []float64{25, 100}, [3]bool{true, true, false}},
		{"slice over part of the extent", 2, base, nil, false, []float64{15, 0}, []float64{15, 49}, [3]bool{false, true, false}},
		{"2-D box", 2, base, nil, false, []float64{10, 20}, []float64{20, 30}, [3]bool{false, true, false}},
		{"point", 2, base, nil, false, []float64{15, 20}, []float64{15, 20}, [3]bool{false, true, false}},
		{"wider than a quarter", 2, base, nil, false, []float64{0, 0}, []float64{26, 100}, [3]bool{false, true, false}},
		{"degraded", 2, base, nil, true, []float64{15, 0}, []float64{15, 100}, [3]bool{false, false, false}},
		{"1-D point stab", 1, []geom.Rect{{Min: []float64{10}, Max: []float64{20}}}, nil, false, []float64{15}, []float64{15}, [3]bool{true, true, false}},
		{"1-D range wider than a quarter", 1, []geom.Rect{{Min: []float64{10}, Max: []float64{20}}}, nil, false, []float64{0}, []float64{30}, [3]bool{false, true, false}},
		{"empty sidecar, point", 2, nil, nil, false, []float64{15, 20}, []float64{15, 20}, [3]bool{true, true, false}},
		{"slice after an out-of-extent insert", 2, append(base[:2:2], outside), nil, false, []float64{15, 0}, []float64{15, 60}, [3]bool{false, true, false}},
		{"slice after that record is deleted and compacted", 2, append(base[:2:2], outside), []uint64{3}, false, []float64{15, 0}, []float64{15, 60}, [3]bool{false, true, false}},
		{"slice covering the grown extent", 2, append(base[:2:2], outside), nil, false, []float64{15, 0}, []float64{15, 90}, [3]bool{true, true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []Mode{ModeAuto, ModeAlways, ModeOff} {
				a, err := New(Config{Dims: tc.dims, Dim: 0, Levels: 4, Lo: 0, Hi: 100, Mode: m})
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range tc.rects {
					a.StageInsert(r, uint64(i+1))
				}
				a.Commit(2, 1)
				for _, id := range tc.del {
					a.StageDelete(id)
				}
				a.Commit(3, 3)
				if tc.degrade {
					a.Degrade()
				}
				got := a.Route(tc.qmin, tc.qmax)
				if got != tc.want[m] {
					t.Errorf("%v: Route = %v, want %v", m, got, tc.want[m])
				}
				routed := uint64(0)
				if got {
					routed = 1
				}
				if st := a.Stats(); st.RoutedAccel != routed || st.RoutedTree != 1-routed || st.Probes != 0 {
					t.Errorf("%v: stats after one route (%d to the sidecar): %+v", m, routed, st)
				}
			}
		})
	}

	// 10⁴ alternating slices and points in auto mode: each goes to the side
	// its shape picks, every time.
	a, err := New(Config{Dims: 2, Dim: 0, Levels: 4, Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	a.StageInsert(base[0], 1)
	a.Commit(2, 1)
	slice := [2][]float64{{15, 0}, {15, 100}}
	point := [2][]float64{{15, 20}, {15, 20}}
	for i := 0; i < 10_000; i++ {
		q, want := slice, true
		if i%2 == 1 {
			q, want = point, false
		}
		if a.Route(q[0], q[1]) != want {
			t.Fatalf("route %d of %v went to the other side", i, q)
		}
	}
	if st := a.Stats(); st.RoutedAccel != 5_000 || st.RoutedTree != 5_000 || st.Probes != 0 {
		t.Fatalf("stats after 10⁴ routes: %+v", st)
	}
}

// TestParseMode covers the flag spellings.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"auto", ModeAuto}, {"always", ModeAlways}, {"off", ModeOff}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Mode %v String = %q", got, got.String())
		}
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Fatal("ParseMode accepted junk")
	}
}

// TestConfigValidate covers the rejection paths.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dims: 0, Dim: 0, Levels: 4, Lo: 0, Hi: 1},
		{Dims: 2, Dim: 2, Levels: 4, Lo: 0, Hi: 1},
		{Dims: 2, Dim: -1, Levels: 4, Lo: 0, Hi: 1},
		{Dims: 2, Dim: 0, Levels: 0, Lo: 0, Hi: 1},
		{Dims: 2, Dim: 0, Levels: 17, Lo: 0, Hi: 1},
		{Dims: 2, Dim: 0, Levels: 4, Lo: 1, Hi: 1},
		{Dims: 2, Dim: 0, Levels: 4, Lo: 0, Hi: 1, Mode: Mode(9)},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Fatalf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := New(Config{Dims: 2, Dim: 0, Levels: 4, Lo: 0, Hi: 1}); err != nil {
		t.Fatal(err)
	}
}
