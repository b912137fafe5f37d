//go:build !race

// The race detector instruments allocations and defeats the measurement,
// so this file is excluded from -race builds; the CI forest job still
// runs every functional forest test under -race.

package forest

import (
	"math/rand"
	"testing"

	"segidx/internal/core"
	"segidx/internal/geom"
	"segidx/internal/node"
)

// TestForestStreamingAllocs proves the scatter wrapper adds no per-call
// allocations on the streaming read path — through the live forest and
// through a pinned Snapshot view, which share one stream and one count.
func TestForestStreamingAllocs(t *testing.T) {
	f := newMemForest(t, 4, true)
	rng := rand.New(rand.NewSource(9))
	var point geom.Rect // the center of the first record, so stabs hit
	for i := 0; i < 400; i++ {
		r := randRect(rng)
		if err := f.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			point = geom.Point((r.Min[0]+r.Max[0])/2, (r.Min[1]+r.Max[1])/2)
		}
	}
	view := f.Snapshot()
	defer view.Release()
	query := geom.Rect2(100, 100, 400, 400)
	hits := 0
	fn := func(core.Entry) bool { hits++; return true }
	for _, r := range []struct {
		name string
		core.Reader
	}{{"forest", f}, {"view", view}} {
		for _, q := range []struct {
			name string
			run  func() error
		}{
			{"SearchFunc", func() error { return r.SearchFunc(query, fn) }},
			{"SearchContainingFunc", func() error { return r.SearchContainingFunc(point, fn) }},
			{"Count", func() error { n, err := r.Count(query); hits += n; return err }},
		} {
			hits = 0
			if err := q.run(); err != nil { // warm pools
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := q.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s allocates %v per run", r.name, q.name, allocs)
			}
			if hits == 0 {
				t.Errorf("%s %s matched nothing; test is vacuous", r.name, q.name)
			}
		}
	}
}
