//go:build !race

// The race detector instruments allocations and defeats the measurement,
// so this file is excluded from -race builds; the CI forest job still
// runs every functional forest test under -race.

package segidx

import (
	"math/rand"
	"runtime"
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

// TestForestChurnHeapFlat holds a fixed live window while unique IDs churn
// through it — each step appends a new record and expires the oldest — and
// checks that the heap does not grow with the number of IDs ever seen:
// placement by ID keeps no per-record routing state.
func TestForestChurnHeapFlat(t *testing.T) {
	const (
		window = 1000
		warmup = 20_000
		steps  = 200_000
	)
	f := newMemForest(t, 2, true)
	rng := rand.New(rand.NewSource(3))
	ring := make([]geom.Rect, window)
	next := node.RecordID(0)
	step := func() {
		slot := int(next % window)
		if next >= window {
			if n, err := f.Delete(next-window, ring[slot]); err != nil || n != 1 {
				t.Fatalf("expire %d = %d, %v", next-window, n, err)
			}
		}
		ring[slot] = randRect(rng)
		if err := f.Insert(ring[slot], next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	before := heap()
	for i := 0; i < steps; i++ {
		step()
	}
	after := heap()
	if f.Len() != window {
		t.Fatalf("Len = %d, want the window of %d", f.Len(), window)
	}
	if growth := int64(after) - int64(before); growth > 512<<10 {
		t.Fatalf("heap grew %.2f MiB over %d append/expire steps at a live window of %d",
			float64(growth)/(1<<20), steps, window)
	}
}
