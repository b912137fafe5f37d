package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
	"segidx/internal/workload"
)

// Readers scan published page images alone; the writer works on headers
// that view them. These tests pin the two forms' agreement check and that
// a reader never looks at the headers.

// imageTestTree is a small SR-Tree several levels deep.
func imageTestTree(t *testing.T) *Tree {
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
// header after publishing, to a rectangle that breaks no other invariant,
// and expects CheckInvariants to report that the published image
// disagrees.
func TestCheckInvariantsCatchesRepointedRect(t *testing.T) {
	tr := imageTestTree(t)
	var leaf page.ID
	for _, id := range nodeIDs(t, tr) {
		n, err := tr.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if leaf == page.Nil && n.IsLeaf() {
			for i := range n.Records {
				if r := n.Records[i].Rect; r.Min[0] < r.Max[0] {
					// A point at the record's corner stays inside every
					// cover the record was inside.
					n.Records[i].Rect = geom.Point(r.Min...)
					leaf = id
					break
				}
			}
		}
	}
	if leaf == page.Nil {
		t.Fatal("no leaf record with a positive extent")
	}
	err := tr.CheckInvariants()
	var ie *InvariantError
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "differ from their published image") {
		t.Fatalf("CheckInvariants = %v, want a published-image mismatch", err)
	}
	if last := ie.Path[len(ie.Path)-1]; last.ID != leaf {
		t.Fatalf("violation reported at %v, want leaf %v", last, leaf)
	}
}

// TestReadersScanOnlyPublishedImages empties the writer's headers of the
// published root without publishing: every query must still answer from
// the root's page image, and CheckInvariants must report the disagreement.
func TestReadersScanOnlyPublishedImages(t *testing.T) {
	tr := imageTestTree(t)
	q := geom.Rect2(0, 0, workload.DomainHi, workload.DomainHi)
	stab := geom.Point(workload.DomainHi/2, workload.DomainHi/2)
	want, err := tr.Search(q)
	if err != nil || len(want) != tr.Len() {
		t.Fatalf("Search before = (%d, %v), want (%d, nil)", len(want), err, tr.Len())
	}
	wantStab, err := tr.SearchContaining(stab)
	if err != nil {
		t.Fatal(err)
	}
	root, err := tr.pool.Get(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	root.Branches, root.Records = nil, nil
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants passed a root whose headers lost every entry")
	}
	if got, err := tr.Search(q); err != nil || len(got) != len(want) {
		t.Errorf("Search = (%d, %v), want (%d, nil)", len(got), err, len(want))
	}
	if n, err := tr.Count(q); err != nil || n != len(want) {
		t.Errorf("Count = (%d, %v), want (%d, nil)", n, err, len(want))
	}
	streamed := 0
	if err := tr.SearchFunc(q, func(Entry) bool { streamed++; return true }); err != nil || streamed < len(want) {
		t.Errorf("SearchFunc = (%d portions, %v), want at least %d", streamed, err, len(want))
	}
	if got, err := tr.SearchContaining(stab); err != nil || len(got) != len(wantStab) {
		t.Errorf("SearchContaining = (%d, %v), want (%d, nil)", len(got), err, len(wantStab))
	}
	portions := 0
	if err := tr.VisitPortions(func(int, Entry) bool { portions++; return true }); err != nil || portions != streamed {
		t.Errorf("VisitPortions = (%d, %v), want %d", portions, err, streamed)
	}
}

// TestViewsReadEvictedVersions reads through a pool that holds a few
// pages while one writer inserts and deletes and a view stays pinned. The
// pinned view keeps a version chain for every page changed after it, and
// the newer heads of those pages keep being evicted, so readers at newer
// epochs resolve them from the durable image alone — getVersionSlow's
// chain with no covering version. Every answer, the pinned view's and
// each fresh view's, must equal a brute-force model of the records at the
// view's epoch.
func TestViewsReadEvictedVersions(t *testing.T) {
	cfg := smallConfig(true)
	cfg.PoolBytes = 4 * 1024
	tr, err := New(cfg, store.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	live := newModel()
	var ids []node.RecordID
	for i := 1; i <= 400; i++ {
		r := randSegment(rng)
		if err := tr.Insert(r, node.RecordID(i)); err != nil {
			t.Fatal(err)
		}
		live.insert(r, node.RecordID(i))
		ids = append(ids, node.RecordID(i))
	}
	var (
		mu      sync.Mutex // orders view pins against history
		history = map[uint64]map[node.RecordID]geom.Rect{tr.CommitEpoch(): maps.Clone(live.rects)}
	)
	pinned := tr.Snapshot()
	defer pinned.Release()
	pinnedWant := history[pinned.Epoch()]
	evictions := tr.PoolStats().Evictions

	// check compares v's answer to q with the model of its epoch.
	check := func(v View, want map[node.RecordID]geom.Rect, q geom.Rect) error {
		res, err := v.Search(q)
		if err != nil {
			return err
		}
		got := make([]node.RecordID, len(res))
		for i, e := range res {
			got[i] = e.ID
		}
		slices.Sort(got)
		if exp := (&model{rects: want}).search(q); !slices.Equal(got, exp) {
			return fmt.Errorf("epoch %d, %v: %d records, want %d", v.Epoch(), q, len(got), len(exp))
		}
		return nil
	}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				mu.Lock()
				v := tr.Snapshot()
				want := history[v.Epoch()]
				mu.Unlock()
				for j := 0; j < 4; j++ {
					err := check(v, want, randQuery(rng))
					if err == nil {
						err = check(pinned, pinnedWant, randQuery(rng))
					}
					if err != nil {
						v.Release()
						errs <- err
						return
					}
				}
				v.Release()
			}
		}(rand.New(rand.NewSource(int64(r))))
	}
	for i := 0; i < 400; i++ {
		mu.Lock()
		if j := rng.Intn(len(ids)); rng.Intn(3) == 0 {
			id := ids[j]
			ids = slices.Delete(ids, j, j+1)
			if n, err := tr.Delete(id, live.rects[id]); err != nil || n != 1 {
				t.Fatalf("Delete(%d) = (%d, %v)", id, n, err)
			}
			live.delete(id)
		} else {
			id := node.RecordID(1000 + i)
			r := randSegment(rng)
			if err := tr.Insert(r, id); err != nil {
				t.Fatal(err)
			}
			live.insert(r, id)
			ids = append(ids, id)
		}
		history[tr.CommitEpoch()] = maps.Clone(live.rects)
		mu.Unlock()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tr.PoolStats().Evictions - evictions; got == 0 {
		t.Fatal("no evictions under the writes: no version was read from its durable image")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleStress reads through a FileStore pool of 4 KiB, where nearly
// every query misses and evicted frames are reused whenever the readers
// drain, while one writer inserts and deletes. Readers alternate direct
// queries and pinned views over Search, SearchFunc, Count and point stabs
// (SearchContainingFunc). Every answer must equal a brute-force model at an
// epoch the query could have read, and every rectangle reported must lie
// in its record's: a reader handed an image that a later miss overwrote
// would report another page's records or rectangles.
func TestRecycleStress(t *testing.T) {
	cfg := smallConfig(true)
	cfg.PoolBytes = 4 * 1024
	st, err := store.OpenFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(53))
	rects := make(map[node.RecordID]geom.Rect) // every record ever inserted
	live := newModel()
	var ids []node.RecordID
	insert := func(id node.RecordID) {
		r := randSegment(rng)
		if err := tr.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		rects[id] = r.Clone()
		live.insert(r, id)
		ids = append(ids, id)
	}
	for i := 1; i <= 400; i++ {
		insert(node.RecordID(i))
	}
	// Inserted IDs are drawn up front, so readers can look rectangles up
	// in rects without a lock while the writer runs.
	for i := 0; i < 300; i++ {
		rects[node.RecordID(1000+i)] = randSegment(rng)
	}
	var (
		mu      sync.Mutex // orders epochs against history
		history = map[uint64]map[node.RecordID]geom.Rect{tr.CommitEpoch(): maps.Clone(live.rects)}
	)
	reused := tr.PoolStats().Reused

	// ask runs one query of the given shape and returns the IDs it
	// reports, checking each reported rectangle on the way.
	ask := func(rd Reader, shape int, q geom.Rect) ([]node.RecordID, error) {
		var out []node.RecordID
		var bad error
		in := func(e Entry, want func(geom.Rect) bool) {
			if r, ok := rects[e.ID]; !ok || !r.Contains(e.Rect) || !want(e.Rect) {
				bad = fmt.Errorf("record %d reported as %v, stored as %v", e.ID, e.Rect, r)
			}
		}
		switch shape {
		case 0:
			res, err := rd.Search(q)
			if err != nil {
				return nil, err
			}
			for _, e := range res {
				in(e, q.Intersects)
				out = append(out, e.ID)
			}
		case 1:
			seen := make(map[node.RecordID]bool)
			err := rd.SearchFunc(q, func(e Entry) bool {
				in(e, q.Intersects)
				if !seen[e.ID] {
					seen[e.ID] = true
					out = append(out, e.ID)
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		case 2:
			n, err := rd.Count(q)
			if err != nil {
				return nil, err
			}
			out = make([]node.RecordID, n) // only the length is compared
		case 3:
			err := rd.SearchContainingFunc(q, func(e Entry) bool {
				in(e, func(r geom.Rect) bool { return r.Contains(q) })
				out = append(out, e.ID)
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		slices.Sort(out)
		return out, bad
	}
	// want is the model's answer at one epoch.
	want := func(m map[node.RecordID]geom.Rect, shape int, q geom.Rect) []node.RecordID {
		var out []node.RecordID
		for id, r := range m {
			if shape == 3 && r.Contains(q) || shape != 3 && r.Intersects(q) {
				out = append(out, id)
			}
		}
		slices.Sort(out)
		if shape == 2 {
			return make([]node.RecordID, len(out))
		}
		return out
	}

	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for round := 0; round < 300; round++ {
				shape := rng.Intn(4)
				q := randQuery(rng)
				if shape == 3 {
					q = geom.Rect2(q.Min[0], q.Min[1], q.Min[0], q.Min[1])
				}
				var (
					rd     Reader = tr
					view   View
					lo, hi uint64
				)
				mu.Lock()
				if rng.Intn(2) == 0 {
					view = tr.Snapshot()
					rd, lo = view, view.Epoch()
				} else {
					lo = tr.CommitEpoch()
				}
				mu.Unlock()
				got, err := ask(rd, shape, q)
				mu.Lock()
				if hi = lo; view == nil {
					hi = tr.CommitEpoch()
				}
				ok := false
				for e := lo; e <= hi && !ok; e++ {
					ok = slices.Equal(got, want(history[e], shape, q))
				}
				mu.Unlock()
				if view != nil {
					view.Release()
				}
				if err == nil && !ok {
					err = fmt.Errorf("shape %d, %v at epochs %d..%d: %d records match no model", shape, q, lo, hi, len(got))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewSource(int64(r))))
	}
	for i := 0; i < 300; i++ {
		mu.Lock()
		if j := rng.Intn(len(ids)); rng.Intn(3) == 0 {
			id := ids[j]
			ids = slices.Delete(ids, j, j+1)
			if n, err := tr.Delete(id, live.rects[id]); err != nil || n != 1 {
				t.Fatalf("Delete(%d) = (%d, %v)", id, n, err)
			}
			live.delete(id)
		} else {
			id := node.RecordID(1000 + i)
			if err := tr.Insert(rects[id], id); err != nil {
				t.Fatal(err)
			}
			live.insert(rects[id], id)
			ids = append(ids, id)
		}
		history[tr.CommitEpoch()] = maps.Clone(live.rects)
		mu.Unlock()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tr.PoolStats().Reused - reused; got == 0 {
		t.Fatal("no miss reused an evicted frame: the test is vacuous")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
