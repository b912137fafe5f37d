package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
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
