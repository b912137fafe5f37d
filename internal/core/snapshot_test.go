package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
)

// everything is a query rectangle covering any record the tests insert.
func everything() geom.Rect {
	return geom.Rect{Min: []float64{-1e9, -1e9}, Max: []float64{1e9, 1e9}}
}

// snapIDSet collects the deduplicated ID set a view answers for the full
// domain.
func snapIDSet(t *testing.T, v View) map[node.RecordID]bool {
	t.Helper()
	set := make(map[node.RecordID]bool)
	if err := v.SearchFunc(everything(), func(e Entry) bool {
		set[e.ID] = true
		return true
	}); err != nil {
		t.Fatalf("snapshot SearchFunc: %v", err)
	}
	return set
}

func sameIDSet(a, b map[node.RecordID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// TestSnapshotReadersDuringWrites is the MVCC torn-page stress: concurrent
// snapshot readers run StabFunc-style and intersection traversals while a
// single writer commits splits, coalesces, and deletes. Every reader pins a
// view, captures its full-domain ID set once, and then requires every
// subsequent query on that view to be consistent with the pin — identical
// full-domain answers, only intersecting entries, Len frozen. Run with
// -race; the race detector covers the loads the assertions cannot.
func TestSnapshotReadersDuringWrites(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	seedRng := rand.New(rand.NewSource(11))
	const seed = 400
	for i := 0; i < seed; i++ {
		if err := tr.Insert(randSegment(seedRng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		readers   = 4
		repins    = 30 // snapshots pinned per reader
		queries   = 40 // queries per pinned snapshot
		writerOps = 3000
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	var stop atomic.Bool

	// The writer mixes growth (splits), shrinkage (condense/coalesce), and
	// predicate deletes, committing a new epoch on every call.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		rng := rand.New(rand.NewSource(77))
		next := node.RecordID(seed + 1)
		live := make([]node.RecordID, 0, seed)
		for i := 0; i < seed; i++ {
			live = append(live, node.RecordID(i+1))
		}
		for i := 0; i < writerOps; i++ {
			switch {
			case len(live) < 100 || rng.Intn(10) < 6:
				if err := tr.Insert(randSegment(rng), next); err != nil {
					errs <- fmt.Errorf("writer insert: %w", err)
					return
				}
				live = append(live, next)
				next++
			case rng.Intn(20) == 0:
				q := randQuery(rng)
				if _, err := tr.DeleteWhere(q, nil); err != nil {
					errs <- fmt.Errorf("writer delete-where: %w", err)
					return
				}
				// Rebuild the live list lazily: predicate deletes make it
				// stale, which only means some deletes below turn into
				// no-ops — still a committed epoch.
			default:
				j := rng.Intn(len(live))
				id := live[j]
				live = append(live[:j], live[j+1:]...)
				if _, err := tr.Delete(id, everything()); err != nil {
					errs <- fmt.Errorf("writer delete: %w", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + r)))
			for p := 0; p < repins; p++ {
				v := tr.Snapshot()
				pinned := snapIDSet(t, v)
				pinnedLen := v.Len()
				for i := 0; i < queries; i++ {
					q := randQuery(rng)
					err := v.SearchFunc(q, func(e Entry) bool {
						if !e.Rect.Intersects(q) {
							errs <- fmt.Errorf("reader %d: non-intersecting entry %d", r, e.ID)
							return false
						}
						if !pinned[e.ID] {
							errs <- fmt.Errorf("reader %d: entry %d not in pinned set", r, e.ID)
							return false
						}
						return true
					})
					if err != nil {
						errs <- fmt.Errorf("reader %d search: %w", r, err)
						v.Release()
						return
					}
					// Stabbing traversal: containment answers must come
					// from the pinned set too.
					px, py := q.Min[0], q.Min[1]
					stab := geom.Rect{Min: []float64{px, py}, Max: []float64{px, py}}
					err = v.SearchContainingFunc(stab, func(e Entry) bool {
						if !e.Rect.Contains(stab) || !pinned[e.ID] {
							errs <- fmt.Errorf("reader %d: bad stab entry %d", r, e.ID)
							return false
						}
						return true
					})
					if err != nil {
						errs <- fmt.Errorf("reader %d stab: %w", r, err)
						v.Release()
						return
					}
					if got := v.Len(); got != pinnedLen {
						errs <- fmt.Errorf("reader %d: Len moved under snapshot: %d -> %d", r, pinnedLen, got)
						v.Release()
						return
					}
				}
				// The full-domain answer must not have drifted while the
				// writer committed: a torn or reclaimed page would show up
				// as a changed set.
				if !sameIDSet(pinned, snapIDSet(t, v)) {
					errs <- fmt.Errorf("reader %d: snapshot drifted at repin %d", r, p)
					v.Release()
					return
				}
				v.Release()
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadsAcquireNoTreeLock is the deterministic no-lock gate for
// the MVCC read path: with the tree's write lock held (a writer parked
// mid-think), snapshot queries must still complete. If any view method
// touched t.mu the queries would block forever and the watchdog fails the
// test.
func TestSnapshotReadsAcquireNoTreeLock(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	v := tr.Snapshot()
	defer v.Release()
	want := snapIDSet(t, v)

	tr.mu.Lock()
	defer tr.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		got := make(map[node.RecordID]bool)
		err := v.SearchFunc(everything(), func(e Entry) bool {
			got[e.ID] = true
			return true
		})
		if err == nil && !sameIDSet(want, got) {
			err = fmt.Errorf("locked-out search returned %d ids, want %d", len(got), len(want))
		}
		if err == nil {
			_, err = v.Count(everything())
		}
		if err == nil {
			err = v.SearchContainingFunc(geom.Rect{Min: []float64{1, 1}, Max: []float64{1, 1}},
				func(Entry) bool { return true })
		}
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot query blocked while the tree write lock was held: read path acquires a tree-level lock")
	}
}

// TestEpochGCReclaimsVersions checks both directions of the epoch-GC
// contract on the version chains: superseded versions survive exactly as
// long as a snapshot pinned at or before their supersession epoch is live,
// and the last release sweeps them without waiting for a writer.
func TestEpochGCReclaimsVersions(t *testing.T) {
	tr, err := NewInMemory(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	v1 := tr.Snapshot()
	want1 := snapIDSet(t, v1)
	for i := 200; i < 300; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	v2 := tr.Snapshot()
	want2 := snapIDSet(t, v2)
	for i := 0; i < 100; i++ {
		if _, err := tr.Delete(node.RecordID(i+1), everything()); err != nil {
			t.Fatal(err)
		}
	}

	if got := tr.pool.RetainedVersions(); got == 0 {
		t.Fatal("no versions retained while two snapshots pin old epochs")
	}

	// Releasing the NEWER snapshot must not free what the older still
	// needs.
	v2.Release()
	if !sameIDSet(want1, snapIDSet(t, v1)) {
		t.Fatal("v1 lost pages after v2's release")
	}
	_ = want2

	// Releasing the last snapshot sweeps every superseded version on the
	// reader side — no writer required.
	v1.Release()
	if got := tr.pool.RetainedVersions(); got != 0 {
		t.Fatalf("%d superseded versions retained after last snapshot closed", got)
	}
	if st := tr.pool.Stats(); st.Retained != 0 {
		t.Fatalf("pool stats report %d retained frames after last release", st.Retained)
	}

	// And the next committed write executes the deferred store frees.
	before := tr.pool.Stats().DeferredFrees
	if err := tr.Insert(randSegment(rng), node.RecordID(1000)); err != nil {
		t.Fatal(err)
	}
	if after := tr.pool.Stats().DeferredFrees; after < before {
		t.Fatalf("DeferredFrees went backwards: %d -> %d", before, after)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotOps fuzzes pin/commit/release interleavings against two
// invariants: (a) a live snapshot never loses a page — its full-domain
// answer and Len stay frozen at the pin no matter what commits after; (b)
// once the last snapshot closes, no superseded page version survives.
func FuzzSnapshotOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 10, 2, 0, 20, 20, 3, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 2, 2, 1, 0, 0, 3, 3, 4, 0, 3, 1})
	{
		var seed []byte
		for i := 0; i < 30; i++ {
			seed = append(seed, 0, byte(i*7), byte(i*13))
		}
		seed = append(seed, 2, 1, 5, 1, 9, 2, 4, 0, 3, 0, 4, 0, 3, 0)
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip()
		}
		st := store.NewMemStore()
		tr, err := New(smallConfig(true), st)
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		rect := func() geom.Rect {
			x := float64(next()) * 4
			y := float64(next()) * 4
			return geom.Rect{Min: []float64{x, y}, Max: []float64{x + 8, y + 3}}
		}

		type pin struct {
			v    View
			want map[node.RecordID]bool
			len  int
		}
		var pins []pin
		checkPin := func(p pin) {
			if got := p.v.Len(); got != p.len {
				t.Fatalf("snapshot Len drifted: %d -> %d", p.len, got)
			}
			if !sameIDSet(p.want, snapIDSet(t, p.v)) {
				t.Fatal("live snapshot lost or gained pages")
			}
		}

		nextID := node.RecordID(1)
		var liveIDs []node.RecordID
		// mutate runs one write with the pre-op pin of frozenAcross, and
		// flushes now and then so writes meet clean frames too.
		mutations := 0
		mutate := func(write func() error) {
			frozenAcross(t, tr, liveIDs, func() {
				if err := write(); err != nil {
					t.Fatal(err)
				}
			})
			if mutations++; mutations%flushEvery == 0 {
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for pos < len(data) {
			switch next() % 5 {
			case 0: // insert
				r := rect()
				mutate(func() error { return tr.Insert(r, nextID) })
				liveIDs = append(liveIDs, nextID)
				nextID++
			case 1: // delete
				if len(liveIDs) == 0 {
					continue
				}
				i := int(next()) % len(liveIDs)
				id := liveIDs[i]
				mutate(func() error { _, err := tr.Delete(id, everything()); return err })
				liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			case 2: // pin a snapshot (bounded so chains stay interesting)
				if len(pins) >= 6 {
					continue
				}
				v := tr.Snapshot()
				pins = append(pins, pin{v: v, want: snapIDSet(t, v), len: v.Len()})
			case 3: // release one snapshot, verifying it first
				if len(pins) == 0 {
					continue
				}
				i := int(next()) % len(pins)
				checkPin(pins[i])
				pins[i].v.Release()
				pins = append(pins[:i], pins[i+1:]...)
			case 4: // verify a held snapshot mid-flight
				if len(pins) == 0 {
					continue
				}
				checkPin(pins[int(next())%len(pins)])
			}
		}

		// Every surviving snapshot must still answer at its pin, then the
		// final release must leave zero retained versions.
		for _, p := range pins {
			checkPin(p)
			p.v.Release()
		}
		if got := tr.pool.RetainedVersions(); got != 0 {
			t.Fatalf("%d superseded versions retained after all snapshots closed", got)
		}
		if st := tr.pool.Stats(); st.Retained != 0 {
			t.Fatalf("pool stats report %d retained frames after close", st.Retained)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		reopensAsLive(t, tr, st)
	})
}
