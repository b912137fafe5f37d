package segidx_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"segidx"
)

// The MVCC differential battery: a snapshot pinned at epoch E must keep
// answering queries exactly as the index answered them at E, no matter how
// many commits land afterwards. Every combination of index variant and
// shard count runs a randomized mutation sequence; at intervals it pins a
// snapshot AND builds a frozen mirror — a fresh single-tree index loaded
// with the live record set at that instant — then keeps both around while
// the writer continues. Every held snapshot is repeatedly compared against
// its mirror across all query families; any divergence means a writer
// commit leaked into a pinned view.

// variantKinds is the variant table the differential batteries run over:
// the paper's four indexes, plus the predicted skeleton with a sample so
// large (half the expected input) that a run starts on the staging tree
// and crosses the staging-to-skeleton swap midway.
var variantKinds = []string{"r-tree", "sr-tree", "skeleton-r-tree", "skeleton-sr-tree", "skeleton-sr-tree/sampling"}

// mkVariant builds one index of the named kind (shards <= 1 for a plain
// tree).
func mkVariant(t *testing.T, kind string, shards, tuples int) *segidx.Index {
	t.Helper()
	opts := []segidx.Option{segidx.WithLeafNodeBytes(256)}
	if shards > 1 {
		opts = append(opts, segidx.WithShards(shards))
	}
	est := segidx.SkeletonEstimate{
		Tuples: tuples,
		Domain: segidx.Box(0, 0, 1000, 1000),
	}
	pred := est
	pred.PredictFraction = 0.05
	var x *segidx.Index
	var err error
	switch kind {
	case "r-tree":
		x, err = segidx.NewRTree(opts...)
	case "sr-tree":
		x, err = segidx.NewSRTree(opts...)
	case "skeleton-r-tree":
		x, err = segidx.NewSkeletonRTree(est, opts...)
	case "skeleton-sr-tree":
		x, err = segidx.NewSkeletonSRTree(pred, opts...)
	case "skeleton-sr-tree/sampling":
		pred.PredictFraction = 0.5
		x, err = segidx.NewSkeletonSRTree(pred, opts...)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// pinnedSnap pairs a live snapshot with its frozen mirror and the state
// counters captured at pin time.
type pinnedSnap struct {
	view    segidx.View
	mirror  *segidx.Index
	pinLen  int
	pinStep int
}

// freezeMirror builds a fresh single-tree index holding exactly the
// portions live at pin time. The mirror of a sampling variant is the
// variant with the small sample, so a view pinned on the staging tree is
// compared against a built skeleton.
func freezeMirror(t *testing.T, kind string, live map[segidx.RecordID][]segidx.Rect, tuples int) *segidx.Index {
	t.Helper()
	m := mkVariant(t, strings.TrimSuffix(kind, "/sampling"), 1, tuples)
	for id, rects := range live {
		for _, r := range rects {
			if err := m.Insert(r, id); err != nil {
				t.Fatalf("mirror insert: %v", err)
			}
		}
	}
	return m
}

// compareSnap checks one held snapshot against its mirror on a query: same
// intersection set, same containment set, same count, same streamed sets,
// and a stable Len.
func compareSnap(t *testing.T, step int, s pinnedSnap, q segidx.Rect) {
	t.Helper()
	tag := fmt.Sprintf("step %d, snapshot pinned at step %d", step, s.pinStep)

	want, err1 := s.mirror.Search(q)
	got, err2 := s.view.Search(q)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: Search errors: %v vs %v", tag, err1, err2)
	}
	if !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
		t.Fatalf("%s: Search(%v) diverges: mirror %v, snapshot %v",
			tag, q, sortedIDs(want), sortedIDs(got))
	}

	wantC, err1 := s.mirror.SearchContaining(q)
	gotC, err2 := s.view.SearchContaining(q)
	if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(wantC), sortedIDs(gotC)) {
		t.Fatalf("%s: SearchContaining diverges (%v, %v): %v vs %v",
			tag, err1, err2, sortedIDs(wantC), sortedIDs(gotC))
	}

	wantN, err1 := s.mirror.Count(q)
	gotN, err2 := s.view.Count(q)
	if err1 != nil || err2 != nil || wantN != gotN {
		t.Fatalf("%s: Count(%v) = %d/%v vs %d/%v", tag, q, wantN, err1, gotN, err2)
	}

	// Stab at the query corner through the streaming paths.
	p := segidx.Point(q.Min[0], q.Min[1])
	wantS, err1 := uniqueIDs(func(fn func(segidx.Entry) bool) error {
		return s.mirror.StabFunc(fn, q.Min[0], q.Min[1])
	})
	gotS, err2 := uniqueIDs(func(fn func(segidx.Entry) bool) error {
		return s.view.SearchContainingFunc(p, fn)
	})
	if err1 != nil || err2 != nil || !equalIDSets(wantS, gotS) {
		t.Fatalf("%s: stab streams diverge (%v, %v): %d vs %d ids",
			tag, err1, err2, len(wantS), len(gotS))
	}

	wantF, err1 := uniqueIDs(func(fn func(segidx.Entry) bool) error {
		return s.mirror.SearchFunc(q, fn)
	})
	gotF, err2 := uniqueIDs(func(fn func(segidx.Entry) bool) error {
		return s.view.SearchFunc(q, fn)
	})
	if err1 != nil || err2 != nil || !equalIDSets(wantF, gotF) {
		t.Fatalf("%s: SearchFunc diverges (%v, %v)", tag, err1, err2)
	}

	if got := s.view.Len(); got != s.pinLen {
		t.Fatalf("%s: snapshot Len = %d, want pinned %d", tag, got, s.pinLen)
	}
}

func runSnapshotDifferential(t *testing.T, kind string, shards int, seed int64, nOps int) {
	dut := mkVariant(t, kind, shards, nOps/2)
	defer func() {
		if err := dut.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	live := make(map[segidx.RecordID][]segidx.Rect)
	var liveIDs []segidx.RecordID
	nextID := segidx.RecordID(1)
	var pins []pinnedSnap
	defer func() {
		for _, s := range pins {
			s.view.Release()
			if err := s.mirror.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}()

	var lastEpoch uint64
	for step := 0; step < nOps; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // insert, occasionally extending a live record
			var id segidx.RecordID
			if len(liveIDs) > 0 && rng.Intn(10) == 0 {
				id = liveIDs[rng.Intn(len(liveIDs))]
			} else {
				id = nextID
				nextID++
				liveIDs = append(liveIDs, id)
			}
			r := diffRect(rng)
			if err := dut.Insert(r, id); err != nil {
				t.Fatalf("step %d: Insert: %v", step, err)
			}
			live[id] = append(live[id], r)
		case op < 72: // delete a live record when one exists
			if len(liveIDs) == 0 {
				continue
			}
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			hint := live[id][0]
			for _, r := range live[id][1:] {
				hint = hint.Union(r)
			}
			delete(live, id)
			if _, err := dut.Delete(id, hint); err != nil {
				t.Fatalf("step %d: Delete(%d): %v", step, id, err)
			}
		default: // compare every held snapshot against its mirror
			q := diffRect(rng)
			if step%9 == 0 {
				q = segidx.Box(q.Min[0], q.Min[1], q.Min[0], q.Min[1])
			}
			for _, s := range pins {
				compareSnap(t, step, s, q)
			}
		}

		// The commit epoch never runs backwards, the staging-to-skeleton
		// swap included: the HTTP result cache keys on it.
		epoch := dut.CommitEpoch()
		if epoch < lastEpoch {
			t.Fatalf("step %d: CommitEpoch went from %d back to %d", step, lastEpoch, epoch)
		}
		lastEpoch = epoch

		// Pin a new long-lived snapshot at a fixed cadence; the earliest
		// pins live the longest, stretching the version chains and the
		// epoch-GC horizon.
		if step%(nOps/6) == nOps/12 {
			view := dut.Snapshot()
			if view.Epoch() != epoch {
				t.Fatalf("step %d: Snapshot().Epoch() = %d, CommitEpoch() = %d", step, view.Epoch(), epoch)
			}
			pins = append(pins, pinnedSnap{
				view:    view,
				mirror:  freezeMirror(t, kind, live, nOps/2),
				pinLen:  dut.Len(),
				pinStep: step,
			})
		}
	}

	// Final full sweep on every snapshot, then release and verify the
	// released views fail closed.
	all := segidx.Box(0, 0, 1000, 1000)
	for _, s := range pins {
		compareSnap(t, nOps, s, all)
	}
	if err := dut.CheckInvariants(); err != nil {
		t.Fatalf("invariants after snapshots: %v", err)
	}
	for _, s := range pins {
		s.view.Release()
		if _, err := s.view.Search(all); !errors.Is(err, segidx.ErrSnapshotReleased) {
			t.Fatalf("released view Search error = %v, want ErrSnapshotReleased", err)
		}
	}
}

func TestSnapshotDifferential(t *testing.T) {
	shardCounts := []int{1, 4}
	nOps := 600
	if testing.Short() {
		nOps = 180
	}
	for _, kind := range variantKinds {
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				runSnapshotDifferential(t, kind, shards, int64(len(kind))*37+int64(shards), nOps)
			})
		}
	}
}
