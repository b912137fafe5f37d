package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"segidx/internal/node"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
)

// The crash matrix replays a fixed insert/delete/flush workload over a
// fault-injection disk, cutting power after the Nth disk mutation, and
// asserts the recovered tree is always one of the states that existed at
// a commit boundary:
//
//	crash at op n <= opsA (during or before the first commit):
//	    recover nothing (ErrNoMeta) or state A
//	crash at opsA < n <= opsB (between the commits):
//	    recover state A or state B
//	crash at n > opsB (during the re-commit issued by Close):
//	    recover state B (the final commit rewrites identical metadata)
//
// where opsA and opsB are the disk op counters right after the first and
// second Flush of a fault-free reference run. The workload is
// deterministic — WALStore buffers every mutation in memory, so disk ops
// happen only inside Commit, and batches are encoded in canonical order —
// which makes the op counter a stable coordinate system across replays.

// crashVariant is one of the paper's four index variants.
type crashVariant struct {
	name     string
	cfg      Config
	skeleton bool
	// predict builds the tree with NewPredicted and a sample larger
	// than the first Flush's inserts, so that Flush runs the bracket
	// that builds the skeleton inside commit A.
	predict bool
}

func crashVariants() []crashVariant {
	return []crashVariant{
		{name: "r", cfg: smallConfig(false)},
		{name: "sr", cfg: smallConfig(true)},
		{name: "skr", cfg: skeletonConfig(false), skeleton: true},
		{name: "sksr", cfg: skeletonConfig(true), skeleton: true},
	}
}

const (
	crashPreFlush  = 90 // inserts before the first Flush
	crashDeletes   = 10 // deletes after it, so commit B carries frees
	crashPostFlush = 60 // inserts before the second Flush
)

// driveCrashWorkload replays the fixed workload for a variant over the
// given disk: build (skeleton variants pre-partition the domain), insert,
// Flush, delete+insert, Flush, Close. It reports the disk op counters
// observed right after each Flush and fills mA/mB (when non-nil) with the
// oracle state at those boundaries. In crash runs the returned error is
// the injected power cut; whatever was recorded up to that point is valid.
func driveCrashWorkload(v crashVariant, disk *faultstore.Disk, mA, mB *model) (opsA, opsB int, err error) {
	ws, err := store.OpenWALStoreIn(disk, "idx.db")
	if err != nil {
		return 0, 0, err
	}
	defer ws.Close() // idempotent; rolls back pending state in crash runs
	est := Estimate{Tuples: crashPreFlush + crashPostFlush, Domain: domain1000()}
	var tr *Tree
	if v.predict {
		tr, err = NewPredicted(v.cfg, ws, est, crashPreFlush+1)
	} else {
		tr, err = New(v.cfg, ws)
	}
	if err != nil {
		return 0, 0, err
	}
	if v.skeleton {
		if err := tr.BuildSkeleton(est); err != nil {
			return 0, 0, err
		}
	}
	m := newModel()
	rng := rand.New(rand.NewSource(20260805))
	insert := func(i int) error {
		r := randSegment(rng)
		id := node.RecordID(i + 1)
		if err := tr.Insert(r, id); err != nil {
			return err
		}
		m.insert(r, id)
		return nil
	}
	for i := 0; i < crashPreFlush; i++ {
		if err := insert(i); err != nil {
			return 0, 0, err
		}
	}
	if err := tr.Flush(); err != nil {
		return 0, 0, err
	}
	opsA = disk.Ops()
	if mA != nil {
		for id, r := range m.rects {
			mA.insert(r, id)
		}
	}
	for i := 0; i < crashDeletes; i++ {
		id := node.RecordID(3*i + 1)
		if _, err := tr.Delete(id, m.rects[id]); err != nil {
			return opsA, 0, err
		}
		m.delete(id)
	}
	for i := crashPreFlush; i < crashPreFlush+crashPostFlush; i++ {
		if err := insert(i); err != nil {
			return opsA, 0, err
		}
	}
	if err := tr.Flush(); err != nil {
		return opsA, 0, err
	}
	opsB = disk.Ops()
	if mB != nil {
		for id, r := range m.rects {
			mB.insert(r, id)
		}
	}
	return opsA, opsB, tr.Close()
}

// crashPoints picks the disk op numbers to cut power at: every commit
// boundary's neighborhood plus a stride over the full range — every point
// when SEGIDX_CRASH_EXHAUSTIVE is set (the CI durability job), a coarse
// sample under -short.
func crashPoints(opsA, opsB, total int) []int {
	var stride int
	switch {
	case os.Getenv("SEGIDX_CRASH_EXHAUSTIVE") != "":
		stride = 1
	case testing.Short():
		stride = total/8 + 1
	default:
		stride = total/24 + 1
	}
	seen := make(map[int]bool)
	var pts []int
	add := func(n int) {
		if n >= 1 && n <= total && !seen[n] {
			seen[n] = true
			pts = append(pts, n)
		}
	}
	for n := 1; n <= total; n += stride {
		add(n)
	}
	for _, n := range []int{1, 2, opsA - 1, opsA, opsA + 1, opsB - 1, opsB, opsB + 1, total - 1, total} {
		add(n)
	}
	sort.Ints(pts)
	return pts
}

// crashCell is one (tear, surviving-writes policy) combination applied at
// every crash point.
type crashCell struct {
	tear   int
	policy faultstore.CrashPolicy
	seed   uint64
}

func crashCells() []crashCell {
	tears := []int{0, 7, 1 << 20} // drop the op, keep a 7-byte prefix, keep it whole
	policies := []crashCell{
		{policy: faultstore.KeepNone},
		{policy: faultstore.KeepAll},
		{policy: faultstore.KeepSubset, seed: 1},
	}
	if os.Getenv("SEGIDX_CRASH_EXHAUSTIVE") != "" {
		policies = append(policies,
			crashCell{policy: faultstore.KeepSubset, seed: 2},
			crashCell{policy: faultstore.KeepSubset, seed: 3})
	} else if testing.Short() {
		tears = []int{0, 1 << 20}
		policies = policies[:2]
	}
	cells := make([]crashCell, 0, len(tears)*len(policies))
	for _, tear := range tears {
		for _, p := range policies {
			cells = append(cells, crashCell{tear: tear, policy: p.policy, seed: p.seed})
		}
	}
	return cells
}

// treeMatchesModel reports whether the tree answers exactly like the
// oracle on the full domain and a fixed query sample.
func treeMatchesModel(t *testing.T, tr *Tree, m *model) bool {
	t.Helper()
	if tr.Len() != len(m.rects) {
		return false
	}
	if !idsEqual(searchIDs(t, tr, domain1000()), m.search(domain1000())) {
		return false
	}
	qrng := rand.New(rand.NewSource(555))
	for i := 0; i < 8; i++ {
		q := randQuery(qrng)
		if !idsEqual(searchIDs(t, tr, q), m.search(q)) {
			return false
		}
	}
	return true
}

// recoverAndClassify opens the crash image, runs WAL replay and tree
// recovery, checks invariants, and identifies which commit-boundary state
// came back: "empty", "A", or "B". Anything else fails the test.
func recoverAndClassify(t *testing.T, v crashVariant, img *faultstore.Disk, mA, mB *model, desc string) string {
	t.Helper()
	ws, err := store.OpenWALStoreIn(img, "idx.db")
	if err != nil {
		t.Fatalf("%s: recovery open: %v", desc, err)
	}
	defer ws.Close()
	tr, err := Open(v.cfg, ws)
	if errors.Is(err, ErrNoMeta) {
		return "empty"
	}
	if err != nil {
		t.Fatalf("%s: recovery Open: %v", desc, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: recovered tree violates invariants: %v", desc, err)
	}
	switch {
	case treeMatchesModel(t, tr, mA):
		return "A"
	case treeMatchesModel(t, tr, mB):
		return "B"
	}
	t.Fatalf("%s: recovered tree (%d records) matches neither commit boundary (A=%d, B=%d records)",
		desc, tr.Len(), len(mA.rects), len(mB.rects))
	return ""
}

// verifyRecoveredWritable proves a recovered image is a fully working
// store: the tree accepts new records, flushes, and still validates.
func verifyRecoveredWritable(t *testing.T, v crashVariant, img *faultstore.Disk, desc string) {
	t.Helper()
	ws, err := store.OpenWALStoreIn(img, "idx.db")
	if err != nil {
		t.Fatalf("%s: writable reopen: %v", desc, err)
	}
	defer ws.Close()
	tr, err := Open(v.cfg, ws)
	if errors.Is(err, ErrNoMeta) {
		return // nothing committed yet; a fresh tree is covered elsewhere
	}
	if err != nil {
		t.Fatalf("%s: writable reopen Open: %v", desc, err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(1000+i)); err != nil {
			t.Fatalf("%s: insert after recovery: %v", desc, err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("%s: flush after recovery: %v", desc, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants after post-recovery flush: %v", desc, err)
	}
}

func allowedStates(n, opsA, opsB int) []string {
	switch {
	case n <= opsA:
		return []string{"empty", "A"}
	case n <= opsB:
		return []string{"A", "B"}
	default:
		return []string{"B"}
	}
}

// TestCrashMatrix cuts power at sampled byte-level crash points during
// the workload for all four index variants and asserts recovery always
// lands on a commit boundary. Set SEGIDX_CRASH_EXHAUSTIVE=1 to enumerate
// every crash point (the CI durability job does).
func TestCrashMatrix(t *testing.T) {
	for _, v := range crashVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			runCrashMatrix(t, v)
		})
	}
}

// TestCrashMatrixPredicted runs the crash matrix over a predicted
// skeleton whose first Flush builds the skeleton: every crash inside that
// commit recovers either nothing or the built skeleton with every record
// (Open checks the stored spanning mode against the skeleton's, so a
// persisted staging tree would fail it).
func TestCrashMatrixPredicted(t *testing.T) {
	runCrashMatrix(t, crashVariant{name: "predicted", cfg: skeletonConfig(true), predict: true})
}

// TestFlushCommitFailureKeepsCommitBoundary is the task-4 regression: a
// commit that fails mid-Flush must poison the tree (no stale resident
// nodes served, every later store op rejected) while the durable image
// stays at the previous commit boundary.
func TestFlushCommitFailureKeepsCommitBoundary(t *testing.T) {
	disk := faultstore.NewDisk()
	ws, err := store.OpenWALStoreIn(disk, "idx.db")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(false)
	tr, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		r := randSegment(rng)
		if err := tr.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
		m.insert(r, node.RecordID(i+1))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	// Dirty the tree again, then make the next disk write — the WAL batch
	// append of the second commit — fail.
	for i := 40; i < 80; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	disk.FailWrite(1, boom) // the next disk write: the WAL batch append
	if err := tr.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush with failing commit = %v, want the injected error", err)
	}

	// The store is poisoned and the pool was invalidated: nothing stale is
	// served, every later operation reports the broken store.
	if _, err := tr.Search(domain1000()); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Search after failed commit = %v, want ErrBroken", err)
	}
	if err := tr.Flush(); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("second Flush = %v, want sticky ErrBroken", err)
	}
	if err := tr.Close(); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Close = %v, want ErrBroken from the final flush", err)
	}

	// The durable image is exactly the first commit boundary.
	ws2, err := store.OpenWALStoreIn(disk, "idx.db")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ws2.Close()
	tr2, err := Open(cfg, ws2)
	if err != nil {
		t.Fatalf("reopen Open: %v", err)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !treeMatchesModel(t, tr2, m) {
		t.Fatalf("recovered tree (%d records) does not match the first commit boundary (%d records)",
			tr2.Len(), len(m.rects))
	}
}

func runCrashMatrix(t *testing.T, v crashVariant) {
	mA, mB := newModel(), newModel()
	ref := faultstore.NewDisk()
	opsA, opsB, err := driveCrashWorkload(v, ref, mA, mB)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := ref.Ops()
	if !(0 < opsA && opsA < opsB && opsB <= total) {
		t.Fatalf("degenerate reference run: opsA=%d opsB=%d total=%d", opsA, opsB, total)
	}
	if len(mA.rects) == len(mB.rects) {
		t.Fatalf("commit boundaries indistinguishable by size: both %d records", len(mA.rects))
	}
	points := crashPoints(opsA, opsB, total)
	cells := crashCells()
	t.Logf("%s: opsA=%d opsB=%d total=%d -> %d points x %d cells = %d replays",
		v.name, opsA, opsB, total, len(points), len(cells), len(points)*len(cells))

	runs := 0
	for _, n := range points {
		for _, c := range cells {
			desc := fmt.Sprintf("%s crash@%d/%d tear=%d policy=%v seed=%d",
				v.name, n, total, c.tear, c.policy, c.seed)
			disk := faultstore.NewDisk()
			disk.SetCrashPoint(n, c.tear)
			if _, _, err := driveCrashWorkload(v, disk, nil, nil); err == nil {
				t.Fatalf("%s: workload survived its crash point", desc)
			}
			if !disk.Crashed() {
				t.Fatalf("%s: crash point never fired", desc)
			}
			img := disk.CrashImage(c.policy, c.seed)
			state := recoverAndClassify(t, v, img, mA, mB, desc)
			want := allowedStates(n, opsA, opsB)
			ok := false
			for _, w := range want {
				if state == w {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("%s: recovered state %q, want one of %v", desc, state, want)
			}
			runs++
			if runs%7 == 0 {
				verifyRecoveredWritable(t, v, img, desc)
			}
		}
	}
}
