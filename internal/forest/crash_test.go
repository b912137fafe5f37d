package forest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"segidx/internal/core"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
)

// The forest crash matrix extends the core matrix to the sharded case:
// one fault-injection disk hosts the manifest and every shard's WAL
// store, power is cut after the Nth disk mutation anywhere in the
// forest, and recovery must land every shard on one of its own commit
// boundaries while the flush protocol's ordering invariant holds — no
// shard's durable epoch is ever ahead of the manifest's.
//
// The workload commits twice (states A and B) and closes (a re-commit
// of B). With the flush protocol ordering — manifest first, then the
// shards — the allowed per-shard states mirror the single-tree matrix:
//
//	crash at n <= opsA:      each shard empty or at A
//	crash at opsA < n <= opsB: each shard at A or B
//	crash at n > opsB:       each shard at B
//
// Shards move through a commit independently, so a crash inside a flush
// legitimately leaves a mixed forest (shard 0 at B, shard 1 still at A);
// what can never happen is a shard ahead of the manifest.

const (
	fcShards    = 3
	fcPreFlush  = 60 // inserts before the first Flush
	fcDeletes   = 8  // deletes after it, so commit B carries frees
	fcPostFlush = 40 // inserts before the second Flush
)

// shardModel is the oracle for one shard: the records routed to it.
type shardModel map[node.RecordID]geom.Rect

func (m shardModel) ids() []node.RecordID {
	out := make([]node.RecordID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func snapshotShards(src []shardModel) []shardModel {
	out := make([]shardModel, len(src))
	for i, m := range src {
		out[i] = make(shardModel, len(m))
		for id, r := range m {
			out[i][id] = r
		}
	}
	return out
}

// driveForestCrashWorkload replays the fixed workload over the given
// disk: create the manifest and shard stores, insert, Flush, delete and
// insert, Flush, Close. It reports the disk op counters observed after
// the manifest creation and after each Flush, and fills mA/mB (when
// non-nil) with the per-shard oracle state at those boundaries. In crash
// runs the returned error is the injected power cut.
func driveForestCrashWorkload(disk *faultstore.Disk, mA, mB *[]shardModel) (opsM, opsA, opsB int, err error) {
	mf, err := CreateManifest(disk, "forest.db", fcShards)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = mf.Close() }() // idempotent; Close also closes it
	opsM = disk.Ops()

	shards := make([]Shard, fcShards)
	for i := range shards {
		st, err := store.OpenWALStoreIn(disk, ShardPath("forest.db", i))
		if err != nil {
			return opsM, 0, 0, err
		}
		defer func() { _ = st.Close() }() // idempotent rollback in crash runs
		tr, err := core.New(smallConfig(false), st)
		if err != nil {
			return opsM, 0, 0, err
		}
		shards[i] = Shard{Eng: tr, Store: st}
	}
	f, err := New(shards, Config{Dims: 2, Manifest: mf})
	if err != nil {
		return opsM, 0, 0, err
	}
	// One worker: the disk op counter is a coordinate system across
	// replays only if flushes hit the disk in a deterministic order.
	f.SetParallelism(1)

	model := make([]shardModel, fcShards)
	for i := range model {
		model[i] = make(shardModel)
	}
	rng := rand.New(rand.NewSource(20260808))
	insert := func(i int) error {
		r := randRect(rng)
		id := node.RecordID(i + 1)
		if err := f.Insert(r, id); err != nil {
			return err
		}
		model[f.Route(r)][id] = r
		return nil
	}
	for i := 0; i < fcPreFlush; i++ {
		if err := insert(i); err != nil {
			return opsM, 0, 0, err
		}
	}
	if err := f.Flush(); err != nil {
		return opsM, 0, 0, err
	}
	opsA = disk.Ops()
	if mA != nil {
		*mA = snapshotShards(model)
	}
	for i := 0; i < fcDeletes; i++ {
		id := node.RecordID(3*i + 1)
		for s := range model {
			if r, ok := model[s][id]; ok {
				if _, err := f.Delete(id, r); err != nil {
					return opsM, opsA, 0, err
				}
				delete(model[s], id)
			}
		}
	}
	for i := fcPreFlush; i < fcPreFlush+fcPostFlush; i++ {
		if err := insert(i); err != nil {
			return opsM, opsA, 0, err
		}
	}
	if err := f.Flush(); err != nil {
		return opsM, opsA, 0, err
	}
	opsB = disk.Ops()
	if mB != nil {
		*mB = snapshotShards(model)
	}
	return opsM, opsA, opsB, f.Close()
}

// forestCrashPoints mirrors the core matrix sampling: the neighborhoods
// of every commit boundary plus a stride over the full range — every
// point when SEGIDX_CRASH_EXHAUSTIVE is set, a coarse sample under
// -short.
func forestCrashPoints(opsM, opsA, opsB, total int) []int {
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
	for _, n := range []int{1, 2, opsM, opsM + 1, opsA - 1, opsA, opsA + 1, opsB - 1, opsB, opsB + 1, total - 1, total} {
		add(n)
	}
	sort.Ints(pts)
	return pts
}

type forestCrashCell struct {
	tear   int
	policy faultstore.CrashPolicy
	seed   uint64
}

func forestCrashCells() []forestCrashCell {
	tears := []int{0, 7, 1 << 20}
	policies := []forestCrashCell{
		{policy: faultstore.KeepNone},
		{policy: faultstore.KeepAll},
		{policy: faultstore.KeepSubset, seed: 1},
	}
	if testing.Short() {
		tears = []int{0, 1 << 20}
		policies = policies[:2]
	}
	cells := make([]forestCrashCell, 0, len(tears)*len(policies))
	for _, tear := range tears {
		for _, p := range policies {
			cells = append(cells, forestCrashCell{tear: tear, policy: p.policy, seed: p.seed})
		}
	}
	return cells
}

// shardMatches reports whether eng answers exactly like the shard model.
func shardMatches(t *testing.T, eng core.Engine, m shardModel) bool {
	t.Helper()
	if eng.Len() != len(m) {
		return false
	}
	got, err := eng.Search(geom.Rect2(0, 0, 1000, 1000))
	if err != nil {
		t.Fatalf("recovered shard search: %v", err)
	}
	return sameIDs(ids(got), m.ids())
}

// recoverForestAndClassify reopens the crash image, replays every WAL,
// checks the epoch-ordering invariant, classifies each shard against its
// commit boundaries, and reassembles the full forest to prove it answers
// as the union of the recovered shards. Returns one state per shard
// ("empty", "A", or "B"), or nil when no manifest survived.
func recoverForestAndClassify(t *testing.T, img *faultstore.Disk, mA, mB []shardModel, desc string) []string {
	t.Helper()
	mf, m, err := OpenManifest(img, "forest.db")
	if err != nil {
		if errors.Is(err, ErrNoManifest) {
			return nil
		}
		t.Fatalf("%s: recovery OpenManifest: %v", desc, err)
	}
	if m.Shards != fcShards {
		t.Fatalf("%s: manifest says %d shards, want %d", desc, m.Shards, fcShards)
	}
	states := make([]string, fcShards)
	shards := make([]Shard, fcShards)
	for i := 0; i < fcShards; i++ {
		ws, err := store.OpenWALStoreIn(img, ShardPath("forest.db", i))
		if err != nil {
			t.Fatalf("%s: shard %d recovery open: %v", desc, i, err)
		}
		defer func() { _ = ws.Close() }()
		meta, err := core.ReadMeta(ws)
		if errors.Is(err, core.ErrNoMeta) {
			// Never committed: replace with a fresh empty tree so the
			// forest can still be assembled.
			states[i] = "empty"
			tr, err := core.New(smallConfig(false), ws)
			if err != nil {
				t.Fatalf("%s: shard %d fresh tree: %v", desc, i, err)
			}
			shards[i] = Shard{Eng: tr, Store: ws}
			continue
		}
		if err != nil {
			t.Fatalf("%s: shard %d ReadMeta: %v", desc, i, err)
		}
		// The flush protocol's ordering invariant: the manifest commits
		// before any shard is stamped with the new epoch.
		if meta.FlushEpoch > m.Epoch {
			t.Fatalf("%s: shard %d durable at epoch %d, ahead of manifest epoch %d",
				desc, i, meta.FlushEpoch, m.Epoch)
		}
		tr, err := core.Open(smallConfig(false), ws)
		if err != nil {
			t.Fatalf("%s: shard %d recovery Open: %v", desc, i, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: shard %d violates invariants: %v", desc, i, err)
		}
		switch {
		case shardMatches(t, tr, mA[i]):
			states[i] = "A"
		case shardMatches(t, tr, mB[i]):
			states[i] = "B"
		default:
			t.Fatalf("%s: shard %d (%d records, epoch %d) matches neither boundary (A=%d, B=%d records)",
				desc, i, tr.Len(), meta.FlushEpoch, len(mA[i]), len(mB[i]))
		}
		// The durable epoch must agree with the content it identifies:
		// epoch 1 committed state A; epochs 2 and 3 committed state B.
		wantState := "B"
		if meta.FlushEpoch == 1 {
			wantState = "A"
		}
		if states[i] != wantState {
			t.Fatalf("%s: shard %d at epoch %d holds state %s, epoch says %s",
				desc, i, meta.FlushEpoch, states[i], wantState)
		}
		shards[i] = Shard{Eng: tr, Store: ws}
	}

	// The reassembled forest must answer as the union of its recovered
	// shards and satisfy every forest invariant.
	f, err := New(shards, Config{Dims: 2, Manifest: mf, Epoch: m.Epoch, Rebuild: true})
	if err != nil {
		t.Fatalf("%s: forest reassembly: %v", desc, err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("%s: recovered forest invariants: %v", desc, err)
	}
	var want []node.RecordID
	for i, st := range states {
		switch st {
		case "A":
			want = append(want, mA[i].ids()...)
		case "B":
			want = append(want, mB[i].ids()...)
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	got, err := f.Search(geom.Rect2(0, 0, 1000, 1000))
	if err != nil {
		t.Fatalf("%s: recovered forest search: %v", desc, err)
	}
	if !sameIDs(ids(got), want) {
		t.Fatalf("%s: recovered forest returns %d records, union of shard states has %d",
			desc, len(got), len(want))
	}
	if err := mf.Close(); err != nil {
		t.Fatalf("%s: manifest close: %v", desc, err)
	}
	return states
}

func forestAllowedStates(n, opsA, opsB int) []string {
	switch {
	case n <= opsA:
		return []string{"empty", "A"}
	case n <= opsB:
		return []string{"A", "B"}
	default:
		return []string{"B"}
	}
}

// TestForestCrashMatrix cuts power at sampled disk-op crash points
// during the sharded workload and asserts every shard recovers to a
// commit boundary with the manifest never behind any shard. Set
// SEGIDX_CRASH_EXHAUSTIVE=1 to enumerate every crash point.
func TestForestCrashMatrix(t *testing.T) {
	var mA, mB []shardModel
	ref := faultstore.NewDisk()
	opsM, opsA, opsB, err := driveForestCrashWorkload(ref, &mA, &mB)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := ref.Ops()
	if !(0 < opsM && opsM < opsA && opsA < opsB && opsB <= total) {
		t.Fatalf("degenerate reference run: opsM=%d opsA=%d opsB=%d total=%d", opsM, opsA, opsB, total)
	}
	for i := range mA {
		if len(mA[i]) == 0 || len(mA[i]) == len(mB[i]) {
			t.Fatalf("shard %d boundaries indistinguishable: A=%d B=%d records", i, len(mA[i]), len(mB[i]))
		}
	}
	points := forestCrashPoints(opsM, opsA, opsB, total)
	cells := forestCrashCells()
	t.Logf("opsM=%d opsA=%d opsB=%d total=%d -> %d points x %d cells = %d replays",
		opsM, opsA, opsB, total, len(points), len(cells), len(points)*len(cells))

	for _, n := range points {
		for _, c := range cells {
			desc := fmt.Sprintf("crash@%d/%d tear=%d policy=%v seed=%d", n, total, c.tear, c.policy, c.seed)
			disk := faultstore.NewDisk()
			disk.SetCrashPoint(n, c.tear)
			if _, _, _, err := driveForestCrashWorkload(disk, nil, nil); err == nil {
				t.Fatalf("%s: workload survived its crash point", desc)
			}
			if !disk.Crashed() {
				t.Fatalf("%s: crash point never fired", desc)
			}
			img := disk.CrashImage(c.policy, c.seed)
			states := recoverForestAndClassify(t, img, mA, mB, desc)
			if states == nil {
				// The manifest itself was lost: only possible while its
				// creation commit was still in flight.
				if n > opsM {
					t.Fatalf("%s: manifest lost after its creation committed", desc)
				}
				continue
			}
			want := forestAllowedStates(n, opsA, opsB)
			for i, st := range states {
				ok := false
				for _, w := range want {
					if st == w {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("%s: shard %d recovered %q, want one of %v (all shards: %v)",
						desc, i, st, want, states)
				}
			}
		}
	}
}

// TestForestManifestCommitFailureBreaksForest proves the forest-wide
// broken latch: a manifest commit failure mid-Flush leaves every later
// operation — reads included, on every shard — refusing with ErrBroken,
// while the durable image stays at the previous commit boundary.
func TestForestManifestCommitFailureBreaksForest(t *testing.T) {
	disk := faultstore.NewDisk()
	var mA []shardModel
	// Build the forest by hand so the disk stays writable after Flush A.
	mf, err := CreateManifest(disk, "forest.db", fcShards)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]Shard, fcShards)
	for i := range shards {
		st, err := store.OpenWALStoreIn(disk, ShardPath("forest.db", i))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.New(smallConfig(false), st)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = Shard{Eng: tr, Store: st}
	}
	f, err := New(shards, Config{Dims: 2, Manifest: mf})
	if err != nil {
		t.Fatal(err)
	}
	f.SetParallelism(1)
	model := make([]shardModel, fcShards)
	for i := range model {
		model[i] = make(shardModel)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < fcPreFlush; i++ {
		r := randRect(rng)
		id := node.RecordID(i + 1)
		if err := f.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		model[f.Route(r)][id] = r
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	mA = snapshotShards(model)

	// Dirty the forest, then fail the next disk write: the manifest's
	// epoch-2 slot.
	for i := fcPreFlush; i < fcPreFlush+20; i++ {
		if err := f.Insert(randRect(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	disk.FailWrite(1, boom)
	if err := f.Flush(); !errors.Is(err, boom) || !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Flush with failing manifest commit = %v, want the injected error wrapped in ErrBroken", err)
	}
	if _, err := f.Search(geom.Rect2(0, 0, 1000, 1000)); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Search after failed manifest commit = %v, want ErrBroken", err)
	}
	if err := f.Insert(randRect(rng), 99999); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Insert after failed manifest commit = %v, want ErrBroken", err)
	}
	if err := f.FlushShard(0); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("FlushShard after failed manifest commit = %v, want ErrBroken", err)
	}
	if err := f.Close(); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Close = %v, want ErrBroken", err)
	}

	// The durable image is exactly commit boundary A on every shard.
	states := recoverForestAndClassify(t, disk, mA, mA, "manifest-commit-failure")
	for i, st := range states {
		if st != "A" {
			t.Fatalf("shard %d recovered %q, want the first commit boundary", i, st)
		}
	}
}
