package segidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sort"
	"testing"

	"segidx/internal/core"
	"segidx/internal/forest"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
)

// The forest crash matrix extends the core matrix to the sharded case:
// one fault-injection disk hosts the manifest and every shard's WAL
// store, power is cut after the Nth disk mutation anywhere in the
// forest, and recovery must land every shard on one of its own commit
// boundaries.
//
// The workload creates the forest (the manifest's one write), commits
// twice (states A and B) and closes (a re-commit of B). The allowed
// per-shard states mirror the single-tree matrix:
//
//	crash at n <= opsA:      each shard empty or at A
//	crash at opsA < n <= opsB: each shard at A or B
//	crash at n > opsB:       each shard at B
//
// Shards move through a commit independently, so a crash inside a flush
// legitimately leaves a mixed forest (shard 0 at B, shard 1 still at A).
// That is the whole contract: the forest adds no atomicity across shards.

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
	if err := forest.CreateManifest(disk, "forest.db", fcShards); err != nil {
		return 0, 0, 0, err
	}
	opsM = disk.Ops()

	shards := make([]core.Engine, fcShards)

	stores := make([]store.Store, fcShards)
	for i := range shards {
		st, err := store.OpenWALStoreIn(disk, shardPath("forest.db", i, fcShards))
		if err != nil {
			return opsM, 0, 0, err
		}
		defer func() { _ = st.Close() }() // idempotent rollback in crash runs
		tr, err := core.New(smallConfig(false), st)
		if err != nil {
			return opsM, 0, 0, err
		}
		shards[i], stores[i] = tr, st
	}
	f := newIndex(shards, stores)
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
		model[f.ShardOf(id)][id] = r
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
// classifies each shard against its commit boundaries, and reassembles
// the full forest to prove it answers as the union of the recovered
// shards. Returns one state per shard ("empty", "A", or "B"), or nil when
// no manifest survived.
func recoverForestAndClassify(t *testing.T, img *faultstore.Disk, mA, mB []shardModel, desc string) []string {
	t.Helper()
	m, err := forest.OpenManifest(img, "forest.db")
	if err != nil {
		if errors.Is(err, forest.ErrNoManifest) {
			return nil
		}
		t.Fatalf("%s: recovery OpenManifest: %v", desc, err)
	}
	if m.Shards != fcShards {
		t.Fatalf("%s: manifest says %d shards, want %d", desc, m.Shards, fcShards)
	}
	states := make([]string, fcShards)
	shards := make([]core.Engine, fcShards)
	stores := make([]store.Store, fcShards)
	for i := 0; i < fcShards; i++ {
		ws, err := store.OpenWALStoreIn(img, shardPath("forest.db", i, fcShards))
		if err != nil {
			t.Fatalf("%s: shard %d recovery open: %v", desc, i, err)
		}
		defer func() { _ = ws.Close() }()
		_, err = core.ReadMeta(ws)
		if errors.Is(err, core.ErrNoMeta) {
			// Never committed: replace with a fresh empty tree so the
			// forest can still be assembled.
			states[i] = "empty"
			tr, err := core.New(smallConfig(false), ws)
			if err != nil {
				t.Fatalf("%s: shard %d fresh tree: %v", desc, i, err)
			}
			shards[i], stores[i] = tr, ws
			continue
		}
		if err != nil {
			t.Fatalf("%s: shard %d ReadMeta: %v", desc, i, err)
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
			t.Fatalf("%s: shard %d (%d records) matches neither boundary (A=%d, B=%d records)",
				desc, i, tr.Len(), len(mA[i]), len(mB[i]))
		}
		shards[i], stores[i] = tr, ws
	}

	// The reassembled forest must answer as the union of its recovered
	// shards and satisfy every forest invariant.
	f := newIndex(shards, stores)
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
// during the sharded workload and asserts every shard recovers to one of
// its own commit boundaries, and the manifest is lost only while its
// creation was in flight. Set SEGIDX_CRASH_EXHAUSTIVE=1 to enumerate
// every crash point.
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

// TestForestShardCommitFailureBreaksForest proves the forest-wide broken
// latch: one shard's failed commit leaves every later operation — reads,
// writes and FlushShard, on every shard — refusing with ErrBroken, while
// the durable image stays at the previous commit boundary on every shard.
func TestForestShardCommitFailureBreaksForest(t *testing.T) {
	disk := faultstore.NewDisk()
	f, model := newDurableForest(t, disk)
	f.SetParallelism(1)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	mA := snapshotShards(model)

	// Dirty every shard, then fail the next disk write: shard 0's log
	// write, the first step of its commit.
	rng := rand.New(rand.NewSource(7))
	for i := fcPreFlush; i < fcPreFlush+20; i++ {
		if err := f.Insert(randRect(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	disk.FailWrite(1, boom)
	if err := f.FlushShard(0); !errors.Is(err, boom) || !errors.Is(err, store.ErrBroken) {
		t.Fatalf("FlushShard with a failing log write = %v, want the injected error wrapped in ErrBroken", err)
	}
	if _, err := f.Search(geom.Rect2(0, 0, 1000, 1000)); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Search after a failed shard commit = %v, want ErrBroken", err)
	}
	if _, err := f.Count(geom.Rect2(0, 0, 1000, 1000)); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Count after a failed shard commit = %v, want ErrBroken", err)
	}
	for i := 0; i < fcShards; i++ {
		id := node.RecordID(100000)
		for f.ShardOf(id) != i {
			id++
		}
		if err := f.Insert(randRect(rng), id); !errors.Is(err, store.ErrBroken) {
			t.Fatalf("Insert on shard %d after a failed shard commit = %v, want ErrBroken", i, err)
		}
		if err := f.FlushShard(i); !errors.Is(err, store.ErrBroken) {
			t.Fatalf("FlushShard(%d) after a failed shard commit = %v, want ErrBroken", i, err)
		}
	}
	if err := f.Flush(); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Flush after a failed shard commit = %v, want ErrBroken", err)
	}
	if err := f.Close(); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Close = %v, want ErrBroken", err)
	}

	// The durable image is exactly commit boundary A on every shard.
	states := recoverForestAndClassify(t, disk, mA, mA, "shard-commit-failure")
	for i, st := range states {
		if st != "A" {
			t.Fatalf("shard %d recovered %q, want the first commit boundary", i, st)
		}
	}
}

// newDurableForest creates a forest of fcShards durable R-Tree shards on
// disk and inserts fcPreFlush records, unflushed. It returns the forest
// and the records each shard holds.
func newDurableForest(t *testing.T, disk *faultstore.Disk) (*Index, []shardModel) {
	t.Helper()
	if err := forest.CreateManifest(disk, "forest.db", fcShards); err != nil {
		t.Fatal(err)
	}
	shards := make([]core.Engine, fcShards)
	stores := make([]store.Store, fcShards)
	for i := range shards {
		st, err := store.OpenWALStoreIn(disk, shardPath("forest.db", i, fcShards))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.New(smallConfig(false), st)
		if err != nil {
			t.Fatal(err)
		}
		shards[i], stores[i] = tr, st
	}
	f := newIndex(shards, stores)
	model := make([]shardModel, fcShards)
	for i := range model {
		model[i] = make(shardModel)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < fcPreFlush; i++ {
		r, id := randRect(rng), node.RecordID(i+1)
		if err := f.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		model[f.ShardOf(id)][id] = r
	}
	return f, model
}

// manifestSlot encodes one manifest slot by hand, as the format
// (internal/forest/manifest.go) lays it out at version 2: the bytes every
// build reads and writes, pinned here independently of the encoder.
func manifestSlot(shards int, epoch uint64) []byte {
	slot := make([]byte, 64)
	binary.LittleEndian.PutUint32(slot[0:4], 0x5347464d) // "SGFM"
	binary.LittleEndian.PutUint16(slot[4:6], 2)
	binary.LittleEndian.PutUint16(slot[6:8], uint16(shards))
	binary.LittleEndian.PutUint64(slot[8:16], epoch)
	binary.LittleEndian.PutUint32(slot[60:64], crc32.ChecksumIEEE(slot[:60]))
	return slot
}

// writeSlots writes one manifest slot per epoch into path, as a build that
// committed a bumped epoch on every flush left them: epoch E in slot E%2.
func writeSlots(t *testing.T, fsys store.FS, path string, shards int, epochs ...uint64) {
	t.Helper()
	f, err := fsys.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range epochs {
		if _, err := f.WriteAt(manifestSlot(shards, e), int64(e%2)*64); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// metaEpochWord is where builds that stamped a forest flush epoch on every
// shard kept it: bytes 48:56 of the tree's metadata page, now reserved and
// written 0.
const metaEpochWord = 48

// metaPage is the page every tree keeps its metadata on.
const metaPage = page.ID(1)

// shardMetaWord reads or, with set, rewrites and commits the epoch word of
// shard i's metadata page.
func shardMetaWord(t *testing.T, disk *faultstore.Disk, i int, set *uint64) uint64 {
	t.Helper()
	ws, err := store.OpenWALStoreIn(disk, shardPath("forest.db", i, fcShards))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ws.Close() }()
	buf, err := ws.Read(metaPage)
	if err != nil {
		t.Fatal(err)
	}
	if set != nil {
		buf = append([]byte(nil), buf...)
		binary.LittleEndian.PutUint64(buf[metaEpochWord:], *set)
		if err := ws.Write(metaPage, buf); err != nil {
			t.Fatal(err)
		}
		if err := ws.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return binary.LittleEndian.Uint64(buf[metaEpochWord:])
}

// TestManifestFormatCompatibility checks the on-disk format in both
// directions. A forest written by a build that bumped the manifest epoch on
// every flush and stamped it on every shard opens whole under this build;
// a forest this build writes holds what such a build reads as a forest
// never flushed since creation — manifest epoch 0 and every shard at epoch
// 0, which its "shard ahead of the manifest" check accepts.
func TestManifestFormatCompatibility(t *testing.T) {
	t.Run("older forest opens", func(t *testing.T) {
		disk := faultstore.NewDisk()
		f, model := newDurableForest(t, disk)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// The older build's image after two flushes and a close: manifest
		// slots at epochs 2 and 3, every shard stamped 3.
		writeSlots(t, disk, "forest.db", fcShards, 2, 3)
		three := uint64(3)
		for i := 0; i < fcShards; i++ {
			shardMetaWord(t, disk, i, &three)
			if w := shardMetaWord(t, disk, i, nil); w != 3 {
				t.Fatalf("shard %d metadata word reads %d after stamping 3", i, w)
			}
		}
		if m, err := forest.OpenManifest(disk, "forest.db"); err != nil || m != (forest.Manifest{Shards: fcShards, Epoch: 3}) {
			t.Fatalf("OpenManifest = %+v, %v, want %d shards at epoch 3", m, err, fcShards)
		}
		// Every shard recovers whole and the forest passes CheckInvariants.
		for i, st := range recoverForestAndClassify(t, disk, model, model, "older forest") {
			if st != "A" {
				t.Fatalf("shard %d recovered %q, want every record", i, st)
			}
		}
	})
	t.Run("this build's forest reads as never flushed", func(t *testing.T) {
		disk := faultstore.NewDisk()
		f, _ := newDurableForest(t, disk)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		want := manifestSlot(fcShards, 0)
		if got := readFile(t, disk, "forest.db"); !bytes.Equal(got, want) {
			t.Fatalf("manifest file = %x, want one epoch-0 slot %x", got, want)
		}
		for i := 0; i < fcShards; i++ {
			if w := shardMetaWord(t, disk, i, nil); w != 0 {
				t.Fatalf("shard %d metadata word %d:%d = %d, want 0", i, metaEpochWord, metaEpochWord+8, w)
			}
		}
	})
}
