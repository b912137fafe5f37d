package segidx

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"segidx/internal/core"
	"segidx/internal/forest"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
)

// smallConfig mirrors the core test configuration: tiny pages so shards
// grow real depth on small datasets.
func smallConfig(spanning bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Sizes.LeafBytes = 256
	cfg.Spanning = spanning
	return cfg
}

// newMemForest builds an n-shard forest of SR-Trees over fresh in-memory
// stores, without a manifest.
func newMemForest(t *testing.T, n int, spanning bool) *Index {
	t.Helper()
	shards := make([]core.Engine, n)
	stores := make([]store.Store, n)
	for i := range shards {
		st := store.NewMemStore()
		tr, err := core.New(smallConfig(spanning), st)
		if err != nil {
			t.Fatal(err)
		}
		shards[i], stores[i] = tr, st
	}
	return newIndex(shards, stores)
}

// randRect draws a rectangle of sides below 50 inside [0, 1050]².
func randRect(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64()*1000, rng.Float64()*1000
	w, h := rng.Float64()*50, rng.Float64()*50
	return geom.Rect2(x, y, x+w, y+h)
}

func ids(entries []core.Entry) []node.RecordID {
	out := make([]node.RecordID, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.ID)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func sameIDs(a, b []node.RecordID) bool {
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

// TestForestMatchesModel drives a forest against a brute-force model:
// interleaved inserts and deletes, then intersection, containment, and
// within queries compared exactly.
func TestForestMatchesModel(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		f := newMemForest(t, shards, true)
		rng := rand.New(rand.NewSource(int64(shards)))
		rects := make(map[node.RecordID]geom.Rect)
		for i := 0; i < 600; i++ {
			id := node.RecordID(i + 1)
			r := randRect(rng)
			if err := f.Insert(r, id); err != nil {
				t.Fatal(err)
			}
			rects[id] = r
			if i%7 == 3 {
				victim := node.RecordID(rng.Intn(i+1) + 1)
				if hint, ok := rects[victim]; ok {
					n, err := f.Delete(victim, hint)
					if err != nil {
						t.Fatal(err)
					}
					if n != 1 {
						t.Fatalf("Delete(%d) removed %d", victim, n)
					}
					delete(rects, victim)
				}
			}
		}
		if f.Len() != len(rects) {
			t.Fatalf("shards=%d: Len=%d, model=%d", shards, f.Len(), len(rects))
		}
		for q := 0; q < 150; q++ {
			query := randRect(rng)
			var wantHit, wantWithin, wantContain []node.RecordID
			for id, r := range rects {
				if r.Intersects(query) {
					wantHit = append(wantHit, id)
				}
				if query.Contains(r) {
					wantWithin = append(wantWithin, id)
				}
				if r.Contains(query) {
					wantContain = append(wantContain, id)
				}
			}
			sort.Slice(wantHit, func(a, b int) bool { return wantHit[a] < wantHit[b] })
			sort.Slice(wantWithin, func(a, b int) bool { return wantWithin[a] < wantWithin[b] })
			sort.Slice(wantContain, func(a, b int) bool { return wantContain[a] < wantContain[b] })

			got, err := f.Search(query)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(ids(got), wantHit) {
				t.Fatalf("shards=%d Search(%v): got %v want %v", shards, query, ids(got), wantHit)
			}
			n, err := f.Count(query)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(wantHit) {
				t.Fatalf("shards=%d Count=%d want %d", shards, n, len(wantHit))
			}
			within, err := f.SearchWithin(query)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(ids(within), wantWithin) {
				t.Fatalf("shards=%d SearchWithin: got %v want %v", shards, ids(within), wantWithin)
			}
			containing, err := f.SearchContaining(query)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(ids(containing), wantContain) {
				t.Fatalf("shards=%d SearchContaining: got %v want %v", shards, ids(containing), wantContain)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

// TestForestIDReuseStaysOnOneShard verifies the placement invariant: a
// second insert under a live ID lands on the ID's home shard however far
// its rectangle lies from the first, so dedup and delete semantics survive
// sharding.
func TestForestIDReuseStaysOnOneShard(t *testing.T) {
	f := newMemForest(t, 4, true)
	a := geom.Rect2(0, 0, 10, 10)
	b := geom.Rect2(900, 900, 910, 910)
	if err := f.Insert(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Len mirrors the single tree, which counts every insert — including
	// an ID reuse — and removes one per deleted logical record.
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (single-tree reuse semantics)", f.Len())
	}
	// Searching a region covering both portions reports the ID once.
	got, err := f.Search(geom.Rect2(-1, -1, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Search = %v, want exactly ID 1", ids(got))
	}
	// Delete with a hint covering both portions removes the whole record.
	n, err := f.Delete(1, geom.Rect2(-1, -1, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || f.Len() != 1 {
		t.Fatalf("Delete removed %d, Len=%d (want 1, 1: single-tree reuse semantics)", n, f.Len())
	}
	got, err = f.Search(geom.Rect2(-1, -1, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("record survived delete: %v", ids(got))
	}
}

// TestForestRejectsBadRectangles checks that an empty forest reports the
// errors a single tree would: the shards check every rectangle, with or
// without records to search.
func TestForestRejectsBadRectangles(t *testing.T) {
	f := newMemForest(t, 2, false)
	bad := geom.Rect{Min: []float64{1, 1}, Max: []float64{0, 0}}
	if _, err := f.Search(bad); !errors.Is(err, core.ErrBadRect) {
		t.Fatalf("Search(bad) = %v, want ErrBadRect", err)
	}
	wrong := geom.MustRect([]float64{0}, []float64{1})
	if _, err := f.Count(wrong); !errors.Is(err, core.ErrDims) {
		t.Fatalf("Count(1-d) = %v, want ErrDims", err)
	}
	if err := f.Insert(bad, 1); !errors.Is(err, core.ErrBadRect) {
		t.Fatalf("Insert(bad) = %v, want ErrBadRect", err)
	}
	if _, err := f.Delete(9, bad); !errors.Is(err, core.ErrBadRect) {
		t.Fatalf("Delete(bad hint) = %v, want ErrBadRect", err)
	}
	if err := f.SearchFunc(wrong, func(core.Entry) bool { return true }); !errors.Is(err, core.ErrDims) {
		t.Fatalf("SearchFunc(1-d) = %v, want ErrDims", err)
	}
}

func TestForestStreamEarlyStopCrossesShards(t *testing.T) {
	f := newMemForest(t, 4, true)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if err := f.Insert(randRect(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	everything := geom.Rect2(-1, -1, 2000, 2000)
	calls := 0
	if err := f.SearchFunc(everything, func(core.Entry) bool {
		calls++
		return calls < 3
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("early stop leaked: %d callbacks", calls)
	}
	calls = 0
	if err := f.VisitPortions(func(int, core.Entry) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("VisitPortions early stop leaked: %d callbacks", calls)
	}
}

// countingFS counts the writes (WriteAt and Truncate) and Syncs made
// through the files it opens, per file name.
type countingFS struct {
	store.FS
	mu            sync.Mutex
	writes, syncs map[string]int
}

func newCountingFS(fsys store.FS) *countingFS {
	return &countingFS{FS: fsys, writes: make(map[string]int), syncs: make(map[string]int)}
}

func (c *countingFS) OpenFile(name string) (store.File, error) {
	f, err := c.FS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, c: c, name: name}, nil
}

func (c *countingFS) count(m map[string]int, name string) {
	c.mu.Lock()
	m[name]++
	c.mu.Unlock()
}

// counts reports the writes and syncs made to name so far.
func (c *countingFS) counts(name string) (writes, syncs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes[name], c.syncs[name]
}

type countingFile struct {
	store.File
	c    *countingFS
	name string
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.count(f.c.writes, f.name)
	return f.File.WriteAt(p, off)
}

func (f countingFile) Truncate(size int64) error {
	f.c.count(f.c.writes, f.name)
	return f.File.Truncate(size)
}

func (f countingFile) Sync() error {
	f.c.count(f.c.syncs, f.name)
	return f.File.Sync()
}

// TestForestNeverRewritesManifest pins the manifest as a file written
// once: creating the forest writes and syncs it once, and afterwards no
// mix of Flush, FlushShard and Close writes or syncs it again, so its
// bytes stay identical while every shard commits.
func TestForestNeverRewritesManifest(t *testing.T) {
	const shardCount = 2
	disk := faultstore.NewDisk()
	fsys := newCountingFS(disk)
	if err := forest.CreateManifest(fsys, "forest.db", shardCount); err != nil {
		t.Fatal(err)
	}
	if w, s := fsys.counts("forest.db"); w != 1 || s != 1 {
		t.Fatalf("creating the manifest made %d writes and %d syncs, want 1 and 1", w, s)
	}
	created := readFile(t, disk, "forest.db")
	shards := make([]core.Engine, shardCount)
	stores := make([]store.Store, shardCount)
	for i := range shards {
		st, err := store.OpenWALStoreIn(fsys, shardPath("forest.db", i, shardCount))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.New(smallConfig(true), st)
		if err != nil {
			t.Fatal(err)
		}
		shards[i], stores[i] = tr, st
	}
	f := newIndex(shards, stores)
	rng := rand.New(rand.NewSource(3))
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := f.Insert(randRect(rng), node.RecordID(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 50)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	insert(50, 80)
	for i := 0; i < shardCount; i++ {
		if err := f.FlushShard(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.FlushShard(5); err == nil {
		t.Fatal("FlushShard(out of range) succeeded")
	}
	insert(80, 100)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	insert(100, 110)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if w, s := fsys.counts("forest.db"); w != 1 || s != 1 {
		t.Fatalf("the manifest saw %d writes and %d syncs after its creation, want 0 and 0", w-1, s-1)
	}
	for i := 0; i < shardCount; i++ {
		if _, s := fsys.counts(shardPath("forest.db", i, shardCount)); s == 0 {
			t.Fatalf("shard %d's page file was never synced: the flushes committed nothing", i)
		}
	}
	if got := readFile(t, disk, "forest.db"); !bytes.Equal(got, created) {
		t.Fatalf("the manifest's bytes changed after its creation:\n%x\n%x", created, got)
	}
	m, err := forest.OpenManifest(disk, "forest.db")
	if err != nil {
		t.Fatal(err)
	}
	if m != (forest.Manifest{Shards: shardCount}) {
		t.Fatalf("manifest = %+v, want %d shards at epoch 0", m, shardCount)
	}
}

// readFile returns the whole content of name inside fsys.
func readFile(t *testing.T, fsys store.FS, name string) []byte {
	t.Helper()
	f, err := fsys.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestForestPlacement assembles a forest over shards that come with data,
// as a reopen or a bulk load does: shards filled by RouteID answer and
// delete through the forest, while a record planted on the wrong shard is
// reported by CheckInvariants.
func TestForestPlacement(t *testing.T) {
	const shards = 3
	// mkForest fills each shard through place, then assembles the forest.
	mkForest := func(t *testing.T, place func(id node.RecordID) int) (*Index, map[node.RecordID]geom.Rect) {
		out := make([]core.Engine, shards)
		stores := make([]store.Store, shards)
		for i := range out {
			st := store.NewMemStore()
			tr, err := core.New(smallConfig(true), st)
			if err != nil {
				t.Fatal(err)
			}
			out[i], stores[i] = tr, st
		}
		rng := rand.New(rand.NewSource(1))
		rects := make(map[node.RecordID]geom.Rect)
		for id := node.RecordID(1); id <= 240; id++ {
			r := randRect(rng)
			if err := out[place(id)].Insert(r, id); err != nil {
				t.Fatal(err)
			}
			rects[id] = r
		}
		return newIndex(out, stores), rects
	}

	f, rects := mkForest(t, func(id node.RecordID) int { return forest.RouteID(id, shards) })
	if f.Len() != len(rects) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(rects))
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for id, r := range rects {
		if id%2 == 0 {
			if n, err := f.Delete(id, r); err != nil || n != 1 {
				t.Fatalf("Delete(%d) = %d, %v", id, n, err)
			}
			delete(rects, id)
		}
	}
	got, err := f.Search(geom.Rect2(-1, -1, 1100, 1100))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rects) || f.Len() != len(rects) {
		t.Fatalf("after deletes: Search %d, Len %d, want %d", len(got), f.Len(), len(rects))
	}

	// One record on a shard its ID does not route to: assembly reads no
	// page, so only the invariant check can tell.
	const stray = node.RecordID(7)
	f, _ = mkForest(t, func(id node.RecordID) int {
		if id == stray {
			return (forest.RouteID(id, shards) + 1) % shards
		}
		return forest.RouteID(id, shards)
	})
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a record stored on the wrong shard")
	}
}

// TestForestAggregation checks Stats/PoolStats/Analyze merge per-shard
// numbers without double counting: sums of disjoint shard counters.
func TestForestAggregation(t *testing.T) {
	f := newMemForest(t, 4, true)
	rng := rand.New(rand.NewSource(11))
	rects := make([]geom.Rect, 700)
	for i := range rects {
		rects[i] = randRect(rng)
	}
	for i := 0; i < 400; i++ {
		if err := f.Insert(rects[i], node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// With a snapshot held, every page a write touches is cloned and its
	// superseded version retained: the MVCC pool counters all move.
	v := f.Snapshot()
	defer v.Release()
	for i := 400; i < 700; i++ {
		if err := f.Insert(rects[i], node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
		if n, err := f.Delete(node.RecordID(i-399), rects[i-400]); err != nil || n != 1 {
			t.Fatalf("Delete(%d) = %d, %v", i-399, n, err)
		}
	}
	for q := 0; q < 40; q++ {
		if _, err := f.Search(randRect(rng)); err != nil {
			t.Fatal(err)
		}
	}
	got := f.Stats()
	checkFieldSums(t, "Stats", got, f.ShardStats())
	if got.Inserts != 700 || got.Deletes != 300 || got.Searches == 0 {
		t.Fatalf("Stats = %+v, want 700 inserts, 300 deletes, some searches", got)
	}
	ps := f.PoolStats()
	checkFieldSums(t, "PoolStats", ps, f.ShardPoolStats())
	if ps.Gets == 0 || ps.Clones == 0 || ps.Retained == 0 {
		t.Fatalf("PoolStats = %+v, want Gets, Clones and Retained to have moved", ps)
	}

	lens := f.ShardLens()
	sum := 0
	for _, n := range lens {
		sum += n
	}
	if sum != f.Len() || sum != 400 {
		t.Fatalf("shard lens %v sum %d, Len %d", lens, sum, f.Len())
	}

	rep, err := f.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogicalRecords != 400 {
		t.Fatalf("Analyze.LogicalRecords = %d", rep.LogicalRecords)
	}
	if rep.Height != f.Height() {
		t.Fatalf("Analyze.Height = %d, Height() = %d", rep.Height, f.Height())
	}
	nodes := 0
	for _, lv := range rep.Levels {
		nodes += lv.Nodes
		if lv.Occupancy < 0 || lv.Occupancy > 1 {
			t.Fatalf("level %d occupancy %v out of [0,1]", lv.Level, lv.Occupancy)
		}
	}
	if nodes != rep.Nodes {
		t.Fatalf("level nodes %d != total %d", nodes, rep.Nodes)
	}
}

// checkFieldSums asserts that every field of an aggregate stats struct (all
// uint64 counters and gauges) is the sum of that field over the parts, so a
// field added to the struct cannot be left out of the aggregation.
func checkFieldSums[T any](t *testing.T, what string, got T, parts []T) {
	t.Helper()
	gv := reflect.ValueOf(got)
	for i := 0; i < gv.NumField(); i++ {
		var want uint64
		for _, p := range parts {
			want += reflect.ValueOf(p).Field(i).Uint()
		}
		if g := gv.Field(i).Uint(); g != want {
			t.Errorf("%s.%s = %d, per-shard sum %d", what, gv.Type().Field(i).Name, g, want)
		}
	}
}

// TestForestOfOneReportsItsTree pins what a forest of one must not lose to
// aggregation: Stats, PoolStats and Analyze are the tree's own values, bit
// for bit — no trip through a sum or a node-weighted mean.
func TestForestOfOneReportsItsTree(t *testing.T) {
	f := newMemForest(t, 1, true)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 600; i++ {
		if err := f.Insert(randRect(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Search(randRect(rng)); err != nil {
		t.Fatal(err)
	}
	tree := f.shards[0]
	if got, want := f.Stats(), tree.Stats(); got != want {
		t.Fatalf("Stats = %+v, tree's %+v", got, want)
	}
	if got, want := f.PoolStats(), tree.PoolStats(); got != want {
		t.Fatalf("PoolStats = %+v, tree's %+v", got, want)
	}
	got, err := f.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tree.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %+v, tree's %+v", got, want)
	}
	if len(want.Levels) < 2 {
		t.Fatalf("tree of %d levels is too small to exercise the per-level means", len(want.Levels))
	}
}

// TestForestDeleteWhere checks the predicate delete sums per-shard
// removals.
func TestForestDeleteWhere(t *testing.T) {
	f := newMemForest(t, 4, true)
	rng := rand.New(rand.NewSource(13))
	rects := make(map[node.RecordID]geom.Rect)
	for i := 0; i < 300; i++ {
		id := node.RecordID(i + 1)
		r := randRect(rng)
		if err := f.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		rects[id] = r
	}
	cut := geom.Rect2(0, 0, 500, 1050)
	want := 0
	for _, r := range rects {
		if r.Intersects(cut) {
			want++
		}
	}
	n, err := f.DeleteWhere(cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("DeleteWhere removed %d, want %d", n, want)
	}
	if f.Len() != 300-want {
		t.Fatalf("Len = %d", f.Len())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
