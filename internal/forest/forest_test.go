package forest

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"segidx/internal/core"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
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
func newMemForest(t *testing.T, n int, spanning bool) *Forest {
	t.Helper()
	shards := make([]Shard, n)
	for i := range shards {
		st := store.NewMemStore()
		tr, err := core.New(smallConfig(spanning), st)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = Shard{Eng: tr, Store: st}
	}
	f, err := New(shards, Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f
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

// TestForestIDReuseStaysOnOneShard verifies the routing invariant: a
// second insert under a live ID lands on the ID's home shard no matter
// where its rectangle hashes, so dedup and delete semantics survive
// sharding.
func TestForestIDReuseStaysOnOneShard(t *testing.T) {
	f := newMemForest(t, 4, true)
	a := geom.Rect2(0, 0, 10, 10)
	b := geom.Rect2(900, 900, 910, 910) // hashes elsewhere with near-certainty
	if RouteRect(a, 4) == RouteRect(b, 4) {
		b = geom.Rect2(700, 300, 705, 305)
	}
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

func TestForestValidatesBeforePruning(t *testing.T) {
	f := newMemForest(t, 2, false) // empty: every query prunes to zero shards
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

// TestForestFlushEpochProtocol verifies the ordering contract: Flush
// bumps the manifest first, shards are stamped with the same epoch, and
// FlushShard never advances it.
func TestForestFlushEpochProtocol(t *testing.T) {
	dir := t.TempDir()
	mf, err := CreateManifest(store.OS, filepath.Join(dir, "f.db"), 2)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]store.Store, 2)
	shards := make([]Shard, 2)
	for i := range shards {
		st := store.NewMemStore()
		tr, err := core.New(smallConfig(true), st)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		shards[i] = Shard{Eng: tr, Store: st}
	}
	f, err := New(shards, Config{Dims: 2, Manifest: mf})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		if err := f.Insert(randRect(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if f.FlushEpoch() != 1 {
		t.Fatalf("epoch after first Flush = %d", f.FlushEpoch())
	}
	for i, st := range stores {
		meta, err := core.ReadMeta(st)
		if err != nil {
			t.Fatal(err)
		}
		if meta.FlushEpoch != 1 {
			t.Fatalf("shard %d durable epoch = %d, want 1", i, meta.FlushEpoch)
		}
	}
	// FlushShard persists at the current epoch without bumping it.
	if err := f.FlushShard(0); err != nil {
		t.Fatal(err)
	}
	if f.FlushEpoch() != 1 {
		t.Fatalf("FlushShard moved the epoch to %d", f.FlushEpoch())
	}
	if err := f.FlushShard(5); err == nil {
		t.Fatal("FlushShard(out of range) succeeded")
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if f.FlushEpoch() != 2 {
		t.Fatalf("epoch after second Flush = %d", f.FlushEpoch())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, m, err := OpenManifest(store.OS, filepath.Join(dir, "f.db"))
	if err != nil {
		t.Fatal(err)
	}
	// Close flushes once more, so the durable epoch is 3.
	if m.Epoch != 3 || m.Shards != 2 {
		t.Fatalf("durable manifest %+v", m)
	}
}

// TestForestRebuild reopens shards with pre-existing data and verifies
// the routing map and covers are reconstructed: queries work, ID reuse
// still pins, and a record split across shards is rejected.
func TestForestRebuild(t *testing.T) {
	mkShard := func(t *testing.T, seed int64, base int) (Shard, map[node.RecordID]geom.Rect) {
		st := store.NewMemStore()
		tr, err := core.New(smallConfig(true), st)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		rects := make(map[node.RecordID]geom.Rect)
		for i := 0; i < 80; i++ {
			id := node.RecordID(base + i)
			r := randRect(rng)
			if err := tr.Insert(r, id); err != nil {
				t.Fatal(err)
			}
			rects[id] = r
		}
		return Shard{Eng: tr, Store: st}, rects
	}
	s0, r0 := mkShard(t, 1, 1000)
	s1, r1 := mkShard(t, 2, 2000)
	f, err := New([]Shard{s0, s1}, Config{Dims: 2, Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != len(r0)+len(r1) {
		t.Fatalf("Len = %d", f.Len())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A rebuilt map still routes deletes to the owning shard.
	for id, r := range r0 {
		n, err := f.Delete(id, r)
		if err != nil || n != 1 {
			t.Fatalf("Delete(%d) = %d, %v", id, n, err)
		}
		break
	}

	// Conflicting shards: the same ID stored in both must fail assembly.
	c0, _ := mkShard(t, 3, 5000)
	c1, _ := mkShard(t, 4, 5000)
	if _, err := New([]Shard{c0, c1}, Config{Dims: 2, Rebuild: true}); err == nil {
		t.Fatal("rebuild accepted a record stored in two shards")
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
// removals and prunes by cover.
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
