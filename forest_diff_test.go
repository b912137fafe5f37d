package segidx_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"segidx"
)

// The differential battery: a sharded forest must be observationally
// equivalent to a single tree of the same variant. Every combination of
// index variant and shard count runs the same randomized operation
// sequence against a 1-tree oracle, comparing the result of every call —
// insert and delete return values, all four search families, stabbing
// queries, counts, and lengths. Portion decomposition may legitimately
// differ between the two (each shard cuts against its own tree shape), so
// streamed results are compared as deduplicated ID sets, exactly the
// logical-record semantics the API promises.

// diffPair builds a variant twice: unsharded oracle and sharded DUT.
func diffPair(t *testing.T, kind string, shards, tuples int) (oracle, dut *segidx.Index) {
	t.Helper()
	return mkVariant(t, kind, 1, tuples), mkVariant(t, kind, shards, tuples)
}

func sortedIDs(entries []segidx.Entry) []segidx.RecordID {
	out := make([]segidx.RecordID, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.ID)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// uniqueIDs collects the deduplicated, sorted ID set of a streamed query.
func uniqueIDs(stream func(fn func(segidx.Entry) bool) error) (map[segidx.RecordID]bool, error) {
	set := make(map[segidx.RecordID]bool)
	err := stream(func(e segidx.Entry) bool {
		set[e.ID] = true
		return true
	})
	return set, err
}

func equalIDSlices(a, b []segidx.RecordID) bool {
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

func equalIDSets(a, b map[segidx.RecordID]bool) bool {
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

func diffRect(rng *rand.Rand) segidx.Rect {
	x, y := rng.Float64()*1000, rng.Float64()*1000
	w, h := rng.Float64()*60, rng.Float64()*20
	return segidx.Box(x, y, x+w, y+h)
}

// runDifferential drives both indexes through nOps randomized operations,
// comparing every observable result.
func runDifferential(t *testing.T, oracle, dut *segidx.Index, seed int64, nOps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := make(map[segidx.RecordID]segidx.Rect)
	var liveIDs []segidx.RecordID
	nextID := segidx.RecordID(1)

	compareQueries := func(step int) {
		q := diffRect(rng)
		if step%9 == 0 {
			// Degenerate and page-spanning probes keep the containment
			// paths honest.
			q = segidx.Box(q.Min[0], q.Min[1], q.Min[0], q.Min[1])
		}
		wantHit, err1 := oracle.Search(q)
		gotHit, err2 := dut.Search(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d: Search errors diverge: %v vs %v", step, err1, err2)
		}
		if !equalIDSlices(sortedIDs(wantHit), sortedIDs(gotHit)) {
			t.Fatalf("step %d: Search(%v) diverges: oracle %v, forest %v",
				step, q, sortedIDs(wantHit), sortedIDs(gotHit))
		}
		wantN, err1 := oracle.Count(q)
		gotN, err2 := dut.Count(q)
		if err1 != nil || err2 != nil || wantN != gotN {
			t.Fatalf("step %d: Count(%v) = %d/%v vs %d/%v", step, q, wantN, err1, gotN, err2)
		}
		wantW, _ := oracle.SearchWithin(q)
		gotW, err := dut.SearchWithin(q)
		if err != nil || !equalIDSlices(sortedIDs(wantW), sortedIDs(gotW)) {
			t.Fatalf("step %d: SearchWithin diverges (%v): %v vs %v",
				step, err, sortedIDs(wantW), sortedIDs(gotW))
		}
		wantC, _ := oracle.SearchContaining(q)
		gotC, err := dut.SearchContaining(q)
		if err != nil || !equalIDSlices(sortedIDs(wantC), sortedIDs(gotC)) {
			t.Fatalf("step %d: SearchContaining diverges (%v): %v vs %v",
				step, err, sortedIDs(wantC), sortedIDs(gotC))
		}
		wantF, err1 := uniqueIDs(func(fn func(segidx.Entry) bool) error { return oracle.SearchFunc(q, fn) })
		gotF, err2 := uniqueIDs(func(fn func(segidx.Entry) bool) error { return dut.SearchFunc(q, fn) })
		if err1 != nil || err2 != nil || !equalIDSets(wantF, gotF) {
			t.Fatalf("step %d: SearchFunc diverges (%v, %v): %d vs %d ids",
				step, err1, err2, len(wantF), len(gotF))
		}
		px, py := q.Min[0], q.Min[1]
		wantS, err1 := oracle.Stab(px, py)
		gotS, err2 := dut.Stab(px, py)
		if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(wantS), sortedIDs(gotS)) {
			t.Fatalf("step %d: Stab diverges (%v, %v): %v vs %v",
				step, err1, err2, sortedIDs(wantS), sortedIDs(gotS))
		}
		wantSF, err1 := uniqueIDs(func(fn func(segidx.Entry) bool) error { return oracle.StabFunc(fn, px, py) })
		gotSF, err2 := uniqueIDs(func(fn func(segidx.Entry) bool) error { return dut.StabFunc(fn, px, py) })
		if err1 != nil || err2 != nil || !equalIDSets(wantSF, gotSF) {
			t.Fatalf("step %d: StabFunc diverges (%v, %v)", step, err1, err2)
		}
	}

	for step := 0; step < nOps; step++ {
		switch op := rng.Intn(100); {
		case op < 50: // insert, occasionally reusing a live ID
			var id segidx.RecordID
			if len(liveIDs) > 0 && rng.Intn(10) == 0 {
				id = liveIDs[rng.Intn(len(liveIDs))]
			} else {
				id = nextID
				nextID++
				liveIDs = append(liveIDs, id)
			}
			r := diffRect(rng)
			if err1, err2 := oracle.Insert(r, id), dut.Insert(r, id); err1 != nil || err2 != nil {
				t.Fatalf("step %d: Insert errors: %v vs %v", step, err1, err2)
			}
			live[id] = orEmpty(live[id], r)
		case op < 62: // delete: live ID, or a never-seen one
			id := segidx.RecordID(1_000_000 + step)
			hint := segidx.Box(0, 0, 1000, 1000)
			if len(liveIDs) > 0 && rng.Intn(10) != 0 {
				i := rng.Intn(len(liveIDs))
				id = liveIDs[i]
				liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
				hint = live[id]
				delete(live, id)
			}
			n1, err1 := oracle.Delete(id, hint)
			n2, err2 := dut.Delete(id, hint)
			if n1 != n2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: Delete(%d) = (%d, %v) vs (%d, %v)", step, id, n1, err1, n2, err2)
			}
		case op < 65: // invalid inputs must fail identically
			bad := segidx.Rect{Min: []float64{1, 1}, Max: []float64{0, 0}}
			_, err1 := oracle.Search(bad)
			_, err2 := dut.Search(bad)
			if err1 == nil || err2 == nil || (err1 != nil) != (err2 != nil) {
				t.Fatalf("step %d: invalid-rect errors diverge: %v vs %v", step, err1, err2)
			}
		default:
			compareQueries(step)
		}
		if oracle.Len() != dut.Len() {
			t.Fatalf("step %d: Len diverges: %d vs %d", step, oracle.Len(), dut.Len())
		}
	}
	if err := dut.CheckInvariants(); err != nil {
		t.Fatalf("forest invariants: %v", err)
	}
	if err := oracle.CheckInvariants(); err != nil {
		t.Fatalf("oracle invariants: %v", err)
	}
	// A final full-domain sweep, then tear both down.
	all := segidx.Box(0, 0, 1000, 1000)
	wantAll, _ := oracle.Search(all)
	gotAll, err := dut.Search(all)
	if err != nil || !equalIDSlices(sortedIDs(wantAll), sortedIDs(gotAll)) {
		t.Fatalf("final sweep diverges (%v)", err)
	}
	if err := oracle.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dut.Close(); err != nil {
		t.Fatal(err)
	}
}

// orEmpty returns r when base is the zero Rect (first insert of an ID),
// else base, so the hint tracking covers every portion of a reused ID.
func orEmpty(base, r segidx.Rect) segidx.Rect {
	if base.Dims() == 0 {
		return r
	}
	return base.Union(r)
}

func TestForestDifferential(t *testing.T) {
	kinds := []string{"r-tree", "sr-tree", "skeleton-r-tree", "skeleton-sr-tree"}
	shardCounts := []int{1, 2, 4, 8}
	nOps := 900
	if testing.Short() {
		nOps = 250
	}
	for _, kind := range kinds {
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				oracle, dut := diffPair(t, kind, shards, nOps/2)
				if got := dut.Shards(); got != shards {
					t.Fatalf("Shards() = %d, want %d", got, shards)
				}
				runDifferential(t, oracle, dut, int64(len(kind))*31+int64(shards), nOps)
			})
		}
	}
}

// TestForestBatchesMatchSequential checks the batch APIs hit the same
// scatter-gather path and agree with sequential calls on a forest.
func TestForestBatchesMatchSequential(t *testing.T) {
	oracle, dut := diffPair(t, "sr-tree", 4, 400)
	rng := rand.New(rand.NewSource(77))
	var records []segidx.BulkRecord
	for i := 0; i < 400; i++ {
		records = append(records, segidx.BulkRecord{Rect: diffRect(rng), ID: segidx.RecordID(i + 1)})
	}
	if err := dut.InsertBatch(nil, records); err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := oracle.Insert(r.Rect, r.ID); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]segidx.Rect, 60)
	for i := range queries {
		queries[i] = diffRect(rng)
	}
	batch, err := dut.SearchBatch(nil, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := oracle.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDSlices(sortedIDs(want), sortedIDs(batch[i])) {
			t.Fatalf("query %d diverges", i)
		}
	}
	if err := oracle.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dut.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestForestBulkLoadMatches verifies sharded bulk loading: same ID sets
// as a single-tree bulk load, duplicate IDs pinned to one shard.
func TestForestBulkLoadMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var records []segidx.BulkRecord
	for i := 0; i < 500; i++ {
		records = append(records, segidx.BulkRecord{Rect: diffRect(rng), ID: segidx.RecordID(i + 1)})
	}
	// Two records under one ID, far apart: they must land on one shard.
	records = append(records,
		segidx.BulkRecord{Rect: segidx.Box(1, 1, 2, 2), ID: 9001},
		segidx.BulkRecord{Rect: segidx.Box(950, 950, 960, 960), ID: 9001},
	)
	oracle, err := segidx.BulkLoadRTree(records, 0.8, segidx.WithLeafNodeBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	dut, err := segidx.BulkLoadRTree(records, 0.8, segidx.WithLeafNodeBytes(256), segidx.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if dut.Kind() != "packed-r-tree" || dut.Shards() != 4 {
		t.Fatalf("kind=%s shards=%d", dut.Kind(), dut.Shards())
	}
	if err := dut.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 80; q++ {
		query := diffRect(rng)
		want, err1 := oracle.Search(query)
		got, err2 := dut.Search(query)
		if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
			t.Fatalf("query %d diverges (%v, %v)", q, err1, err2)
		}
	}
	if err := oracle.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dut.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzForestOps feeds a decoded byte stream to a sharded forest and a
// single-tree oracle of the same variant, checking observational
// equivalence after every operation. The first two bytes select the
// variant and the shard count so the fuzzer explores every combination.
func FuzzForestOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 10, 20, 30, 40})         // one insert, 4 shards
	f.Add([]byte{2, 1, 0, 1, 2, 3, 4, 1, 0, 2, 5}) // skeleton: insert, delete, search
	{
		var seed []byte
		seed = append(seed, 3, 7) // skeleton-sr-tree, 8 shards
		for i := 0; i < 20; i++ {
			seed = append(seed, 0, byte(i*13), byte(i*7), byte(i*11), byte(i*5))
		}
		for i := 0; i < 6; i++ {
			seed = append(seed, 1, byte(i*3), 2, byte(i), byte(i*9), byte(i*2), byte(i*4))
		}
		f.Add(seed)
	}

	kinds := []string{"r-tree", "sr-tree", "skeleton-r-tree", "skeleton-sr-tree"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip() // bound per-input work; long streams add no new shapes
		}
		if len(data) < 2 {
			return
		}
		kind := kinds[int(data[0])%len(kinds)]
		shards := 1 + int(data[1])%8
		oracle, dut := diffPair(t, kind, shards, 200)
		pos := 2
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		coord := func() float64 { return float64(next()) * 1000 / 255 }
		rect := func() segidx.Rect {
			x, y := coord(), coord()
			return segidx.Box(x, y, x+float64(next())/4, y+float64(next())/12)
		}
		nextID := segidx.RecordID(1)
		live := make(map[segidx.RecordID]segidx.Rect)
		var liveIDs []segidx.RecordID

		for pos < len(data) {
			switch next() % 3 {
			case 0: // insert
				r := rect()
				id := nextID
				nextID++
				err1, err2 := oracle.Insert(r, id), dut.Insert(r, id)
				if err1 != nil || err2 != nil {
					t.Fatalf("Insert(%v, %d): %v vs %v", r, id, err1, err2)
				}
				live[id] = r
				liveIDs = append(liveIDs, id)
			case 1: // delete a live record, or a missing one when none
				id := segidx.RecordID(999_999)
				hint := segidx.Box(0, 0, 1000, 1000)
				if len(liveIDs) > 0 {
					i := int(next()) % len(liveIDs)
					id = liveIDs[i]
					liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
					hint = live[id]
					delete(live, id)
				}
				n1, err1 := oracle.Delete(id, hint)
				n2, err2 := dut.Delete(id, hint)
				if n1 != n2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("Delete(%d) = (%d, %v) vs (%d, %v)", id, n1, err1, n2, err2)
				}
			case 2: // search
				q := rect()
				want, err1 := oracle.Search(q)
				got, err2 := dut.Search(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("Search(%v): %v vs %v", q, err1, err2)
				}
				if !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
					t.Fatalf("Search(%v) = %v vs %v", q, sortedIDs(want), sortedIDs(got))
				}
			}
			if oracle.Len() != dut.Len() {
				t.Fatalf("Len diverges: %d vs %d", oracle.Len(), dut.Len())
			}
		}
		if err := dut.CheckInvariants(); err != nil {
			t.Fatalf("forest invariants: %v", err)
		}
		all := segidx.Box(0, 0, 2000, 2000)
		want, _ := oracle.Search(all)
		got, err := dut.Search(all)
		if err != nil || !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
			t.Fatalf("final sweep diverges (%v)", err)
		}
		if err := oracle.Close(); err != nil {
			t.Fatal(err)
		}
		if err := dut.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
