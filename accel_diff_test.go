package segidx_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"segidx"
	"segidx/internal/workload"
)

// The accelerator differential battery: an index with a stab-accelerator
// sidecar attached must be observationally equivalent to the same index
// without one, in every hybrid mode, across every variant, shard count,
// and dataset shape — including under interleaved deletes and pinned MVCC
// snapshots, where the sidecar must reproduce historical epochs exactly.
// Results are compared as deduplicated ID sets: the sidecar reports each
// record's full original rectangle where the tree may report a cut
// record's narrower portion union, so IDs are the invariant the API
// promises.

// accelDatasets are the workload shapes the battery drives: uniform
// segments, fat rectangles, and the append-mostly temporal TI order.
func accelDatasets() []workload.Dataset {
	return []workload.Dataset{workload.I1, workload.R2, workload.TI}
}

// accelBuild constructs one index of the given variant; extra options add
// the accelerator for DUTs and nothing for oracles.
func accelBuild(t testing.TB, kind string, shards, tuples int, extra ...segidx.Option) *segidx.Index {
	t.Helper()
	opts := append([]segidx.Option{segidx.WithLeafNodeBytes(512)}, extra...)
	if shards > 1 {
		opts = append(opts, segidx.WithShards(shards))
	}
	est := segidx.SkeletonEstimate{Tuples: tuples, Domain: workload.Domain()}
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
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// runAccelDifferential feeds the dataset records to both indexes with
// interleaved deletes, pinned snapshot pairs, and a query battery after
// every few steps. reuseIDs mixes in duplicate-ID inserts, which degrade
// the sidecar to a pass-through — equivalence must survive that too.
func runAccelDifferential(t *testing.T, oracle, dut *segidx.Index, recs []segidx.Rect, seed int64, reuseIDs bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := make(map[segidx.RecordID]segidx.Rect)
	var liveIDs []segidx.RecordID
	nextID := segidx.RecordID(1)

	type pinnedPair struct {
		ov, dv segidx.View
		step   int
	}
	var pins []pinnedPair
	defer func() {
		for _, p := range pins {
			p.ov.Release()
			p.dv.Release()
		}
	}()

	compare := func(step int) {
		x := rng.Float64() * workload.DomainHi
		y := rng.Float64() * workload.DomainHi
		queries := []segidx.Rect{
			// 1-D-degenerate vertical line: the routed stab hot path.
			segidx.Box(x, workload.DomainLo, x, workload.DomainHi),
			// Point stab and a narrow range.
			segidx.Box(x, y, x, y),
			segidx.Box(x, y, x+2500, y+2500),
		}
		for qi, q := range queries {
			want, err1 := oracle.Search(q)
			got, err2 := dut.Search(q)
			if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
				t.Fatalf("step %d query %d: Search(%v) diverges (%v, %v): %v vs %v",
					step, qi, q, err1, err2, sortedIDs(want), sortedIDs(got))
			}
			wantN, err1 := oracle.Count(q)
			gotN, err2 := dut.Count(q)
			if err1 != nil || err2 != nil || wantN != gotN {
				t.Fatalf("step %d query %d: Count = %d/%v vs %d/%v", step, qi, wantN, err1, gotN, err2)
			}
			wantC, err1 := oracle.SearchContaining(q)
			gotC, err2 := dut.SearchContaining(q)
			if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(wantC), sortedIDs(gotC)) {
				t.Fatalf("step %d query %d: SearchContaining diverges (%v, %v)", step, qi, err1, err2)
			}
		}
		wantS, err1 := oracle.Stab(x, y)
		gotS, err2 := dut.Stab(x, y)
		if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(wantS), sortedIDs(gotS)) {
			t.Fatalf("step %d: Stab diverges (%v, %v): %v vs %v",
				step, err1, err2, sortedIDs(wantS), sortedIDs(gotS))
		}
		wantF, err1 := uniqueIDs(func(fn func(segidx.Entry) bool) error { return oracle.StabFunc(fn, x, y) })
		gotF, err2 := uniqueIDs(func(fn func(segidx.Entry) bool) error { return dut.StabFunc(fn, x, y) })
		if err1 != nil || err2 != nil || !equalIDSets(wantF, gotF) {
			t.Fatalf("step %d: StabFunc diverges (%v, %v)", step, err1, err2)
		}
		// Historical equivalence: every pinned snapshot pair must agree at
		// its frozen epoch no matter how far the indexes have moved on.
		for _, p := range pins {
			for qi, q := range queries {
				want, err1 := p.ov.Search(q)
				got, err2 := p.dv.Search(q)
				if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
					t.Fatalf("step %d query %d: pinned (step %d) Search diverges (%v, %v): %v vs %v",
						step, qi, p.step, err1, err2, sortedIDs(want), sortedIDs(got))
				}
				wantN, err1 := p.ov.Count(q)
				gotN, err2 := p.dv.Count(q)
				if err1 != nil || err2 != nil || wantN != gotN {
					t.Fatalf("step %d: pinned (step %d) Count = %d vs %d", step, p.step, wantN, gotN)
				}
			}
			wantC, err1 := p.ov.SearchContaining(segidx.Point(x, y))
			gotC, err2 := p.dv.SearchContaining(segidx.Point(x, y))
			if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(wantC), sortedIDs(gotC)) {
				t.Fatalf("step %d: pinned (step %d) SearchContaining diverges (%v, %v)", step, p.step, err1, err2)
			}
		}
	}

	for step, r := range recs {
		id := nextID
		if reuseIDs && len(liveIDs) > 0 && rng.Intn(8) == 0 {
			id = liveIDs[rng.Intn(len(liveIDs))]
		} else {
			nextID++
			liveIDs = append(liveIDs, id)
		}
		if err1, err2 := oracle.Insert(r, id), dut.Insert(r, id); err1 != nil || err2 != nil {
			t.Fatalf("step %d: Insert errors: %v vs %v", step, err1, err2)
		}
		live[id] = orEmpty(live[id], r)

		if step%7 == 3 && len(liveIDs) > 0 {
			i := rng.Intn(len(liveIDs))
			did := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			hint := live[did]
			delete(live, did)
			n1, err1 := oracle.Delete(did, hint)
			n2, err2 := dut.Delete(did, hint)
			if n1 != n2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: Delete(%d) = (%d, %v) vs (%d, %v)", step, did, n1, err1, n2, err2)
			}
		}
		if step%37 == 17 {
			if len(pins) >= 3 {
				pins[0].ov.Release()
				pins[0].dv.Release()
				pins = pins[1:]
			}
			pins = append(pins, pinnedPair{ov: oracle.Snapshot(), dv: dut.Snapshot(), step: step})
		}
		if step%11 == 5 {
			compare(step)
		}
		if oracle.Len() != dut.Len() {
			t.Fatalf("step %d: Len diverges: %d vs %d", step, oracle.Len(), dut.Len())
		}
	}
	compare(len(recs))
	if err := dut.CheckInvariants(); err != nil {
		t.Fatalf("dut invariants: %v", err)
	}
	if err := oracle.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dut.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAccelDifferential(t *testing.T) {
	kinds := []string{"r-tree", "sr-tree", "skeleton-r-tree", "skeleton-sr-tree"}
	shardCounts := []int{1, 4}
	n := 400
	if testing.Short() {
		n = 150
	}
	for _, kind := range kinds {
		for _, shards := range shardCounts {
			for _, ds := range accelDatasets() {
				t.Run(fmt.Sprintf("%s/shards=%d/%v", kind, shards, ds), func(t *testing.T) {
					recs := ds.Generate(n, uint64(len(kind))*131+uint64(shards))
					oracle := accelBuild(t, kind, shards, n)
					dut := accelBuild(t, kind, shards, n,
						segidx.WithStabAccel(0, 8), segidx.WithHybridMode(segidx.HybridAlways))
					seed := int64(len(kind))*17 + int64(shards)*3 + int64(ds)
					runAccelDifferential(t, oracle, dut, recs, seed, false)
				})
			}
		}
	}
}

// TestAccelDifferentialAuto runs the battery in auto mode, where routing
// sends slices to the sidecar and points and boxes to the tree
// mid-stream: both answers must be identical regardless of which side
// served each query.
func TestAccelDifferentialAuto(t *testing.T) {
	recs := workload.I2.Generate(400, 99)
	oracle := accelBuild(t, "sr-tree", 1, 400)
	dut := accelBuild(t, "sr-tree", 1, 400,
		segidx.WithStabAccel(0, 8), segidx.WithHybridMode(segidx.HybridAuto))
	runAccelDifferential(t, oracle, dut, recs, 42, false)
}

// TestAccelDifferentialDegrade mixes duplicate-ID inserts into the
// stream. The first duplicate permanently degrades the sidecar (its
// one-rectangle-per-ID model cannot represent reuse), and every
// subsequent query must fall back to the tree transparently.
func TestAccelDifferentialDegrade(t *testing.T) {
	recs := workload.I1.Generate(400, 7)
	oracle := accelBuild(t, "r-tree", 1, 400)
	dut := accelBuild(t, "r-tree", 1, 400,
		segidx.WithStabAccel(0, 8), segidx.WithHybridMode(segidx.HybridAlways))
	runAccelDifferential(t, oracle, dut, recs, 1234, true)
}

// TestAccelStatsSurface checks the facade stats plumbing: one entry per
// accelerated shard, live routing counters in always mode, and an empty
// slice without an accelerator.
func TestAccelStatsSurface(t *testing.T) {
	plain := accelBuild(t, "r-tree", 1, 100)
	if s := plain.AccelStats(); len(s) != 0 {
		t.Fatalf("AccelStats without accelerator = %v", s)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	dut := accelBuild(t, "sr-tree", 4, 200,
		segidx.WithStabAccel(0, 8), segidx.WithHybridMode(segidx.HybridAlways))
	for i, r := range workload.I1.Generate(200, 5) {
		if err := dut.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := dut.Search(segidx.Box(float64(i*97), workload.DomainLo, float64(i*97), workload.DomainHi)); err != nil {
			t.Fatal(err)
		}
	}
	stats := dut.AccelStats()
	if len(stats) != 4 {
		t.Fatalf("AccelStats on 4 shards has %d entries", len(stats))
	}
	var routed uint64
	var liveRecs int
	for _, s := range stats {
		if s.Degraded {
			t.Fatalf("sidecar degraded: %+v", s)
		}
		if s.Dim != 0 || s.Levels != 8 {
			t.Fatalf("sidecar config mismatch: %+v", s)
		}
		routed += s.RoutedAccel
		liveRecs += s.Live
	}
	if routed == 0 {
		t.Fatal("always mode routed no queries to the sidecar")
	}
	if liveRecs != 200 {
		t.Fatalf("sidecars hold %d live records, want 200", liveRecs)
	}
	if err := dut.Close(); err != nil {
		t.Fatal(err)
	}
}

// accelRoutes sums the routing counters across all shards.
func accelRoutes(x *segidx.Index) (sidecar, tree uint64) {
	for _, s := range x.AccelStats() {
		sidecar += s.RoutedAccel
		tree += s.RoutedTree
	}
	return sidecar, tree
}

// TestAccelAutoRoutesByShape pins auto routing to the query's shape on the
// temporal workload: time-slices over the whole Y extent all go to the
// sidecar and 10 %×10 % boxes all go to the tree, on one shard and on three.
func TestAccelAutoRoutesByShape(t *testing.T) {
	const n, queries = 2000, 4096
	recs := workload.TI.Generate(n, 11)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			x := accelBuild(t, "skeleton-sr-tree", shards, n,
				segidx.WithStabAccel(0, 10), segidx.WithHybridMode(segidx.HybridAuto))
			defer x.Close()
			for i, r := range recs {
				if err := x.Insert(r, segidx.RecordID(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(x.AccelStats()); got != shards {
				t.Fatalf("%d sidecars attached, want %d", got, shards)
			}
			count := func(q segidx.Rect) {
				if _, err := x.Count(q); err != nil {
					t.Fatal(err)
				}
			}
			side0, tree0 := accelRoutes(x)
			for _, tm := range workload.TIStabTimes(recs[n-1].Max[0], queries, 5) {
				count(segidx.Box(tm, workload.DomainLo, tm, workload.DomainHi))
			}
			side1, tree1 := accelRoutes(x)
			if tree1 != tree0 || side1 == side0 {
				t.Fatalf("full-Y slices: %d routed to the sidecar, %d to the tree; want all to the sidecar", side1-side0, tree1-tree0)
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			const edge = (workload.DomainHi - workload.DomainLo) / 10
			for i := 0; i < queries; i++ {
				x0 := workload.DomainLo + rng.Float64()*(workload.DomainHi-workload.DomainLo-edge)
				y0 := workload.DomainLo + rng.Float64()*(workload.DomainHi-workload.DomainLo-edge)
				count(segidx.Box(x0, y0, x0+edge, y0+edge))
			}
			side2, tree2 := accelRoutes(x)
			if side2 != side1 || tree2 == tree1 {
				t.Fatalf("10%%×10%% boxes: %d routed to the sidecar, %d to the tree; want all to the tree", side2-side1, tree2-tree1)
			}
		})
	}
}

// TestAccelBirthsNondecreasing pins the invariant the sidecar's
// comparison-free count relies on — births never decrease along any slot
// list — across every way a sidecar is seeded: attached to a predicted
// tree at construction and carried through the bracket that builds its
// skeleton, then reseeded from the page file by OpenDurable, each
// followed by churn. CheckInvariants verifies it on every attached
// sidecar.
func TestAccelBirthsNondecreasing(t *testing.T) {
	const n = 400
	path := filepath.Join(t.TempDir(), "ix.seg")
	recs := workload.TI.Generate(n, 3)
	opts := []segidx.Option{segidx.WithStabAccel(0, 8), segidx.WithHybridMode(segidx.HybridAlways)}
	est := segidx.SkeletonEstimate{Tuples: n, Domain: workload.Domain(), PredictFraction: 0.05}
	x, err := segidx.NewSkeletonSRTree(est, append(opts, segidx.WithDurableFile(path))...)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	// churn inserts recs[from:to] as ids from+1..to, deleting every third
	// one again and flushing every 16.
	churn := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := x.Insert(recs[i], segidx.RecordID(i+1)); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if n, err := x.Delete(segidx.RecordID(i), recs[i-1]); err != nil || n != 1 {
					t.Fatalf("Delete(%d) = %d, %v", i, n, err)
				}
			}
			if i%16 == 15 {
				if err := x.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The tree samples the first 5 % of the estimate, then builds its
	// skeleton. The sidecar is attached from the start and keeps the
	// sampled records across the build.
	swapAt := int(est.PredictFraction * n)
	for i := 0; i < swapAt; i++ {
		if len(x.AccelStats()) != 1 {
			t.Fatalf("no sidecar attached after %d of %d sampled inserts", i, swapAt)
		}
		if err := x.Insert(recs[i], segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
		if i == swapAt-2 {
			check("while sampling")
		}
	}
	if len(x.AccelStats()) != 1 {
		t.Fatal("no sidecar attached after the skeleton was built")
	}
	check("after the build")
	churn(swapAt, n/2)
	check("after churn on the built skeleton")
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if x, err = segidx.OpenDurable(path, opts...); err != nil {
		t.Fatal(err)
	}
	check("after OpenDurable")
	churn(n/2, n)
	check("after churn on the reopened index")
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzAccelOps feeds a decoded byte stream to an accelerated index and a
// plain oracle of the same variant, checking observational equivalence
// after every operation. The first bytes select the variant, the shard
// count, and the hybrid mode so the fuzzer explores every combination,
// and the per-op decoder matches FuzzForestOps so its corpus shapes
// carry over.
func FuzzAccelOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 10, 20, 30, 40})         // r-tree, 1 shard, always: one insert
	f.Add([]byte{2, 1, 0, 0, 1, 2, 3, 4, 1, 0, 2, 5}) // skeleton, 2 shards, auto
	f.Add([]byte{1, 2, 2, 0, 9, 9, 9, 9, 3, 7, 2, 1}) // sr-tree, 4 shards, off
	{
		var seed []byte
		seed = append(seed, 3, 0, 1) // skeleton-sr-tree, 1 shard, always
		for i := 0; i < 20; i++ {
			seed = append(seed, 0, byte(i*13), byte(i*7), byte(i*11), byte(i*5))
		}
		for i := 0; i < 6; i++ {
			seed = append(seed, 1, byte(i*3), 3, byte(i), 2, byte(i*9), byte(i*2), byte(i*4), byte(i))
		}
		f.Add(seed)
	}

	kinds := []string{"r-tree", "sr-tree", "skeleton-r-tree", "skeleton-sr-tree"}
	modes := []segidx.HybridMode{segidx.HybridAlways, segidx.HybridAuto, segidx.HybridOff}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip() // bound per-input work; long streams add no new shapes
		}
		if len(data) < 3 {
			return
		}
		kind := kinds[int(data[0])%len(kinds)]
		shards := 1 << (int(data[1]) % 3)
		mode := modes[int(data[2])%len(modes)]
		oracle := accelBuild(t, kind, shards, 200)
		dut := accelBuild(t, kind, shards, 200,
			segidx.WithStabAccel(0, 6), segidx.WithHybridMode(mode))
		pos := 3
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		coord := func() float64 { return float64(next()) * workload.DomainHi / 255 }
		rect := func() segidx.Rect {
			x, y := coord(), coord()
			return segidx.Box(x, y, x+float64(next())*8, y+float64(next())*2)
		}
		nextID := segidx.RecordID(1)
		live := make(map[segidx.RecordID]segidx.Rect)
		var liveIDs []segidx.RecordID

		var pv, dv segidx.View // one optional pinned snapshot pair
		defer func() {
			if pv != nil {
				pv.Release()
				dv.Release()
			}
		}()

		for pos < len(data) {
			switch next() % 5 {
			case 0: // insert (duplicating a live ID on a marker byte)
				r := rect()
				id := nextID
				if len(liveIDs) > 0 && next()%16 == 0 {
					id = liveIDs[int(next())%len(liveIDs)]
				} else {
					nextID++
					liveIDs = append(liveIDs, id)
				}
				err1, err2 := oracle.Insert(r, id), dut.Insert(r, id)
				if err1 != nil || err2 != nil {
					t.Fatalf("Insert(%v, %d): %v vs %v", r, id, err1, err2)
				}
				live[id] = orEmpty(live[id], r)
			case 1: // delete a live record, or a missing one when none
				id := segidx.RecordID(999_999)
				hint := segidx.Box(workload.DomainLo, workload.DomainLo, workload.DomainHi, workload.DomainHi)
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
			case 2: // range search and count; the shape byte picks a query
				// the sidecar's list boxes fall inside (the full Y extent)
				// or straddle (a tall band), or a small box most miss
				q := rect()
				switch next() % 3 {
				case 1:
					q.Min[1], q.Max[1] = workload.DomainLo, workload.DomainHi
				case 2:
					q.Max[1] = q.Min[1] + workload.DomainHi/4
				}
				want, err1 := oracle.Search(q)
				got, err2 := dut.Search(q)
				if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
					t.Fatalf("Search(%v) = %v/%v vs %v/%v", q, sortedIDs(want), err1, sortedIDs(got), err2)
				}
				if n, err := dut.Count(q); err != nil || n != len(want) {
					t.Fatalf("Count(%v) = %d, %v; want %d", q, n, err, len(want))
				}
			case 3: // vertical-line stab — the accelerator's hot path
				x := coord()
				q := segidx.Box(x, workload.DomainLo, x, workload.DomainHi)
				want, err1 := oracle.Search(q)
				got, err2 := dut.Search(q)
				if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
					t.Fatalf("line stab %g = %v/%v vs %v/%v", x, sortedIDs(want), err1, sortedIDs(got), err2)
				}
				if n, err := dut.Count(q); err != nil || n != len(want) {
					t.Fatalf("line count %g = %d, %v; want %d", x, n, err, len(want))
				}
				if pv != nil {
					want, err1 := pv.Search(q)
					got, err2 := dv.Search(q)
					if err1 != nil || err2 != nil || !equalIDSlices(sortedIDs(want), sortedIDs(got)) {
						t.Fatalf("pinned line stab %g diverges (%v, %v)", x, err1, err2)
					}
					if n, err := dv.Count(q); err != nil || n != len(want) {
						t.Fatalf("pinned line count %g = %d, %v; want %d", x, n, err, len(want))
					}
				}
			case 4: // (re)pin the snapshot pair
				if pv != nil {
					pv.Release()
					dv.Release()
				}
				pv, dv = oracle.Snapshot(), dut.Snapshot()
			}
			if oracle.Len() != dut.Len() {
				t.Fatalf("Len diverges: %d vs %d", oracle.Len(), dut.Len())
			}
		}
		if err := dut.CheckInvariants(); err != nil {
			t.Fatalf("dut invariants: %v", err)
		}
		if err := oracle.Close(); err != nil {
			t.Fatal(err)
		}
		if err := dut.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
