package core

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/histogram"
	"segidx/internal/node"
	"segidx/internal/store"
	"segidx/internal/workload"
)

func predictConfig() Config {
	cfg := DefaultConfig()
	cfg.Sizes.LeafBytes = 256
	cfg.Spanning = true
	cfg.CoalesceEvery = 200
	return cfg
}

// newPredictedTree builds a predicted tree over a fresh in-memory store
// that expects tuples records and samples the first sample of them.
func newPredictedTree(t *testing.T, cfg Config, tuples, sample int) *Tree {
	t.Helper()
	tr, err := NewPredicted(cfg, store.NewMemStore(), Estimate{Tuples: tuples, Domain: workload.Domain()}, sample)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buffering reports whether tr is still collecting its sample.
func buffering(tr *Tree) bool {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.sampling != nil
}

func TestPredictorValidation(t *testing.T) {
	cfg := predictConfig()
	if _, err := NewPredicted(cfg, store.NewMemStore(), Estimate{Tuples: 0, Domain: workload.Domain()}, 1); err == nil {
		t.Error("zero expected tuples accepted")
	}
	if _, err := NewPredicted(cfg, store.NewMemStore(), Estimate{Tuples: 100, Domain: workload.Domain()}, 0); err == nil {
		t.Error("zero sample accepted")
	}
	if _, err := NewPredicted(cfg, store.NewMemStore(), Estimate{Tuples: 100, Domain: workload.Domain()}, 150); err == nil {
		t.Error("sample above the expected tuples accepted")
	}
	bad := geom.Rect{Min: []float64{0}, Max: []float64{1}}
	if _, err := NewPredicted(cfg, store.NewMemStore(), Estimate{Tuples: 100, Domain: bad}, 10); err == nil {
		t.Error("bad domain accepted")
	}
}

// TestPredictorWideDomain runs a predicted SR-Tree over a domain whose
// width times the histogram's bin count overflows: the sample's histograms
// must still bin every record. A domain whose width itself overflows is
// rejected at construction, not on the T-th insert.
func TestPredictorWideDomain(t *testing.T) {
	cfg := predictConfig()
	wide := geom.Rect2(-1e307, -1e307, 1e307, 1e307)
	p, err := NewPredicted(cfg, store.NewMemStore(), Estimate{Tuples: 100, Domain: wide}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		lo := 5e306 + float64(i)*1e304
		if err := p.Insert(geom.Rect2(lo, -lo, lo+1e303, -lo+1e303), node.RecordID(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if buffering(p) {
		t.Fatal("never built the skeleton")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, err := p.Search(wide); err != nil || len(got) != 20 {
		t.Fatalf("Search(domain) = %d records, %v; want 20", len(got), err)
	}

	m := math.MaxFloat64
	p, err = NewPredicted(cfg, store.NewMemStore(), Estimate{Tuples: 100, Domain: geom.Rect2(-m, -m, m, m)}, 10)
	if err == nil {
		for i := 0; i < 10; i++ {
			if err := p.Insert(geom.Rect2(0, 0, 1, 1), node.RecordID(i+1)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		t.Fatal("a domain of infinite width was accepted")
	}
}

func TestPredictorBuildsAfterSample(t *testing.T) {
	p := newPredictedTree(t, predictConfig(), 1000, 100)
	data := workload.I3.Generate(1000, 99)
	for i, r := range data {
		if err := p.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i < 99 && !buffering(p) {
			t.Fatalf("built after only %d inserts (sample is 100)", i+1)
		}
	}
	if buffering(p) {
		t.Fatal("never built the skeleton")
	}
	if p.Len() != 1000 {
		t.Fatalf("Len = %d", p.Len())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.Height() < 2 {
		t.Fatalf("height %d", p.Height())
	}
	// The skeleton's counters count the drain and what followed it, so
	// every record is counted once across the bracket.
	if got := p.Stats().Inserts; got != 1000 {
		t.Fatalf("Stats().Inserts = %d after 1000 inserts", got)
	}
}

func TestPredictorSearchDuringAndAfterBuffering(t *testing.T) {
	p := newPredictedTree(t, predictConfig(), 400, 200)
	data := workload.I1.Generate(400, 123)
	check := func(phase string) {
		q := geom.Rect2(0, 0, workload.DomainHi, workload.DomainHi)
		var want []node.RecordID
		for i := 0; i < p.Len(); i++ {
			want = append(want, node.RecordID(i+1))
		}
		got, err := p.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		var ids []node.RecordID
		for _, e := range got {
			ids = append(ids, e.ID)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		if len(ids) != len(want) {
			t.Fatalf("%s: found %d, want %d", phase, len(ids), len(want))
		}
		for i := range ids {
			if ids[i] != want[i] {
				t.Fatalf("%s: ids diverge at %d", phase, i)
			}
		}
	}
	for i := 0; i < 100; i++ {
		if err := p.Insert(data[i], node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	check("buffering")
	n, err := p.Count(geom.Rect2(0, 0, workload.DomainHi, workload.DomainHi))
	if err != nil || n != 100 {
		t.Fatalf("Count during buffering = %d, %v", n, err)
	}
	for i := 100; i < 400; i++ {
		if err := p.Insert(data[i], node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	check("indexed")
}

func TestPredictorDeleteDuringBuffering(t *testing.T) {
	p := newPredictedTree(t, predictConfig(), 100, 50)
	r := geom.Rect2(1, 1, 2, 1)
	if err := p.Insert(r, 7); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Delete(7, r); err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
	if n, _ := p.Delete(7, r); n != 0 {
		t.Fatal("double delete succeeded")
	}
}

// TestPredictorFinalizeEarly covers input that ends before the sample
// target: the first Flush builds the skeleton from what was sampled.
func TestPredictorFinalizeEarly(t *testing.T) {
	p := newPredictedTree(t, predictConfig(), 1000, 500)
	data := workload.R2.Generate(50, 5)
	for i, r := range data {
		if err := p.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if buffering(p) {
		t.Fatal("still buffering after Flush")
	}
	if p.Len() != 50 {
		t.Fatalf("Len = %d", p.Len())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPredictionAdaptsPartitionsToSkew(t *testing.T) {
	// Feed exponential-Y data: the built skeleton must put more, narrower
	// partitions at low Y. Verify indirectly: count leaves whose region
	// center is below the median of the domain.
	p := newPredictedTree(t, predictConfig(), 3000, 300)
	data := workload.I2.Generate(3000, 77)
	for i, r := range data {
		if err := p.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Height < 2 {
		t.Fatal("no hierarchy built")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// With β=7000 over [0,100000], ~99% of the Y mass lies below 35000.
	entries, err := p.Search(geom.Rect2(0, 0, workload.DomainHi, 35000))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2800 {
		t.Fatalf("only %d records below Y=35000; generator broken?", len(entries))
	}

	// Build the same data into a *uniform* skeleton. A horizontal strip
	// query in the empty high-Y half must be cheaper on the predicted
	// skeleton, whose high-Y partitions are few and coarse, than on the
	// uniform skeleton, which pre-allocated fine partitions there.
	uni, err := NewSkeleton(predictConfig(), store.NewMemStore(), Estimate{
		Tuples: 3000, Domain: workload.Domain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range data {
		if err := uni.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	strip := geom.Rect2(0, 70000, workload.DomainHi, 72000)
	cost := func(tr *Tree) uint64 {
		before := tr.Stats().SearchNodeAccesses
		if _, err := tr.Search(strip); err != nil {
			t.Fatal(err)
		}
		return tr.Stats().SearchNodeAccesses - before
	}
	predCost := cost(p)
	uniCost := cost(uni)
	if predCost >= uniCost {
		t.Errorf("high-Y strip: predicted skeleton cost %d not below uniform %d", predCost, uniCost)
	}
}

// TestPredictedSkeletonMatchesDirectBuild is the structural oracle for the
// prediction path: a predictor fed N records must end up with the very tree
// that core.NewSkeleton builds from histograms of the first T records and
// that is then fed the same N records in the same order — same shape, same
// structural report, and the same node accesses for every query. It pins
// the drain order and the query descent: changing either fails here rather
// than as a moved benchmark.
func TestPredictedSkeletonMatchesDirectBuild(t *testing.T) {
	const n, sample = 2000, 200
	data := workload.I3.Generate(n, 41)
	queries := workload.Queries(1, 30, 42)
	queries = append(queries, workload.Queries(0.01, 30, 43)...)
	for _, spanning := range []bool{false, true} {
		cfg := predictConfig()
		cfg.Spanning = spanning

		p := newPredictedTree(t, cfg, n, sample)
		hists := make([]*histogram.Histogram, cfg.Dims)
		var err error
		for d := range hists {
			if hists[d], err = histogram.New(workload.Domain().Min[d], workload.Domain().Max[d], DefaultBins); err != nil {
				t.Fatal(err)
			}
			for _, r := range data[:sample] {
				hists[d].AddInterval(r.Min[d], r.Max[d])
			}
		}
		direct, err := NewSkeleton(cfg, store.NewMemStore(), Estimate{Tuples: n, Domain: workload.Domain(), Hists: hists})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range data {
			if err := p.Insert(r, node.RecordID(i+1)); err != nil {
				t.Fatal(err)
			}
			if err := direct.Insert(r, node.RecordID(i+1)); err != nil {
				t.Fatal(err)
			}
		}

		if p.Height() != direct.Height() || p.NodeCount() != direct.NodeCount() {
			t.Fatalf("spanning=%v: predicted %d levels/%d nodes, direct %d/%d",
				spanning, p.Height(), p.NodeCount(), direct.Height(), direct.NodeCount())
		}
		got, err1 := p.Analyze()
		want, err2 := direct.Analyze()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("spanning=%v: Analyze differs (%v, %v):\npredicted %+v\n   direct %+v", spanning, err1, err2, got, want)
		}
		for qi, q := range queries {
			p0, d0 := p.Stats().SearchNodeAccesses, direct.Stats().SearchNodeAccesses
			a, err1 := p.Search(q)
			b, err2 := direct.Search(q)
			if err1 != nil || err2 != nil || len(a) != len(b) {
				t.Fatalf("spanning=%v query %d: %d results/%v vs %d/%v", spanning, qi, len(a), err1, len(b), err2)
			}
			pn, dn := p.Stats().SearchNodeAccesses-p0, direct.Stats().SearchNodeAccesses-d0
			if pn != dn || pn == 0 {
				t.Fatalf("spanning=%v query %d: %d node accesses predicted, %d direct", spanning, qi, pn, dn)
			}
		}
	}
}

// TestPredictorReadersAcrossSwap runs lock-free readers while a writer
// carries the predictor from its staging tree through the drain into the
// skeleton. With inserts only, a reader must never see the whole-domain
// count or the commit epoch go down — a dip would mean it was handed a
// skeleton still being drained — and a snapshot must keep its count. Run
// under -race.
func TestPredictorReadersAcrossSwap(t *testing.T) {
	const n = 600
	p := newPredictedTree(t, predictConfig(), n, n/2)
	data := workload.I3.Generate(n, 7)
	all := geom.Rect2(0, 0, workload.DomainHi, workload.DomainHi)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastCount, lastEpoch := 0, uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				v := p.Snapshot()
				pinned, err1 := v.Count(all)
				count, err2 := p.Count(all)
				again, err3 := v.Count(all)
				epoch := p.CommitEpoch()
				v.Release()
				if err1 != nil || err2 != nil || err3 != nil {
					t.Errorf("reader: %v, %v, %v", err1, err2, err3)
					return
				}
				if pinned < lastCount || count < pinned || again != pinned || epoch < lastEpoch {
					t.Errorf("reader went backwards: count %d then snapshot %d/%d, live %d; epoch %d then %d",
						lastCount, pinned, again, count, lastEpoch, epoch)
					return
				}
				lastCount, lastEpoch = count, epoch
			}
		}()
	}
	for i, r := range data {
		if err := p.Insert(r, node.RecordID(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	if buffering(p) {
		t.Fatal("the run never crossed the swap")
	}
	if got, err := p.Count(all); err != nil || got != n {
		t.Fatalf("final Count = %d, %v", got, err)
	}
}
