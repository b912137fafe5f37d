package segidx_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"segidx"
	"segidx/internal/page"
	"segidx/internal/workload"
)

// pageID aliases the page identifier for the nopStore stub below.
type pageID = page.ID

// constructors returns one of each index type, sized for quick tests.
func constructors(tuples int) map[string]func() (*segidx.Index, error) {
	est := segidx.SkeletonEstimate{
		Tuples: tuples,
		Domain: segidx.Box(0, 0, workload.DomainHi, workload.DomainHi),
	}
	pred := est
	pred.PredictFraction = 0.05
	return map[string]func() (*segidx.Index, error){
		"r-tree":           func() (*segidx.Index, error) { return segidx.NewRTree() },
		"sr-tree":          func() (*segidx.Index, error) { return segidx.NewSRTree() },
		"skeleton-r-tree":  func() (*segidx.Index, error) { return segidx.NewSkeletonRTree(est) },
		"skeleton-sr-tree": func() (*segidx.Index, error) { return segidx.NewSkeletonSRTree(pred) },
	}
}

func TestAllIndexTypesAgree(t *testing.T) {
	const n = 3000
	data := workload.I3.Generate(n, 1234)
	queries := workload.Queries(1, 50, 55)
	queries = append(queries, workload.Queries(0.01, 50, 56)...)
	queries = append(queries, workload.Queries(100, 50, 57)...)

	// Reference answer from a brute-force scan.
	reference := make([][]segidx.RecordID, len(queries))
	for qi, q := range queries {
		for i, r := range data {
			if r.Intersects(q) {
				reference[qi] = append(reference[qi], segidx.RecordID(i+1))
			}
		}
	}

	for name, mk := range constructors(n) {
		t.Run(name, func(t *testing.T) {
			idx, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if idx.Kind() != name {
				t.Errorf("Kind = %q, want %q", idx.Kind(), name)
			}
			for i, r := range data {
				if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if idx.Len() != n {
				t.Fatalf("Len = %d", idx.Len())
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				got, err := idx.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				ids := make([]segidx.RecordID, 0, len(got))
				for _, e := range got {
					ids = append(ids, e.ID)
				}
				sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
				want := reference[qi]
				if len(ids) != len(want) {
					t.Fatalf("query %d: got %d results, want %d", qi, len(ids), len(want))
				}
				for i := range ids {
					if ids[i] != want[i] {
						t.Fatalf("query %d: result %d is %d, want %d", qi, i, ids[i], want[i])
					}
				}
			}
		})
	}
}

func TestOpenMissingFileMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.db")
	// Create an empty file store with no index in it.
	idx, err := segidx.NewRTree(segidx.WithFile(path))
	_ = idx
	if err != nil {
		t.Fatal(err)
	}
	// Do not flush; close the store behind the index's back by opening a
	// brand new path instead.
	fresh := filepath.Join(t.TempDir(), "missing.db")
	if _, err := segidx.Open(fresh); !errors.Is(err, segidx.ErrNoMeta) {
		t.Fatalf("Open(fresh) = %v, want ErrNoMeta", err)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := segidx.NewRTree(segidx.WithDims(0)); err == nil {
		t.Error("dims 0 accepted")
	}
	if _, err := segidx.NewSRTree(segidx.WithBranchReserve(2)); err == nil {
		t.Error("branch reserve 2 accepted")
	}
	if _, err := segidx.NewRTree(segidx.WithFile("")); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := segidx.NewRTree(segidx.WithStore(nil)); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := segidx.NewSkeletonRTree(segidx.SkeletonEstimate{Tuples: 0}); err == nil {
		t.Error("empty estimate accepted")
	}
	if _, err := segidx.NewRTree(segidx.WithShards(1025)); err == nil {
		t.Error("1025 shards accepted")
	}
	// Mutually exclusive store options.
	if _, err := segidx.NewRTree(segidx.WithFile("/tmp/x.db"), segidx.WithStore(nopStore{})); err == nil {
		t.Error("WithFile + WithStore accepted")
	}
}

// nopStore satisfies store.Store minimally for the option-conflict test.
type nopStore struct{}

func (nopStore) Allocate(int) (pageID, error) { return 0, fmt.Errorf("nop") }
func (nopStore) Write(pageID, []byte) error   { return fmt.Errorf("nop") }
func (nopStore) Read(pageID) ([]byte, error)  { return nil, fmt.Errorf("nop") }
func (nopStore) Free(pageID) error            { return fmt.Errorf("nop") }
func (nopStore) PageSize(pageID) (int, error) { return 0, fmt.Errorf("nop") }
func (nopStore) Len() int                     { return 0 }
func (nopStore) Close() error                 { return nil }

func TestDimensionsOtherThanTwo(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			idx, err := segidx.NewSRTree(segidx.WithDims(k), segidx.WithLeafNodeBytes(512))
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			min := make([]float64, k)
			max := make([]float64, k)
			for i := 0; i < 500; i++ {
				for d := 0; d < k; d++ {
					min[d] = float64((i * (d + 3)) % 900)
					max[d] = min[d] + float64(i%50)
				}
				r, err := segidx.NewRect(min, max)
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			all := make([]float64, k)
			hi := make([]float64, k)
			for d := range hi {
				hi[d] = 1000
			}
			q, _ := segidx.NewRect(all, hi)
			n, err := idx.Count(q)
			if err != nil || n != 500 {
				t.Fatalf("Count = %d, %v", n, err)
			}
		})
	}
}

func TestDeleteThroughPublicAPI(t *testing.T) {
	idx, err := segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{
		Tuples: 1000,
		Domain: segidx.Box(0, 0, workload.DomainHi, workload.DomainHi),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	data := workload.R2.Generate(1000, 3)
	for i, r := range data {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		n, err := idx.Delete(segidx.RecordID(i+1), data[i])
		if err != nil || n != 1 {
			t.Fatalf("delete %d: %d, %v", i, n, err)
		}
	}
	if idx.Len() != 500 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// edgeScript drives one index through the inputs where a second engine
// implementation is most likely to drift from the tree — a reused record
// ID, a delete whose hint covers one of two same-ID rectangles, a
// predicate delete, SearchWithin, wrong-dimension and NaN rectangles — and
// returns a transcript of every answer: ID sets, counts, lengths and error
// identities. Along the way it checks that a snapshot's epoch is the
// index's commit epoch and that the commit epoch never runs backwards.
func edgeScript(t *testing.T, x *segidx.Index) []string {
	t.Helper()
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	errName := func(err error) string {
		switch {
		case err == nil:
			return "nil"
		case errors.Is(err, segidx.ErrDims):
			return "ErrDims"
		case errors.Is(err, segidx.ErrBadRect):
			return "ErrBadRect"
		}
		return err.Error()
	}
	ids := func(entries []segidx.Entry, err error) string {
		return fmt.Sprintf("%v/%s", sortedIDs(entries), errName(err))
	}

	a1, a2 := segidx.Box(10, 10, 60, 20), segidx.Box(700, 700, 760, 720)
	b, c, d := segidx.Box(100, 100, 400, 110), segidx.Box(120, 90, 130, 300), segidx.Box(500, 40, 900, 45)
	probes := []segidx.Rect{
		segidx.Box(0, 0, 1000, 1000), // everything
		segidx.Box(0, 0, 80, 80),     // a1 but not a2
		segidx.Box(0, 0, 800, 800),   // a1 and a2
		segidx.Point(125, 105),       // stabs b and c
		segidx.Point(999, 999),       // stabs nothing
	}
	var lastEpoch uint64
	observe := func(tag string) {
		t.Helper()
		v := x.Snapshot()
		defer v.Release()
		epoch := x.CommitEpoch()
		if v.Epoch() != epoch || epoch < lastEpoch {
			t.Fatalf("%s: Snapshot().Epoch() = %d, CommitEpoch() = %d, previous %d", tag, v.Epoch(), epoch, lastEpoch)
		}
		lastEpoch = epoch
		note("%s: Len %d, view Len %d", tag, x.Len(), v.Len())
		for _, q := range probes {
			n, err := x.Count(q)
			vn, verr := v.Count(q)
			streamed, serr := uniqueIDs(func(fn func(segidx.Entry) bool) error { return x.SearchFunc(q, fn) })
			note("%s %v: Search %s, view %s; Count %d/%s, view %d/%s; SearchFunc %d ids/%s; Containing %s, view %s; Within %s",
				tag, q, ids(x.Search(q)), ids(v.Search(q)), n, errName(err), vn, errName(verr),
				len(streamed), errName(serr), ids(x.SearchContaining(q)), ids(v.SearchContaining(q)), ids(x.SearchWithin(q)))
		}
	}

	for _, rec := range []struct {
		id segidx.RecordID
		r  segidx.Rect
	}{{1, a1}, {2, b}, {3, c}, {1, a2}, {4, d}} {
		note("Insert %d: %s", rec.id, errName(x.Insert(rec.r, rec.id)))
	}
	observe("loaded")

	n, err := x.Delete(1, a2) // one of the two rectangles stored under ID 1
	note("Delete(1, a2) = %d/%s", n, errName(err))
	observe("after hinted delete")

	n, err = x.DeleteWhere(segidx.Box(110, 95, 140, 120), func(e segidx.Entry) bool { return e.ID != 3 })
	note("DeleteWhere = %d/%s", n, errName(err))
	n, err = x.Delete(99, probes[0])
	note("Delete(absent) = %d/%s", n, errName(err))
	observe("after predicate delete")

	v := x.Snapshot()
	defer v.Release()
	for name, bad := range map[string]segidx.Rect{
		"ErrDims":    {Min: []float64{1}, Max: []float64{2}},
		"ErrBadRect": {Min: []float64{math.NaN(), 0}, Max: []float64{1, 1}},
	} {
		_, e1 := x.Search(bad)
		e2 := x.SearchFunc(bad, func(segidx.Entry) bool { return true })
		_, e3 := x.SearchContaining(bad)
		e4 := x.SearchContainingFunc(bad, func(segidx.Entry) bool { return true })
		_, e5 := x.SearchWithin(bad)
		_, e6 := x.Count(bad)
		e7 := x.Insert(bad, 50)
		_, e8 := x.Delete(1, bad)
		_, e9 := x.DeleteWhere(bad, nil)
		_, e10 := v.Search(bad)
		_, e11 := v.Count(bad)
		for i, err := range []error{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11} {
			if errName(err) != name {
				t.Errorf("bad-rectangle call %d: error %v, want %s", i+1, err, name)
			}
		}
	}
	if err := x.StabFunc(func(segidx.Entry) bool { return true }, 1); !errors.Is(err, segidx.ErrDims) {
		t.Errorf("one-coordinate StabFunc: error %v, want ErrDims", err)
	}

	// Flush finalizes a predicted skeleton still collecting its sample, so
	// the last observation is always of a built tree.
	note("Flush: %s", errName(x.Flush()))
	observe("flushed")
	return log
}

// TestVariantsAgreeOnEdgeScript runs edgeScript over the variant table ×
// shards {1, 4} and requires one transcript from all of them. The expected
// input is sized so that the predicted skeleton builds on its third insert
// (one shard) and the sampling variant only at the final Flush: the
// staging tree that answers while sampling, the bracket that builds the
// skeleton, and the built skeleton all have to agree with the plain R-Tree.
func TestVariantsAgreeOnEdgeScript(t *testing.T) {
	var want []string
	for _, kind := range variantKinds {
		for _, shards := range []int{1, 4} {
			x := mkVariant(t, kind, shards, 64)
			got := edgeScript(t, x)
			if err := x.CheckInvariants(); err != nil {
				t.Errorf("%s/shards=%d: %v", kind, shards, err)
			}
			if err := x.Close(); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Errorf("%s/shards=%d diverges from r-tree/shards=1 at line %d:\n got %s\nwant %s",
						kind, shards, i, append(got, "<end>")[i], want[i])
					break
				}
			}
		}
	}
}
