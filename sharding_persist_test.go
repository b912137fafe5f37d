package segidx_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"segidx"
	"segidx/internal/forest"
	"segidx/internal/store"
)

// Facade-level persistence tests: an index of any shard count survives
// Close and Open/OpenDurable with its full contents in the file layout it
// has always had, reopening detects a manifest automatically, and the flush
// protocol's ordering invariant is enforced on the way back in — a shard
// whose durable epoch is ahead of the manifest is rejected as corruption.

// TestIndexLayoutAndRoundTrip builds the same index as one tree and as a
// forest of three, in memory, in a file and behind a write-ahead log, and
// checks what the one engine shape must not lose. A forest of one writes
// exactly the files a lone tree always wrote (p, plus p.wal when durable;
// no manifest, no p.shard0), so files from before the unification still
// open; it comes back without reading its pages, having no routing state
// to rebuild; and every reopened index answers like the brute-force model.
func TestIndexLayoutAndRoundTrip(t *testing.T) {
	backings := []struct {
		name    string
		durable bool
		with    func(string) segidx.Option // nil keeps the pages in memory
		open    func(string, ...segidx.Option) (*segidx.Index, error)
	}{
		{name: "memory"},
		{name: "file", with: segidx.WithFile, open: segidx.Open},
		{name: "durable", durable: true, with: segidx.WithDurableFile, open: segidx.OpenDurable},
	}
	for _, shards := range []int{1, 3} {
		for _, b := range backings {
			t.Run(fmt.Sprintf("%s/%d-shards", b.name, shards), func(t *testing.T) {
				// The one-shard files are big enough that a scan of the stored
				// portions on reopen could not hide among a few page reads.
				n := 400
				if shards == 1 && b.with != nil {
					n = 20000
				}
				dir := t.TempDir()
				path := filepath.Join(dir, "ix.db")
				opts := []segidx.Option{segidx.WithShards(shards), segidx.WithLeafNodeBytes(256)}
				if b.with != nil {
					opts = append(opts, b.with(path))
				}
				idx, err := segidx.NewSRTree(opts...)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(17))
				live := make(map[segidx.RecordID]segidx.Rect)
				for i := 0; i < n; i++ {
					r, id := diffRect(rng), segidx.RecordID(i+1)
					if err := idx.Insert(r, id); err != nil {
						t.Fatal(err)
					}
					live[id] = r
					if (i+1)%(n/4) == 0 {
						if err := idx.Flush(); err != nil {
							t.Fatalf("Flush at %d: %v", i+1, err)
						}
					}
				}
				for id := segidx.RecordID(1); int(id) <= n; id += 5 {
					if got, err := idx.Delete(id, live[id]); err != nil || got != 1 {
						t.Fatalf("Delete(%d) = %d, %v", id, got, err)
					}
					delete(live, id)
				}
				checkAgainstModel(t, idx, shards, live, rng)
				if err := idx.Close(); err != nil {
					t.Fatal(err)
				}
				if b.with == nil {
					return
				}

				var want []string
				for i := 0; i < shards; i++ {
					pages := "ix.db" // a forest of one is its tree's file
					if shards > 1 {
						pages = fmt.Sprintf("ix.db.shard%d", i)
					}
					want = append(want, pages)
					if b.durable {
						want = append(want, pages+".wal")
					}
				}
				if shards > 1 {
					want = append(want, "ix.db") // the manifest
				}
				sort.Strings(want)
				var got []string
				left, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range left {
					got = append(got, f.Name())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("files after Close = %v, want %v", got, want)
				}
				if sniffed := forest.SniffManifest(store.OS, path); sniffed != (shards > 1) {
					t.Fatalf("SniffManifest(%s) = %v with %d shards", path, sniffed, shards)
				}

				re, err := b.open(path)
				if err != nil {
					t.Fatal(err)
				}
				if gets := re.PoolStats().Gets; shards == 1 && gets > 2 {
					t.Fatalf("opening a one-shard index of %d records cost %d pool gets, want <= 2 (no scan)", n, gets)
				}
				checkAgainstModel(t, re, shards, live, rng)

				// The reopened index keeps working: mutate, close, reopen again.
				live[segidx.RecordID(n+1)] = segidx.Box(5, 5, 6, 6)
				if err := re.Insert(live[segidx.RecordID(n+1)], segidx.RecordID(n+1)); err != nil {
					t.Fatal(err)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				re2, err := b.open(path)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstModel(t, re2, shards, live, rng)
				if err := re2.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// checkAgainstModel compares an SR-Tree index with the brute-force model of
// what it should hold: shape, invariants and fifty searches.
func checkAgainstModel(t *testing.T, idx *segidx.Index, shards int, live map[segidx.RecordID]segidx.Rect, rng *rand.Rand) {
	t.Helper()
	if idx.Kind() != "sr-tree" || idx.Shards() != shards || idx.Len() != len(live) {
		t.Fatalf("kind %q, %d shards, Len %d; want sr-tree, %d, %d",
			idx.Kind(), idx.Shards(), idx.Len(), shards, len(live))
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		query := diffRect(rng)
		got, err := idx.Search(query)
		if err != nil {
			t.Fatal(err)
		}
		var want []segidx.RecordID
		for id, r := range live {
			if r.Intersects(query) {
				want = append(want, id)
			}
		}
		if !equalIDSlices(sortedIDs(got), sortedRecordIDs(want)) {
			t.Fatalf("query %d: got %d records, want %d", q, len(got), len(want))
		}
	}
}

// TestCloseLeavesCallerStoreOpen: a WithStore store is the one shard's
// pages but stays the caller's — Close flushes into it and leaves it usable.
func TestCloseLeavesCallerStoreOpen(t *testing.T) {
	st := store.NewMemStore()
	idx, err := segidx.NewSRTree(segidx.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(segidx.Box(1, 1, 2, 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Len() < 2 {
		t.Fatalf("store holds %d pages after Close, want the metadata page and a root", st.Len())
	}
	if _, err := st.Allocate(64); err != nil {
		t.Fatalf("caller's store after Close: %v", err)
	}
}

// TestForestShardAheadOfManifestIsBroken destroys the manifest slot that
// recorded the last commit, leaving every shard's durable epoch ahead of
// the best surviving manifest epoch — a state no crash of the
// manifest-first flush protocol can produce. Reopening must refuse with
// ErrBroken rather than serve a forest that time-travelled backwards.
func TestForestShardAheadOfManifestIsBroken(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forest.db")
	idx, err := segidx.NewSRTree(
		segidx.WithDurableFile(path),
		segidx.WithShards(2),
		segidx.WithLeafNodeBytes(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		if err := idx.Insert(diffRect(rng), segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Close(); err != nil { // commits manifest epoch 1 (slot 1)
		t.Fatal(err)
	}

	// Corrupt the epoch-1 slot; slot 0 still holds the epoch-0 manifest,
	// so the manifest itself remains readable, just older than the shards.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := segidx.OpenDurable(path); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("OpenDurable with shards ahead of manifest = %v, want ErrBroken", err)
	}
}

func TestShardOptionValidation(t *testing.T) {
	if _, err := segidx.NewRTree(segidx.WithShards(-1)); err == nil {
		t.Fatal("WithShards(-1) accepted")
	}
	if _, err := segidx.NewRTree(
		segidx.WithStore(store.NewMemStore()), segidx.WithShards(2)); err == nil {
		t.Fatal("WithStore+WithShards accepted; they are mutually exclusive")
	}
	// WithShards(1) and WithShards(0) mean a plain single tree.
	idx, err := segidx.NewRTree(segidx.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", idx.Shards())
	}
}

// A constructor call that is rejected must not leave anything on disk: an
// empty file at the path would make a later Open fail with ErrNoMeta
// instead of "no such index".
func TestRejectedConstructionLeavesNoFiles(t *testing.T) {
	domain := segidx.Box(0, 0, 100, 100)
	rejected := map[string]func(...segidx.Option) (*segidx.Index, error){
		"no tuples": func(o ...segidx.Option) (*segidx.Index, error) {
			return segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{Tuples: 0, Domain: domain}, o...)
		},
		"predict fraction above 1": func(o ...segidx.Option) (*segidx.Index, error) {
			return segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{Tuples: 100, Domain: domain, PredictFraction: 1.5}, o...)
		},
		"no domain": func(o ...segidx.Option) (*segidx.Index, error) {
			return segidx.NewSkeletonRTree(segidx.SkeletonEstimate{Tuples: 100, PredictFraction: 0.1}, o...)
		},
		"domain of wrong dims": func(o ...segidx.Option) (*segidx.Index, error) {
			return segidx.NewSkeletonRTree(segidx.SkeletonEstimate{Tuples: 100, Domain: segidx.Point(1, 2, 3)}, o...)
		},
		"bad config": func(o ...segidx.Option) (*segidx.Index, error) {
			return segidx.NewSRTree(append(o, segidx.WithDims(99))...)
		},
	}
	files := map[string]func(string) segidx.Option{
		"file": segidx.WithFile, "durable": segidx.WithDurableFile,
	}
	for name, construct := range rejected {
		for _, shards := range []int{1, 4} {
			for kind, withPath := range files {
				dir := t.TempDir()
				_, err := construct(withPath(filepath.Join(dir, "ix.db")), segidx.WithShards(shards))
				if err == nil {
					t.Errorf("%s, %d shards, %s: accepted", name, shards, kind)
					continue
				}
				left, rerr := os.ReadDir(dir)
				if rerr != nil {
					t.Fatal(rerr)
				}
				for _, f := range left {
					t.Errorf("%s, %d shards, %s: left %s behind", name, shards, kind, f.Name())
				}
			}
		}
	}
}

func sortedRecordIDs(ids []segidx.RecordID) []segidx.RecordID {
	out := append([]segidx.RecordID(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
