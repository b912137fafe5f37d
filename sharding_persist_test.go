package segidx_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"segidx"
	"segidx/internal/store"
)

// Facade-level persistence tests for the sharded forest: a durable
// forest survives Close/OpenDurable with its full contents, reopening
// detects the manifest automatically, and the flush protocol's ordering
// invariant is enforced on the way back in — a shard whose durable epoch
// is ahead of the manifest is rejected as corruption.

func TestForestDurableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forest.db")
	idx, err := segidx.NewSRTree(
		segidx.WithDurableFile(path),
		segidx.WithShards(3),
		segidx.WithLeafNodeBytes(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	live := make(map[segidx.RecordID]segidx.Rect)
	for i := 0; i < 200; i++ {
		r := diffRect(rng)
		id := segidx.RecordID(i + 1)
		if err := idx.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		live[id] = r
	}
	for i := 0; i < 40; i++ {
		id := segidx.RecordID(5*i + 1)
		if _, err := idx.Delete(id, live[id]); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := segidx.OpenDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != 3 {
		t.Fatalf("reopened forest has %d shards, want 3", re.Shards())
	}
	if re.Kind() != "sr-tree" {
		t.Fatalf("reopened kind = %q, want sr-tree", re.Kind())
	}
	if re.Len() != len(live) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(live))
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 40; q++ {
		query := diffRect(rng)
		got, err := re.Search(query)
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

	// The reopened forest keeps working: mutate, close, reopen again.
	if err := re.Insert(segidx.Box(5, 5, 6, 6), 9999); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := segidx.OpenDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	if re2.Len() != len(live)+1 {
		t.Fatalf("second reopen Len = %d, want %d", re2.Len(), len(live)+1)
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestForestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forest.db")
	idx, err := segidx.NewRTree(
		segidx.WithFile(path),
		segidx.WithShards(2),
		segidx.WithLeafNodeBytes(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if err := idx.Insert(diffRect(rng), segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := segidx.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != 2 || re.Len() != 100 {
		t.Fatalf("reopened shards=%d len=%d, want 2 and 100", re.Shards(), re.Len())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
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
