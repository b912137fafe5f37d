package core

import (
	"math/rand"
	"testing"

	"segidx/internal/node"
	"segidx/internal/store"
)

// TestEpochRoundTrip verifies the forest flush epoch rides the metadata
// page through Flush, ReadMeta, and Open.
func TestEpochRoundTrip(t *testing.T) {
	st := store.NewMemStore()
	tr, err := New(smallConfig(true), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.FlushEpoch(); got != 0 {
		t.Fatalf("fresh epoch = %d", got)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		if err := tr.Insert(randSegment(rng), node.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetFlushEpoch(7)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	meta, err := ReadMeta(st)
	if err != nil {
		t.Fatal(err)
	}
	if meta.FlushEpoch != 7 {
		t.Fatalf("ReadMeta epoch = %d, want 7", meta.FlushEpoch)
	}

	reopened, err := Open(smallConfig(true), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.FlushEpoch(); got != 7 {
		t.Fatalf("reopened epoch = %d, want 7", got)
	}
	if reopened.Len() != 20 {
		t.Fatalf("reopened Len = %d", reopened.Len())
	}

	// SetFlushEpoch alone does not persist: only the next Flush carries it.
	reopened.SetFlushEpoch(9)
	meta, err = ReadMeta(st)
	if err != nil {
		t.Fatal(err)
	}
	if meta.FlushEpoch != 7 {
		t.Fatalf("epoch persisted without Flush: %d", meta.FlushEpoch)
	}
	if err := reopened.Flush(); err != nil {
		t.Fatal(err)
	}
	meta, err = ReadMeta(st)
	if err != nil {
		t.Fatal(err)
	}
	if meta.FlushEpoch != 9 {
		t.Fatalf("post-flush epoch = %d, want 9", meta.FlushEpoch)
	}
}
