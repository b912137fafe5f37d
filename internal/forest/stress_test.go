package forest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"segidx/internal/core"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
)

// The stress suite runs the forest's intended concurrent shape — one
// writer pinned to each shard, scatter-gather readers over all of them,
// and a flush loop — under the race detector, and proves the property
// sharding exists to deliver: a stalled shard does not serialize the
// writers on the other shards.

// shardRects generates count rectangles that route to each shard of an
// n-shard forest, keyed by shard.
func shardRects(rng *rand.Rand, n, count int) [][]geom.Rect {
	out := make([][]geom.Rect, n)
	for {
		done := true
		for s := range out {
			if len(out[s]) < count {
				done = false
			}
		}
		if done {
			return out
		}
		r := randRect(rng)
		s := RouteRect(r, n)
		if len(out[s]) < count {
			out[s] = append(out[s], r)
		}
	}
}

// TestForestConcurrentStress drives pinned writers, scatter-gather
// readers, and a flush loop against one forest at once. Run with -race
// (the CI forest job does); the assertions here are the end-state ones —
// every surviving record answerable, invariants intact.
func TestForestConcurrentStress(t *testing.T) {
	const (
		shards    = 4
		perWriter = 300
		readers   = 2
	)
	f := newMemForest(t, shards, true)
	rects := shardRects(rand.New(rand.NewSource(42)), shards, perWriter)

	var wgWork, wgReaders sync.WaitGroup
	stopReaders := make(chan struct{})
	errs := make(chan error, shards+readers+1)

	// One writer per shard: insert its pinned rectangles, deleting every
	// fifth one again, so flushes commit both allocations and frees.
	for w := 0; w < shards; w++ {
		wgWork.Add(1)
		go func(w int) {
			defer wgWork.Done()
			for i, r := range rects[w] {
				id := node.RecordID(w*1_000_000 + i + 1)
				if err := f.Insert(r, id); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if i%5 == 0 {
					if _, err := f.Delete(id, r); err != nil {
						errs <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Scatter-gather readers across all shards while the writers run.
	for rd := 0; rd < readers; rd++ {
		wgReaders.Add(1)
		go func(rd int) {
			defer wgReaders.Done()
			rng := rand.New(rand.NewSource(int64(100 + rd)))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				q := randRect(rng)
				if _, err := f.Search(q); err != nil {
					errs <- fmt.Errorf("reader %d search: %w", rd, err)
					return
				}
				if _, err := f.Count(q); err != nil {
					errs <- fmt.Errorf("reader %d count: %w", rd, err)
					return
				}
				n := 0
				err := f.SearchFunc(q, func(core.Entry) bool { n++; return n < 8 })
				if err != nil {
					errs <- fmt.Errorf("reader %d stream: %w", rd, err)
					return
				}
			}
		}(rd)
	}

	// A flush loop: group-commit individual shards, then the whole forest.
	wgWork.Add(1)
	go func() {
		defer wgWork.Done()
		for round := 0; round < 20; round++ {
			if err := f.FlushShard(round % shards); err != nil {
				errs <- fmt.Errorf("flush shard: %w", err)
				return
			}
			if round%5 == 0 {
				if err := f.Flush(); err != nil {
					errs <- fmt.Errorf("flush: %w", err)
					return
				}
			}
		}
	}()

	// Readers run for as long as the writers and the flusher do.
	wgWork.Wait()
	close(stopReaders)
	wgReaders.Wait()

	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	wantLen := shards * (perWriter - (perWriter+4)/5)
	if f.Len() != wantLen {
		t.Fatalf("Len = %d after stress, want %d", f.Len(), wantLen)
	}
	got, err := f.Search(geom.Rect2(0, 0, 1100, 1100))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != wantLen {
		t.Fatalf("full sweep returns %d records, want %d", len(got), wantLen)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// gatedEngine wraps a shard engine so the test can hold its Insert open:
// entered signals once a writer is inside the shard's insert path, and
// release lets it finish.
type gatedEngine struct {
	core.Engine
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedEngine) Insert(r geom.Rect, id node.RecordID) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Engine.Insert(r, id)
}

// TestForestBlockedShardDoesNotSerializeWriters is the non-serialization
// proof: while a writer is parked inside shard 0's insert path, writers
// on shards 1..3 must run to completion. A forest that funneled inserts
// through any shared write lock would deadlock here (and the test would
// time out); with per-shard locks the blocked shard is invisible to the
// others.
func TestForestBlockedShardDoesNotSerializeWriters(t *testing.T) {
	const shards = 4
	gate := &gatedEngine{
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	fshards := make([]Shard, shards)
	for i := range fshards {
		st := store.NewMemStore()
		tr, err := core.New(smallConfig(false), st)
		if err != nil {
			t.Fatal(err)
		}
		fshards[i] = Shard{Eng: tr, Store: st}
	}
	gate.Engine = fshards[0].Eng
	fshards[0].Eng = gate
	f, err := New(fshards, Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	rects := shardRects(rand.New(rand.NewSource(7)), shards, 100)

	// Park a writer inside shard 0.
	blockedDone := make(chan error, 1)
	go func() {
		blockedDone <- f.Insert(rects[0][0], 1)
	}()
	<-gate.entered

	// With shard 0 held open, the other writers must finish unaided.
	var wg sync.WaitGroup
	errs := make(chan error, shards-1)
	for w := 1; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, r := range rects[w] {
				if err := f.Insert(r, node.RecordID(w*1000+i+2)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for w := 1; w < shards; w++ {
		if got := f.ShardLens()[w]; got != 100 {
			t.Fatalf("shard %d holds %d records while shard 0 is blocked, want 100", w, got)
		}
	}

	// Release the parked writer and confirm the forest is whole.
	close(gate.release)
	if err := <-blockedDone; err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1+(shards-1)*100 {
		t.Fatalf("Len = %d after release, want %d", f.Len(), 1+(shards-1)*100)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
