package buffer

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// newPool builds a single-shard pool: the legacy tests in this file assert
// exact byte-budget and LRU-order behavior, which only one shard provides
// (a sharded pool splits the budget per stripe). The shard-specific tests
// below construct multi-shard pools explicitly.
func newPool(t *testing.T, budget int) (*Pool, *store.MemStore) {
	t.Helper()
	st := store.NewMemStore()
	return NewSharded(st, node.Codec{Dims: 2}, budget, 1), st
}

func addRecord(n *node.Node, id uint64) {
	n.Records = append(n.Records, node.Record{
		Rect: geom.Rect2(float64(id), 0, float64(id)+1, 1),
		ID:   node.RecordID(id),
	})
}

func TestNewGetUnpinRoundTrip(t *testing.T) {
	p, _ := newPool(t, 0)
	n, err := p.NewNode(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	addRecord(n, 42)
	if err := p.Unpin(n.ID, true); err != nil {
		t.Fatal(err)
	}

	got, err := p.Get(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Error("resident Get should return the same node object")
	}
	if len(got.Records) != 1 || got.Records[0].ID != 42 {
		t.Fatalf("records = %+v", got.Records)
	}
	if err := p.Unpin(n.ID, false); err != nil {
		t.Fatal(err)
	}

	s := p.Stats()
	if s.Gets != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEvictionWritesBackAndReloads(t *testing.T) {
	// Budget fits roughly 2 pages of 1024 bytes.
	p, _ := newPool(t, 2*1024)
	var ids []page.ID
	for i := 0; i < 6; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(i+100))
		ids = append(ids, n.ID)
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Resident(); got > 2 {
		t.Fatalf("Resident = %d, want <= 2", got)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
	// Every node, including evicted ones, reloads with its contents.
	for i, id := range ids {
		n, err := p.Get(id)
		if err != nil {
			t.Fatalf("Get(%v): %v", id, err)
		}
		if len(n.Records) != 1 || n.Records[0].ID != node.RecordID(i+100) {
			t.Fatalf("node %v contents lost: %+v", id, n.Records)
		}
		if err := p.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPinnedFramesAreNotEvicted(t *testing.T) {
	p, _ := newPool(t, 1024) // budget of one page
	a, _ := p.NewNode(0, 1024)
	// a stays pinned; allocating b pushes the pool over budget but a must
	// survive because it is pinned.
	b, err := p.NewNode(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	addRecord(a, 1)
	if err := p.Unpin(b.ID, true); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Error("pinned node was evicted")
	}
	p.Unpin(a.ID, true)
	p.Unpin(a.ID, true)
}

// TestUpgradeClonesAtFirstMutation walks the write path's protocol: pin with
// Get, upgrade before the first change, and only then is there a clone — one
// per page per bracket, born dirty, with the pre-image still serving the
// epoch before it.
func TestUpgradeClonesAtFirstMutation(t *testing.T) {
	p, _ := newPool(t, 0)
	p.BeginWrite(1)
	n, err := p.NewNode(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	addRecord(n, 1)
	id := n.ID
	if err := p.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	p.Publish(1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := p.Stats().Writes

	// A bracket that only reads: no clone, nothing to write back.
	p.BeginWrite(2)
	if _, err := p.Get(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	p.Publish(2)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Clones != 0 || s.Writes != flushed {
		t.Fatalf("read-only bracket: %d clones, %d write-backs", s.Clones, s.Writes-flushed)
	}

	// A bracket that changes the page: Get, Upgrade, mutate the result.
	p.BeginWrite(3)
	head, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := p.Upgrade(id)
	if err != nil {
		t.Fatal(err)
	}
	if clone == head {
		t.Fatal("Upgrade of a published head returned the head itself")
	}
	addRecord(clone, 2)
	if again, err := p.GetMut(id); err != nil || again != clone {
		t.Fatalf("second upgrade in the bracket = (%p, %v), want the same clone %p", again, err, clone)
	}
	if err := p.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(id, false); err != nil { // the upgraded pin, released as read: the clone is dirty already
		t.Fatal(err)
	}
	p.Publish(3)
	if s := p.Stats(); s.Clones != 1 || s.ClonedBytes != 1024 || s.Retained != 1 {
		t.Fatalf("stats after one upgrade = %+v", s)
	}
	if old, err := p.GetVersion(id, 2); err != nil || old != head || len(old.Records) != 1 {
		t.Fatalf("epoch 2 resolves to (%p, %v) with %d records, want the pre-image %p with 1", old, err, len(old.Records), head)
	}
	if cur, err := p.GetVersion(id, 3); err != nil || cur != clone {
		t.Fatalf("epoch 3 resolves to (%p, %v), want the clone", cur, err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Writes - flushed; got != 1 {
		t.Fatalf("%d write-backs for one changed page", got)
	}

	// A published head someone else pins cannot be retired; the failed
	// upgrade gives its own pin up.
	p.BeginWrite(4)
	if _, err := p.Get(id); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetMut(id); !errors.Is(err, ErrPinned) {
		t.Fatalf("upgrade of a twice-pinned head = %v, want ErrPinned", err)
	}
	if err := p.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(id, false); err == nil {
		t.Fatal("the failed upgrade kept its pin")
	}
	if _, err := p.Upgrade(id); err == nil {
		t.Fatal("Upgrade without a pin succeeded")
	}
	if err := p.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Outside a bracket there is nothing to isolate: the node is mutated in
	// place.
	if same, err := p.GetMut(id); err != nil || same != clone {
		t.Fatalf("GetMut outside a bracket = (%p, %v), want the resident node", same, err)
	}
	if err := p.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
}

func TestUnpinErrors(t *testing.T) {
	p, _ := newPool(t, 0)
	n, _ := p.NewNode(0, 1024)
	if err := p.Unpin(n.ID, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(n.ID, false); err == nil {
		t.Error("double unpin accepted")
	}
	if err := p.Unpin(page.ID(999), false); err == nil {
		t.Error("unpin of unknown page accepted")
	}
}

func TestFreeRequiresUnpinned(t *testing.T) {
	p, st := newPool(t, 0)
	n, _ := p.NewNode(0, 1024)
	if err := p.Free(n.ID); !errors.Is(err, ErrPinned) {
		t.Fatalf("Free of pinned = %v, want ErrPinned", err)
	}
	p.Unpin(n.ID, false)
	if err := p.Free(n.ID); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Error("store page not released")
	}
	if _, err := p.Get(n.ID); err == nil {
		t.Error("Get of freed page succeeded")
	}
}

func TestFlushPersists(t *testing.T) {
	st := store.NewMemStore()
	codec := node.Codec{Dims: 2}
	p := New(st, codec, 0)
	n, _ := p.NewNode(1, 2048)
	n.Branches = append(n.Branches, node.Branch{Rect: geom.Rect2(0, 0, 1, 1), Child: 77})
	p.Unpin(n.ID, true)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second pool over the same store sees the flushed state.
	p2 := New(st, codec, 0)
	got, err := p2.Get(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Branches) != 1 || got.Branches[0].Child != 77 {
		t.Fatalf("flushed node mismatch: %+v", got)
	}
	p2.Unpin(n.ID, false)
}

func TestInvalidateDropsStaleFrames(t *testing.T) {
	p, _ := newPool(t, 0)

	// Two nodes flushed to the store, then dirtied in the pool so the
	// resident copies diverge from the durable image.
	n1, _ := p.NewNode(0, 1024)
	addRecord(n1, 1)
	p.Unpin(n1.ID, true)
	n2, _ := p.NewNode(0, 1024)
	addRecord(n2, 2)
	p.Unpin(n2.ID, true)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []page.ID{n1.ID, n2.ID} {
		n, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, 99) // never flushed: stale after a failed commit
		p.Unpin(id, true)
	}
	// A third node stays pinned; Invalidate must leave it alone.
	n3, _ := p.NewNode(0, 1024)

	if pinned := p.Invalidate(); pinned != 1 {
		t.Fatalf("Invalidate reported %d pinned frames, want 1", pinned)
	}

	// The dirtied frames are gone: Get reloads the durable image, and the
	// stale record was discarded rather than written back.
	for i, id := range []page.ID{n1.ID, n2.ID} {
		n, err := p.Get(id)
		if err != nil {
			t.Fatalf("Get after invalidate: %v", err)
		}
		if len(n.Records) != 1 || n.Records[0].ID != node.RecordID(i+1) {
			t.Fatalf("node %v after invalidate has records %+v, want the flushed copy", id, n.Records)
		}
		p.Unpin(id, false)
	}
	// The pinned node survived untouched.
	got, err := p.Get(n3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != n3 {
		t.Error("pinned frame was dropped by Invalidate")
	}
	p.Unpin(n3.ID, false)
	p.Unpin(n3.ID, false) // release the original pin
}

func TestReadErrorPropagates(t *testing.T) {
	p, st := newPool(t, 0)
	n, _ := p.NewNode(0, 1024)
	p.Unpin(n.ID, true)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Force the node out of memory by freeing the frame indirectly: use a
	// tiny-budget pool over the same store instead.
	small := New(st, node.Codec{Dims: 2}, 1)
	boom := errors.New("disk gone")
	st.InjectReadError(1, boom)
	if _, err := small.Get(n.ID); !errors.Is(err, boom) {
		t.Fatalf("Get = %v, want injected error", err)
	}
}

func TestCorruptPageRejected(t *testing.T) {
	st := store.NewMemStore()
	id, _ := st.Allocate(1024)
	garbage := make([]byte, 1024)
	for i := range garbage {
		garbage[i] = 0x5A
	}
	if err := st.Write(id, garbage); err != nil {
		t.Fatal(err)
	}
	p := New(st, node.Codec{Dims: 2}, 0)
	if _, err := p.Get(id); err == nil {
		t.Fatal("corrupt page decoded successfully")
	}
}

func TestPageBytes(t *testing.T) {
	p, _ := newPool(t, 0)
	n, _ := p.NewNode(2, 4096)
	if got, err := p.PageBytes(n.ID); err != nil || got != 4096 {
		t.Fatalf("PageBytes = %d, %v", got, err)
	}
}

func TestPinChurnUnderPressure(t *testing.T) {
	// Repeatedly pin chains of nodes while the budget allows only a few
	// frames; correctness of contents must survive heavy eviction.
	p, _ := newPool(t, 3*1024)
	const nodes = 32
	ids := make([]page.ID, nodes)
	for i := 0; i < nodes; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(1000+i))
		ids[i] = n.ID
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		// Pin a chain of three, mutate the middle one, unpin in reverse.
		a, b, c := ids[round%nodes], ids[(round+7)%nodes], ids[(round+13)%nodes]
		na, err := p.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := p.Get(b)
		if err != nil {
			t.Fatal(err)
		}
		nc, err := p.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		nb.Records[0].ID = node.RecordID(5000 + round)
		_ = na
		_ = nc
		p.Unpin(c, false)
		p.Unpin(b, true)
		p.Unpin(a, false)
		// Read the mutation back, possibly after eviction.
		nb2, err := p.Get(b)
		if err != nil {
			t.Fatal(err)
		}
		if nb2.Records[0].ID != node.RecordID(5000+round) {
			t.Fatalf("round %d: mutation lost (got %d)", round, nb2.Records[0].ID)
		}
		p.Unpin(b, false)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions; pressure test is vacuous")
	}
}

// TestPoolShardAccounting checks the aggregate counters of a multi-shard
// pool: Stats() must equal the sum of ShardStats(), Hits+Misses must
// equal Gets, and the shard count must round up to a power of two.
func TestPoolShardAccounting(t *testing.T) {
	st := store.NewMemStore()
	p := NewSharded(st, node.Codec{Dims: 2}, 4*1024, 7) // rounds up to 8
	if got := p.Shards(); got != 8 {
		t.Fatalf("Shards = %d, want 8 (rounded up from 7)", got)
	}
	var ids []page.ID
	for i := 0; i < 24; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(i+1))
		ids = append(ids, n.ID)
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	// Re-read every page a few times to generate hits and misses.
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			n, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(n.Records) != 1 {
				t.Fatalf("page %v contents lost", id)
			}
			if err := p.Unpin(id, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	agg := p.Stats()
	var sum Stats
	perShard := p.ShardStats()
	if len(perShard) != p.Shards() {
		t.Fatalf("ShardStats returned %d entries, want %d", len(perShard), p.Shards())
	}
	for _, s := range perShard {
		sum.Add(s)
	}
	if agg != sum {
		t.Fatalf("Stats() = %+v, sum of ShardStats() = %+v", agg, sum)
	}
	if agg.Gets != agg.Hits+agg.Misses {
		t.Fatalf("Gets %d != Hits %d + Misses %d", agg.Gets, agg.Hits, agg.Misses)
	}
	if agg.Gets != uint64(3*len(ids)) {
		t.Fatalf("Gets = %d, want %d", agg.Gets, 3*len(ids))
	}
	if agg.Misses == 0 || agg.Evictions == 0 {
		t.Fatalf("expected evictions under a tight budget: %+v", agg)
	}
}

// TestPoolShardPinnedNeverEvicted pins a set of nodes spread across the
// shards of a pool with a budget far below the pinned footprint, churns
// unpinned pages through every shard, and checks each pinned pointer
// still resolves to the identical in-memory node.
func TestPoolShardPinnedNeverEvicted(t *testing.T) {
	st := store.NewMemStore()
	p := NewSharded(st, node.Codec{Dims: 2}, 2*1024, 8)
	const pinned = 12
	type held struct {
		id page.ID
		n  *node.Node
	}
	var hold []held
	for i := 0; i < pinned; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(9000+i))
		hold = append(hold, held{n.ID, n}) // stays pinned
	}
	// Churn: allocate and release far more bytes than the budget so every
	// shard evicts whatever it legally can.
	for i := 0; i < 64; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions; churn is vacuous")
	}
	for i, h := range hold {
		got, err := p.Get(h.id)
		if err != nil {
			t.Fatal(err)
		}
		if got != h.n {
			t.Fatalf("pinned node %d was evicted and re-decoded", i)
		}
		if got.Records[0].ID != node.RecordID(9000+i) {
			t.Fatalf("pinned node %d contents changed", i)
		}
		p.Unpin(h.id, false) // release the Get pin
		p.Unpin(h.id, true)  // release the original pin
	}
}

// TestPoolConcurrentHammer drives a multi-shard pool from many goroutines
// under -race: all goroutines re-read a shared set of pages (including
// IDs that collide onto the same shard), each goroutine mutates a private
// page, and Flush/Stats/Resident run concurrently. Final contents are
// verified after the storm.
func TestPoolConcurrentHammer(t *testing.T) {
	st := store.NewMemStore()
	p := NewSharded(st, node.Codec{Dims: 2}, 8*1024, 4)
	const (
		sharedPages = 16
		goroutines  = 8
		iters       = 300
	)
	shared := make([]page.ID, sharedPages)
	for i := range shared {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(i+1))
		shared[i] = n.ID
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	private := make([]page.ID, goroutines)
	for g := range private {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(100+g))
		private[g] = n.ID
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	// treeMu stands in for the tree's lock: a page is mutated and the pool
	// flushed only under it (the pool marshals pinned dirty frames too).
	var treeMu sync.RWMutex
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Read-only access to a shared page; offsets by goroutine so
				// colliding IDs hit the same shard from different goroutines.
				id := shared[(i+g*3)%sharedPages]
				n, err := p.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if len(n.Records) != 1 {
					errs <- fmt.Errorf("shared page %v lost its record", id)
					return
				}
				if err := p.Unpin(id, false); err != nil {
					errs <- err
					return
				}
				// Mutate this goroutine's private page.
				pn, err := p.Get(private[g])
				if err != nil {
					errs <- err
					return
				}
				treeMu.RLock()
				pn.Records[0].ID = node.RecordID(1000*g + i)
				treeMu.RUnlock()
				if err := p.Unpin(private[g], true); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			treeMu.Lock()
			err := p.Flush()
			treeMu.Unlock()
			if err != nil {
				errs <- err
				return
			}
			_ = p.Stats()
			_ = p.Resident()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := range private {
		n, err := p.Get(private[g])
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Records[0].ID; got != node.RecordID(1000*g+iters-1) {
			t.Fatalf("goroutine %d: final private value = %d, want %d", g, got, 1000*g+iters-1)
		}
		p.Unpin(private[g], false)
	}
	s := p.Stats()
	if s.Gets != s.Hits+s.Misses {
		t.Fatalf("Gets %d != Hits %d + Misses %d", s.Gets, s.Hits, s.Misses)
	}
}

func BenchmarkPoolGetHit(b *testing.B) {
	st := store.NewMemStore()
	p := New(st, node.Codec{Dims: 2}, 0)
	n, err := p.NewNode(0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	p.Unpin(n.ID, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(n.ID); err != nil {
			b.Fatal(err)
		}
		p.Unpin(n.ID, false)
	}
}

func BenchmarkPoolGetMiss(b *testing.B) {
	st := store.NewMemStore()
	codec := node.Codec{Dims: 2}
	// Tiny budget: every other access evicts.
	p := New(st, codec, 1024)
	a, err := p.NewNode(0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	p.Unpin(a.ID, true)
	c, err := p.NewNode(0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	p.Unpin(c.ID, true)
	ids := []page.ID{a.ID, c.ID}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%2]
		if _, err := p.Get(id); err != nil {
			b.Fatal(err)
		}
		p.Unpin(id, false)
	}
}
