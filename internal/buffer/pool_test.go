package buffer

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// newPool builds a pool over a fresh MemStore.
func newPool(t *testing.T, budget int) (*Pool, *store.MemStore) {
	t.Helper()
	st := store.NewMemStore()
	return New(st, node.Codec{Dims: 2}, budget), st
}

// getMut pins id and upgrades the pin, as the writer does for a page it
// fetches in order to change it.
func getMut(p *Pool, id page.ID) (*node.Node, error) {
	if _, err := p.Get(id); err != nil {
		return nil, err
	}
	return p.Upgrade(id)
}

// resident reports whether id has a resident head, without touching its
// reference bit.
func resident(p *Pool, id page.ID) bool { return p.table.load(id) != nil }

// recordIDs reads the record IDs of a page image, as a reader does.
func recordIDs(img node.Image) []uint64 {
	_, records := img.Runs(2)
	var ids []uint64
	for i := 0; i < len(records)/6; i++ {
		_, id := node.RecordAt(records, 2, i)
		ids = append(ids, uint64(id))
	}
	return ids
}

// headImage returns the image of id's resident head, nil when it has none.
func headImage(p *Pool, id page.ID) node.Image {
	if f := p.table.load(id); f != nil {
		return f.img
	}
	return nil
}

// sameImage reports whether a and b are the same image, not merely equal
// ones.
func sameImage(a, b node.Image) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

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
	// Nothing was referenced after its creation, and a new frame enters
	// the CLOCK ring just behind the hand: the sweep evicts in creation
	// order and the two newest pages stay.
	for i, id := range ids {
		if want := i >= 4; resident(p, id) != want {
			t.Fatalf("page %d resident = %v, want %v", i, !want, want)
		}
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

// TestClockSecondChance pins the eviction policy. A hit sets
// a page's reference bit; the sweep clears a set bit and passes over the
// page once, then evicts the first unreferenced page it meets. The last
// step is where CLOCK and LRU part. LRU would evict a, whose last use is
// the oldest. CLOCK does not order by last use: e takes the ring slot
// under the hand, which moves a to the ring's end, and the sweep clears
// c's bit and evicts d, the first unreferenced page it meets.
func TestClockSecondChance(t *testing.T) {
	p, st := newPool(t, 3*1024)
	var tally Tally
	mk := func(v uint64) page.ID {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, v)
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
		return n.ID
	}
	hit := func(id page.ID) {
		if _, err := p.GetVersion(id, 0, &tally); err != nil {
			t.Fatal(err)
		}
	}
	want := func(step string, in, out []page.ID) {
		t.Helper()
		for _, id := range in {
			if !resident(p, id) {
				t.Fatalf("%s: %v was evicted", step, id)
			}
		}
		for _, id := range out {
			if resident(p, id) {
				t.Fatalf("%s: %v is still resident", step, id)
			}
		}
	}
	a, b, c := mk(1), mk(2), mk(3)
	hit(a)
	d := mk(4)
	want("after d", []page.ID{a, c, d}, []page.ID{b})
	hit(c)
	e := mk(5)
	want("after e", []page.ID{a, c, e}, []page.ID{b, d})
	if s := p.Stats(); s.Evictions != 2 || s.Writes != 2 {
		t.Fatalf("stats = %+v, want 2 evictions, each written back", s)
	}
	// The evicted pages reload from the store with their contents.
	for v, id := range []page.ID{b, d} {
		buf, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.Codec{Dims: 2}.Unmarshal(buf, id)
		if err != nil || len(n.Records) != 1 || n.Records[0].ID != node.RecordID(2*v+2) {
			t.Fatalf("written-back page %v = %+v, %v", id, n, err)
		}
	}
	p.Settle(&tally)
	if s := p.Stats(); s.Gets != 2 || s.Hits != 2 {
		t.Fatalf("stats after two lock-free hits = %+v", s)
	}
}

// TestMissInstallsBehindHand cycles 8 published pages through a pool of
// one page. Every read misses, and the page it read must be the one left
// resident: the sweep that follows the install evicts the previous page,
// never the new one. A miss once appended the new frame under a hand that
// stood past the ring's end, so the sweep took the page just read.
func TestMissInstallsBehindHand(t *testing.T) {
	const pages = 8
	p, _ := newPool(t, 1024)
	var ids []page.ID
	for i := 0; i < pages; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(i))
		ids = append(ids, n.ID)
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	p.Publish(0)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	var tally Tally
	for i := 0; i < 3*pages; i++ {
		id := ids[i%pages]
		before := p.Stats().Misses
		if _, err := p.GetVersion(id, 0, &tally); err != nil {
			t.Fatal(err)
		}
		if p.Stats().Misses == before {
			t.Fatalf("read %d of %v hit in a one-page pool cycling %d pages", i, id, pages)
		}
		if !resident(p, id) {
			t.Fatalf("read %d: the miss on %v evicted the page it read", i, id)
		}
	}
}

// TestPinnedFramesAreNotEvicted pins pages whose footprint reaches or
// exceeds the budget, churns unpinned pages through the pool, and checks
// each pinned pointer still resolves to the identical in-memory node.
func TestPinnedFramesAreNotEvicted(t *testing.T) {
	for _, tc := range []struct{ budget, pinned, churn int }{
		{1024, 1, 1},       // a budget of one page, held by the pinned one
		{2 * 1024, 12, 64}, // pinned footprint far above the budget
	} {
		t.Run(fmt.Sprintf("pinned=%d,churn=%d", tc.pinned, tc.churn), func(t *testing.T) {
			p, _ := newPool(t, tc.budget)
			var hold []*node.Node
			for i := 0; i < tc.pinned; i++ {
				n, err := p.NewNode(0, 1024)
				if err != nil {
					t.Fatal(err)
				}
				addRecord(n, uint64(9000+i))
				hold = append(hold, n) // stays pinned
			}
			for i := 0; i < tc.churn; i++ {
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
			for i, n := range hold {
				got, err := p.Get(n.ID)
				if err != nil {
					t.Fatal(err)
				}
				if got != n {
					t.Fatalf("pinned node %d was evicted and re-decoded", i)
				}
				if got.Records[0].ID != node.RecordID(9000+i) {
					t.Fatalf("pinned node %d contents changed", i)
				}
				p.Unpin(n.ID, false) // release the Get pin
				p.Unpin(n.ID, true)  // release the original pin
			}
		})
	}
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
	preImg := headImage(p, id)
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
	if again, err := getMut(p, id); err != nil || again != clone {
		t.Fatalf("second upgrade in the bracket = (%p, %v), want the same clone %p", again, err, clone)
	}
	if err := p.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(id, false); err != nil { // the upgraded pin, released as read: the clone is dirty already
		t.Fatal(err)
	}
	if img := headImage(p, id); img != nil {
		t.Fatalf("the unpublished clone has an image of %d words", len(img))
	}
	p.Publish(3)
	if s := p.Stats(); s.Clones != 1 || s.ClonedBytes != 1024 || s.Retained != 1 {
		t.Fatalf("stats after one upgrade = %+v", s)
	}
	if old, err := p.GetVersion(id, 2, new(Tally)); err != nil || !sameImage(old, preImg) || len(recordIDs(old)) != 1 {
		t.Fatalf("epoch 2 resolves to (%v, %v), want the pre-image's image with 1 record", recordIDs(old), err)
	}
	if cur, err := p.GetVersion(id, 3, new(Tally)); err != nil || !sameImage(cur, headImage(p, id)) || len(recordIDs(cur)) != 2 {
		t.Fatalf("epoch 3 resolves to (%v, %v), want the clone's image with 2 records", recordIDs(cur), err)
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
	if _, err := getMut(p, id); !errors.Is(err, ErrPinned) {
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
	if same, err := getMut(p, id); err != nil || same != clone {
		t.Fatalf("Get+Upgrade outside a bracket = (%p, %v), want the resident node", same, err)
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

// TestPoolBudgetIsWhole checks that New's byte budget covers the whole
// pool: a page of half the budget stays resident once unpinned, and only a
// pool over its budget evicts. Under that pressure every Get is counted
// once, as a hit or a miss.
func TestPoolBudgetIsWhole(t *testing.T) {
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 16*1024)
	big, err := p.NewNode(0, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	addRecord(big, 1)
	if err := p.Unpin(big.ID, true); err != nil {
		t.Fatal(err)
	}
	if !resident(p, big.ID) || p.Stats().Evictions != 0 {
		t.Fatalf("an 8 KiB page in a 16 KiB pool: resident = %v, stats = %+v", resident(p, big.ID), p.Stats())
	}
	ids := []page.ID{big.ID}
	for i := 0; i < 24; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(i+2))
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
	s := p.Stats()
	if s.Gets != s.Hits+s.Misses {
		t.Fatalf("Gets %d != Hits %d + Misses %d", s.Gets, s.Hits, s.Misses)
	}
	if s.Gets != uint64(3*len(ids)) {
		t.Fatalf("Gets = %d, want %d", s.Gets, 3*len(ids))
	}
	if s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("expected evictions under a tight budget: %+v", s)
	}
}

// TestPoolConcurrentHammer drives a pool from many goroutines under
// -race: all goroutines re-read a shared set of pages, each goroutine
// mutates a private page, and Flush/Stats/Resident run concurrently. Final contents are
// verified after the storm.
func TestPoolConcurrentHammer(t *testing.T) {
	st := store.NewMemStore()
	p := New(st, node.Codec{Dims: 2}, 8*1024)
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
	// flushed only under it (the pool encodes pinned dirty frames too).
	var treeMu sync.RWMutex
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Read-only access to a shared page, offset by goroutine.
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

// TestPoolRetainedGaugeIsIncremental checks the retained-version gauges
// (Stats().Retained, RetainedBytes and the lock-free RetainedVersions)
// through a copy-on-write, Collect and Rollback sequence.
func TestPoolRetainedGaugeIsIncremental(t *testing.T) {
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 0)
	check := func(step string, want int) {
		t.Helper()
		s := p.Stats()
		if s.Retained != uint64(want) || p.RetainedVersions() != want || s.RetainedBytes != uint64(want*1024) {
			t.Fatalf("%s: Stats().Retained = %d (%d bytes), RetainedVersions() = %d, want %d (%d bytes)",
				step, s.Retained, s.RetainedBytes, p.RetainedVersions(), want, want*1024)
		}
	}
	p.BeginWrite(1)
	var ids []page.ID
	for i := 0; i < 12; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(i))
		ids = append(ids, n.ID)
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	p.Publish(1)
	check("built", 0)
	upgrade := func(ids []page.ID) {
		for _, id := range ids {
			if _, err := getMut(p, id); err != nil {
				t.Fatal(err)
			}
			if err := p.Unpin(id, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.BeginWrite(2)
	upgrade(ids[:8])
	p.Publish(2)
	check("eight clones at epoch 2", 8)
	p.BeginWrite(3)
	upgrade(ids[:4])
	if err := p.Free(ids[10]); err != nil {
		t.Fatal(err)
	}
	p.Publish(3)
	check("four clones and a free at epoch 3", 13)
	if err := p.Collect(2, true); err != nil {
		t.Fatal(err)
	}
	check("collected to 2", 5)
	p.BeginWrite(4)
	upgrade(ids[:6])
	if err := p.Free(ids[11]); err != nil {
		t.Fatal(err)
	}
	check("bracket 4 open", 12)
	if err := p.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("rolled back", 5)
	if err := p.Collect(3, true); err != nil {
		t.Fatal(err)
	}
	check("collected to 3", 0)
}

// TestPoolConcurrentVersionReads races lock-free GetVersion hits against
// one writer that clones, frees, allocates, rolls back, collects and
// evicts (the budget holds a fraction of the pages) on the same page IDs.
// Each reader registers a published epoch, as the tree's snapshot registry
// does, and checks every page it reads against the writer's record of
// what each page held at that epoch.
func TestPoolConcurrentVersionReads(t *testing.T) {
	const (
		pages    = 48
		readers  = 3
		brackets = 1000
	)
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 16*1024)
	var (
		mu      sync.Mutex // guards pinned, history and published
		pinned  [readers]uint64
		history = map[uint64]map[page.ID]uint64{} // epoch -> page -> record ID
		done    = make(chan struct{})
	)
	// record is the writer's working view: page -> record ID.
	record := map[page.ID]uint64{}
	p.BeginWrite(1)
	for i := 0; i < pages; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, uint64(i))
		record[n.ID] = uint64(i)
		if err := p.Unpin(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	p.Publish(1)
	history[1] = maps.Clone(record)

	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var tally Tally
			defer p.Settle(&tally)
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				e := p.published.Load()
				pinned[r] = e
				want := history[e]
				mu.Unlock()
				for id, v := range want {
					img, err := p.GetVersion(id, e, &tally)
					if err != nil {
						errs <- fmt.Errorf("epoch %d: GetVersion(%v): %w", e, id, err)
						return
					}
					if got := recordIDs(img); len(got) != 1 || got[0] != v {
						errs <- fmt.Errorf("epoch %d: page %v holds records %v, want %d", e, id, got, v)
						return
					}
				}
				mu.Lock()
				pinned[r] = 0
				mu.Unlock()
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(1))
	next := uint64(1000)
	for b := 0; b < brackets; b++ {
		e := p.published.Load() + 1
		p.BeginWrite(e)
		work := maps.Clone(record)
		ids := make([]page.ID, 0, len(work))
		for id := range work {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for k := 0; k < 6; k++ {
			id := ids[rng.Intn(len(ids))]
			if _, ok := work[id]; !ok {
				continue
			}
			switch op := rng.Intn(4); {
			case op == 0 && len(work) > pages/2:
				if err := p.Free(id); err != nil {
					t.Fatal(err)
				}
				delete(work, id)
			case op == 1 && len(work) < 2*pages:
				n, err := p.NewNode(0, 1024)
				if err != nil {
					t.Fatal(err)
				}
				next++
				addRecord(n, next)
				work[n.ID] = next
				if err := p.Unpin(n.ID, true); err != nil {
					t.Fatal(err)
				}
			default:
				n, err := getMut(p, id)
				if err != nil {
					t.Fatal(err)
				}
				next++
				n.Records[0].ID = node.RecordID(next)
				work[id] = next
				if err := p.Unpin(id, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(5) == 0 {
			if err := p.Rollback(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		mu.Lock()
		history[e] = work
		p.Publish(e)
		min := e
		for _, pe := range pinned {
			if pe != 0 && pe < min {
				min = pe
			}
		}
		mu.Unlock()
		record = work
		if err := p.Collect(min, true); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Evictions == 0 || s.Clones == 0 || s.Gets != s.Hits+s.Misses {
		t.Fatalf("stats = %+v: want evictions and clones, and Gets = Hits + Misses", s)
	}
}

// BenchmarkGetVersionHit measures the lock-free read hit: one table slot
// lookup and a tally increment.
func BenchmarkGetVersionHit(b *testing.B) {
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 0)
	var ids []page.ID
	for i := 0; i < 1024; i++ {
		n, err := p.NewNode(0, 1024)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, n.ID)
		if err := p.Unpin(n.ID, true); err != nil {
			b.Fatal(err)
		}
	}
	var tally Tally
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.GetVersion(ids[i%len(ids)], 0, &tally); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.Settle(&tally)
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

// TestGetVersionFallsBackToDurableImage drives getVersionSlow's two reads
// of the durable image: a page whose version chain holds no version
// covering the epoch, because the head that did was evicted, and a head
// installed after the epoch with no chain at all, because the chain was
// collected (no registered reader can ask for that epoch, but the read
// stays well-defined). Neither read installs a frame.
func TestGetVersionFallsBackToDurableImage(t *testing.T) {
	p, _ := newPool(t, 0)
	read := func(id page.ID, e uint64) []uint64 {
		t.Helper()
		img, err := p.GetVersion(id, e, new(Tally))
		if err != nil {
			t.Fatal(err)
		}
		return recordIDs(img)
	}
	change := func(id page.ID, e, rec uint64) {
		t.Helper()
		p.BeginWrite(e)
		n, err := getMut(p, id)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, rec)
		if err := p.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		p.Publish(e)
	}
	p.BeginWrite(1)
	n, err := p.NewNode(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	id := n.ID
	addRecord(n, 1)
	if err := p.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	p.Publish(1)

	// Epoch 2's version is written back and evicted (Invalidate drops the
	// clean head as eviction would); the chain keeps only epoch 1's.
	change(id, 2, 2)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Invalidate()
	misses := p.Stats().Misses
	if got := read(id, 2); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("epoch 2 past an evicted head reads %v, want the durable [1 2]", got)
	}
	if got := read(id, 1); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("epoch 1 reads %v, want the chain's [1]", got)
	}
	if resident(p, id) || p.Stats().Misses != misses+1 {
		t.Fatalf("the durable read installed a head (resident %v) or was not one miss (%d)", resident(p, id), p.Stats().Misses-misses)
	}

	// Epoch 3's head stays resident and unflushed; its chain is collected.
	if err := p.Collect(2, true); err != nil {
		t.Fatal(err)
	}
	change(id, 3, 3)
	if err := p.Collect(3, true); err != nil {
		t.Fatal(err)
	}
	if got := read(id, 2); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("epoch 2 below a chainless head reads %v, want the durable [1 2]", got)
	}
	if img, err := p.GetVersion(id, 3, new(Tally)); err != nil || !sameImage(img, headImage(p, id)) ||
		!slices.Equal(recordIDs(img), []uint64{1, 2, 3}) {
		t.Fatalf("epoch 3 reads %v, %v; want the resident head's [1 2 3]", recordIDs(img), err)
	}
}
