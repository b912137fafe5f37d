package buffer

import (
	"errors"
	"fmt"
	"maps"
	"math"
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

// getMut gets id and upgrades it, as the writer does for a page it fetches
// in order to change it.
func getMut(p *Pool, id page.ID) (*node.Node, error) {
	if _, err := p.Get(id); err != nil {
		return nil, err
	}
	return p.Upgrade(id)
}

// mkPage publishes a new 1024-byte leaf holding the given record IDs, in a
// write bracket of its own, and returns its page ID.
func mkPage(t testing.TB, p *Pool, recs ...uint64) page.ID {
	t.Helper()
	e := p.published.Load() + 1
	p.BeginWrite(e)
	n, err := p.NewNode(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		addRecord(n, r)
	}
	p.Publish(e)
	return n.ID
}

// readNow returns the record IDs of id's version at the published epoch, as
// a reader of the newest state sees them.
func readNow(t *testing.T, p *Pool, id page.ID) []uint64 {
	t.Helper()
	img, err := p.GetVersion(id, p.published.Load(), new(Tally))
	if err != nil {
		t.Fatal(err)
	}
	return recordIDs(img)
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
	p.BeginWrite(1)
	n, err := p.NewNode(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	addRecord(n, 42)
	p.Publish(1)

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
		ids = append(ids, mkPage(t, p, uint64(i+100)))
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
	}
	// A change published by a bracket survives its page's eviction.
	evictions := p.Stats().Evictions
	for round := 0; round < 20; round++ {
		b := ids[(round+3)%len(ids)]
		e := p.published.Load() + 1
		p.BeginWrite(e)
		n, err := getMut(p, b)
		if err != nil {
			t.Fatal(err)
		}
		n.Records[0].ID = node.RecordID(5000 + round)
		p.Publish(e)
		for _, id := range []page.ID{ids[round%len(ids)], ids[(round+1)%len(ids)]} {
			if _, err := p.Get(id); err != nil {
				t.Fatal(err)
			}
		}
		if got := readNow(t, p, b); len(got) != 1 || got[0] != uint64(5000+round) {
			t.Fatalf("round %d: page %v reads %v, want [%d]", round, b, got, 5000+round)
		}
	}
	if p.Stats().Evictions == evictions {
		t.Fatal("no evictions while changing pages; the check is vacuous")
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
	mk := func(v uint64) page.ID { return mkPage(t, p, v) }
	hit := func(id page.ID) {
		if _, err := p.GetVersion(id, p.published.Load(), &tally); err != nil {
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
		ids = append(ids, mkPage(t, p, uint64(i)))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	var tally Tally
	for i := 0; i < 3*pages; i++ {
		id := ids[i%pages]
		before := p.Stats().Misses
		if _, err := p.GetVersion(id, p.published.Load(), &tally); err != nil {
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

// TestUpgradeClonesAtFirstMutation walks the write path's protocol: read
// with Get, upgrade before the first change, and only then is there a clone
// — one per page per bracket, born dirty, with the pre-image still serving
// the epoch before it. Freed pages and page writes outside a bracket are
// refused.
func TestUpgradeClonesAtFirstMutation(t *testing.T) {
	p, st := newPool(t, 0)
	id := mkPage(t, p, 1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := p.Stats().Writes

	// A bracket that only reads: no clone, nothing to write back.
	p.BeginWrite(2)
	if _, err := p.Get(id); err != nil {
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

	// A page freed in the bracket is gone to the writer: Get and Upgrade
	// refuse it. A page the bracket allocated is released in the store at
	// once; the published page only at a later Collect.
	p.BeginWrite(4)
	fresh, err := p.NewNode(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pages := st.Len()
	if err := p.Free(fresh.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != pages-1 {
		t.Fatalf("store holds %d pages after freeing a fresh and a published one, want %d", got, pages-1)
	}
	for _, freed := range []page.ID{fresh.ID, id} {
		if _, err := p.Get(freed); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("Get of freed %v = %v, want ErrNotFound", freed, err)
		}
	}
	if _, err := p.Upgrade(id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Upgrade of a page freed in the bracket = %v, want ErrNotFound", err)
	}
	if err := p.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Outside a bracket the pool refuses every page write.
	if _, err := p.NewNode(0, 1024); !errors.Is(err, errNoBracket) {
		t.Fatalf("NewNode outside a bracket = %v, want errNoBracket", err)
	}
	if _, err := getMut(p, id); !errors.Is(err, errNoBracket) {
		t.Fatalf("Get+Upgrade outside a bracket = %v, want errNoBracket", err)
	}
	if err := p.Free(id); !errors.Is(err, errNoBracket) {
		t.Fatalf("Free outside a bracket = %v, want errNoBracket", err)
	}
	if got := readNow(t, p, id); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("after the refused writes the page reads %v, want [1 2]", got)
	}
}

// TestWriterSurvivesEviction lets a reader's miss evict a published page
// between the writer's Get and its Upgrade, in a pool that holds one page.
// The Upgrade reloads the page and clones it: the clone starts from the
// page's content, stays resident under pressure, and a snapshot pinned
// before the bracket keeps reading the pre-image. Publish and Flush put the
// clone in the store; Rollback leaves the page as it was.
func TestWriterSurvivesEviction(t *testing.T) {
	for _, publish := range []bool{true, false} {
		t.Run(fmt.Sprintf("publish=%v", publish), func(t *testing.T) {
			p, st := newPool(t, 1024)
			a := mkPage(t, p, 1)
			b := mkPage(t, p, 2)
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			snap := p.published.Load() // a snapshot pinned before the bracket
			e := snap + 1
			p.BeginWrite(e)
			head, err := p.Get(a)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.GetVersion(b, snap, new(Tally)); err != nil {
				t.Fatal(err)
			}
			if resident(p, a) {
				t.Fatal("the reader's miss left the writer's page resident; the test is vacuous")
			}
			clone, err := p.Upgrade(a)
			if err != nil {
				t.Fatal(err)
			}
			if clone == head || len(clone.Records) != 1 || clone.Records[0].ID != 1 {
				t.Fatalf("Upgrade after eviction = %p with %+v, want a clone of %p holding record 1", clone, clone.Records, head)
			}
			addRecord(clone, 3)
			if _, err := p.GetVersion(b, snap, new(Tally)); err != nil {
				t.Fatal(err)
			}
			if f := p.table.load(a); f == nil || &f.n != clone {
				t.Fatal("the bracket's clone was evicted")
			}
			want := []uint64{1}
			if publish {
				p.Publish(e)
				want = []uint64{1, 3}
			} else if err := p.Rollback(); err != nil {
				t.Fatal(err)
			}
			if img, err := p.GetVersion(a, snap, new(Tally)); err != nil || !slices.Equal(recordIDs(img), []uint64{1}) {
				t.Fatalf("the snapshot reads %v, %v; want the pre-image [1]", recordIDs(img), err)
			}
			if got := readNow(t, p, a); !slices.Equal(got, want) {
				t.Fatalf("the newest version reads %v, want %v", got, want)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			buf, err := st.Read(a)
			if err != nil {
				t.Fatal(err)
			}
			n, err := node.Codec{Dims: 2}.Unmarshal(buf, a)
			if err != nil || len(n.Records) != len(want) || n.Records[len(want)-1].ID != node.RecordID(want[len(want)-1]) {
				t.Fatalf("the store holds %+v, %v; want records %v", n, err, want)
			}
		})
	}
}

func TestFlushPersists(t *testing.T) {
	st := store.NewMemStore()
	codec := node.Codec{Dims: 2}
	p := New(st, codec, 0)
	p.BeginWrite(1)
	n, err := p.NewNode(1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	n.Branches = append(n.Branches, node.Branch{Rect: geom.Rect2(0, 0, 1, 1), Child: 77})
	p.Publish(1)
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
}

func TestInvalidateDropsStaleFrames(t *testing.T) {
	p, _ := newPool(t, 0)

	// Two nodes flushed to the store, then changed by a published bracket
	// so the resident copies diverge from the durable image.
	ids := []page.ID{mkPage(t, p, 1), mkPage(t, p, 2)}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	e := p.published.Load() + 1
	p.BeginWrite(e)
	for _, id := range ids {
		n, err := getMut(p, id)
		if err != nil {
			t.Fatal(err)
		}
		addRecord(n, 99) // never flushed: stale after a failed commit
	}
	p.Publish(e)

	p.Invalidate()
	if got := p.Resident(); got != 0 {
		t.Fatalf("%d frames resident after Invalidate, want 0", got)
	}

	// The changed frames are gone: Get reloads the durable image, and the
	// stale record was discarded rather than written back.
	for i, id := range ids {
		n, err := p.Get(id)
		if err != nil {
			t.Fatalf("Get after invalidate: %v", err)
		}
		if len(n.Records) != 1 || n.Records[0].ID != node.RecordID(i+1) {
			t.Fatalf("node %v after invalidate has records %+v, want the flushed copy", id, n.Records)
		}
	}
}

func TestReadErrorPropagates(t *testing.T) {
	p, st := newPool(t, 0)
	id := mkPage(t, p)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Force the node out of memory by freeing the frame indirectly: use a
	// tiny-budget pool over the same store instead.
	small := New(st, node.Codec{Dims: 2}, 1)
	boom := errors.New("disk gone")
	st.InjectReadError(1, boom)
	if _, err := small.Get(id); !errors.Is(err, boom) {
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

// TestPoolBudgetIsWhole checks that New's byte budget covers the whole
// pool: a page of half the budget stays resident once published, and only
// a pool over its budget evicts. Under that pressure every Get is counted
// once, as a hit or a miss.
func TestPoolBudgetIsWhole(t *testing.T) {
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 16*1024)
	p.BeginWrite(1)
	big, err := p.NewNode(0, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	addRecord(big, 1)
	p.Publish(1)
	if !resident(p, big.ID) || p.Stats().Evictions != 0 {
		t.Fatalf("an 8 KiB page in a 16 KiB pool: resident = %v, stats = %+v", resident(p, big.ID), p.Stats())
	}
	ids := []page.ID{big.ID}
	for i := 0; i < 24; i++ {
		ids = append(ids, mkPage(t, p, uint64(i+2)))
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
// -race: all goroutines re-read a shared set of pages with Get and
// GetVersion, each goroutine changes a private page in write brackets
// serialized by a stand-in for the tree's write lock, and Flush/Stats/
// Resident run concurrently. Final contents are verified after the storm.
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
		shared[i] = mkPage(t, p, uint64(i+1))
	}
	private := make([]page.ID, goroutines)
	for g := range private {
		private[g] = mkPage(t, p, uint64(100+g))
	}
	// treeMu stands in for the tree's write lock: brackets and flushes
	// run only under it.
	var treeMu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tally Tally
			defer p.Settle(&tally)
			for i := 0; i < iters; i++ {
				// Read-only access to a shared page, offset by goroutine.
				id := shared[(i+g*3)%sharedPages]
				n, err := p.Get(id)
				if err != nil {
					errs <- err
					return
				}
				img, err := p.GetVersion(id, p.published.Load(), &tally)
				if err != nil {
					errs <- err
					return
				}
				if len(n.Records) != 1 || len(recordIDs(img)) != 1 {
					errs <- fmt.Errorf("shared page %v lost its record", id)
					return
				}
				// Change this goroutine's private page.
				treeMu.Lock()
				e := p.published.Load() + 1
				p.BeginWrite(e)
				pn, err := getMut(p, private[g])
				if err == nil {
					pn.Records[0].ID = node.RecordID(1000*g + i)
					p.Publish(e)
					err = p.Collect(e, true)
				}
				treeMu.Unlock()
				if err != nil {
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
	}
	p.Publish(1)
	check("built", 0)
	upgrade := func(ids []page.ID) {
		for _, id := range ids {
			if _, err := getMut(p, id); err != nil {
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
			default:
				n, err := getMut(p, id)
				if err != nil {
					t.Fatal(err)
				}
				next++
				n.Records[0].ID = node.RecordID(next)
				work[id] = next
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
		ids = append(ids, mkPage(b, p))
	}
	var tally Tally
	e := p.published.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.GetVersion(ids[i%len(ids)], e, &tally); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.Settle(&tally)
}

func BenchmarkPoolGetHit(b *testing.B) {
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 0)
	id := mkPage(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolGetMiss(b *testing.B) {
	// Tiny budget: every other access evicts.
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 1024)
	ids := []page.ID{mkPage(b, p), mkPage(b, p)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(ids[i%2]); err != nil {
			b.Fatal(err)
		}
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
		p.Publish(e)
	}
	id := mkPage(t, p, 1)

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

// TestRecycleWaitsForReaders pins the rule that makes reusing evicted
// frames safe. An image an announced reader holds keeps its bytes while
// other readers force its frame out and try to drain limbo; no drain moves
// anything while a reader is active; the last Leave does, and later misses
// reuse the frames. A frame the writer's Get built headers for is never
// reused, however often it is evicted.
func TestRecycleWaitsForReaders(t *testing.T) {
	const pages = 16
	p, _ := newPool(t, 1024) // one page resident
	ids := make([]page.ID, pages)
	for i := range ids {
		ids[i] = mkPage(t, p, uint64(100*i), uint64(100*i+1))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	e := p.published.Load()
	read := func(id page.ID) node.Image {
		img, err := p.GetVersion(id, e, new(Tally))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	// cycle is another reader's queries: one page each, every page once,
	// so each miss evicts the page read before it and each Leave drains
	// if it is the last.
	cycle := func() {
		for _, id := range ids {
			p.Enter()
			read(id)
			p.Leave()
		}
	}
	drain := func() {
		p.mu.Lock()
		p.drainLocked()
		p.mu.Unlock()
	}
	cycle()
	cycle()
	if p.Stats().Reused == 0 {
		t.Fatal("no miss reused a frame with no reader active")
	}

	p.Enter()
	held := read(ids[0])
	want := slices.Clone(held)
	spares := len(p.spare)
	for round := 0; round < 3; round++ {
		cycle()
		drain()
		if !slices.Equal(bitsOf(held), bitsOf(want)) {
			t.Fatalf("round %d: a held image changed under eviction and drains", round)
		}
		if len(p.spare) > spares || len(p.limbo) == 0 {
			t.Fatalf("round %d: %d spare frames (%d before), %d in limbo: a drain ran with a reader active",
				round, len(p.spare), spares, len(p.limbo))
		}
		spares = len(p.spare)
	}
	p.Leave()
	if len(p.limbo) != 0 || len(p.spare) == 0 {
		t.Fatalf("after the last Leave: %d in limbo, %d spare; want limbo drained", len(p.limbo), len(p.spare))
	}

	// The resident page's reference bit is set, so the sweep after the
	// writer's miss passes it over and evicts the page just read.
	p.Enter()
	read(ids[0])
	read(ids[0])
	p.Leave()
	n, err := p.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if resident(p, ids[1]) {
		t.Fatal("the writer's miss stayed resident; the test is vacuous")
	}
	recs := slices.Clone(n.Records)
	for i := range recs {
		recs[i].Rect = recs[i].Rect.Clone() // not a view into the image
	}
	same := func(a, b node.Record) bool { return a.ID == b.ID && a.Span == b.Span && a.Rect.Equal(b.Rect) }
	for round := 0; round < 3; round++ {
		cycle()
		for _, f := range slices.Concat(p.spare, p.limbo) {
			if &f.n == n {
				t.Fatalf("round %d: the frame the writer holds went to limbo or the spares", round)
			}
		}
	}
	if !slices.EqualFunc(n.Records, recs, same) {
		t.Fatalf("the writer's node changed to %+v", n.Records)
	}
}

// bitsOf returns an image's words as their bit patterns, so a comparison
// sees every byte (NaN payloads included).
func bitsOf(img node.Image) []uint64 {
	out := make([]uint64, len(img))
	for i, w := range img {
		out[i] = math.Float64bits(w)
	}
	return out
}
