//go:build !race

// The race detector instruments allocations and defeats the measurement,
// so this file is excluded from -race builds.

package buffer

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// TestGetVersionHitZeroAllocs gates the lock-free read hit: serving a
// resident head from the page table allocates nothing.
func TestGetVersionHitZeroAllocs(t *testing.T) {
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 0)
	var ids []page.ID
	for i := 0; i < 64; i++ {
		ids = append(ids, mkPage(t, p))
	}
	var tally Tally
	i, e := 0, p.published.Load()
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := p.GetVersion(ids[i%len(ids)], e, &tally); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("GetVersion hit allocates %g objects", avg)
	}
	p.Settle(&tally)
	if s := p.Stats(); s.Hits != s.Gets || s.Gets < 1000 {
		t.Fatalf("stats = %+v, want every call counted as a hit", s)
	}
}

// TestPoolMissAllocs gates a read miss: GetVersion on a page that is not
// resident allocates the store's read buffer, which becomes the page image
// (node.Codec.Decode adopts it), and the frame, and nothing else — no
// image copy, no node headers, no entry slices. The image's element type
// holds no pointers, so the collector never scans it.
func TestPoolMissAllocs(t *testing.T) {
	if k := reflect.TypeOf(node.Image(nil)).Elem().Kind(); k != reflect.Float64 {
		t.Fatalf("a page image holds %v words, want float64", k)
	}
	const pages = 64
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 1024)
	var ids []page.ID
	for i := 0; i < pages; i++ {
		recs := make([]uint64, 20) // a full leaf
		for j := range recs {
			recs[j] = uint64(20*i + j)
		}
		ids = append(ids, mkPage(t, p, recs...))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Cycling through 64 pages in a pool of one misses on nearly every
	// call; allocations are counted per miss.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		tally Tally
		img   node.Image
		err   error
		ms    runtime.MemStats
	)
	e := p.published.Load()
	get := func(i int) {
		if img, err = p.GetVersion(ids[i%pages], e, &tally); err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	runtime.ReadMemStats(&ms)
	mallocs, misses := ms.Mallocs, p.Stats().Misses
	for i := 1; i <= 1000; i++ {
		get(i)
	}
	runtime.ReadMemStats(&ms)
	mallocs, misses = ms.Mallocs-mallocs, p.Stats().Misses-misses
	if got := recordIDs(img); len(got) != 20 {
		t.Fatalf("the last miss read %d records, want 20", len(got))
	}
	if misses < 900 {
		t.Fatalf("%d misses in 1000 calls; the gate measured hits", misses)
	}
	per := float64(mallocs) / float64(misses)
	t.Logf("%d misses, %.2f allocations each", misses, per)
	want := 2.0
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		want = 3 // a big-endian host copies the buffer into an image
	}
	if per > want {
		t.Fatalf("a GetVersion miss allocates %.2f objects, want at most %g", per, want)
	}
}

// TestPageTableChurnHeapFlat allocates and frees 10⁶ page IDs through the
// pool while a fixed set of long-lived pages and a sliding window of
// recent ones stay live, as a split-heavy index allocates new IDs forever.
// Chunks whose IDs have all been freed must be dropped: the number of
// attached chunks and the heap stay flat.
func TestPageTableChurnHeapFlat(t *testing.T) {
	const (
		fixed  = 1000
		window = 3000
		warmup = 100_000
		steps  = 1_000_000
	)
	p := New(store.NewMemStore(), node.Codec{Dims: 2}, 0)
	// alloc runs one bracket, as the tree runs each operation: it frees
	// the page old (unless Nil), allocates a page, publishes and collects
	// the freed page's version at once.
	alloc := func(old page.ID) page.ID {
		e := p.published.Load() + 1
		p.BeginWrite(e)
		if old != page.Nil {
			if err := p.Free(old); err != nil {
				t.Fatal(err)
			}
		}
		n, err := p.NewNode(0, 64)
		if err != nil {
			t.Fatal(err)
		}
		p.Publish(e)
		if err := p.Collect(e, true); err != nil {
			t.Fatal(err)
		}
		return n.ID
	}
	for i := 0; i < fixed; i++ {
		alloc(page.Nil)
	}
	ring := make([]page.ID, window)
	next := 0
	step := func() {
		slot := next % window
		ring[slot] = alloc(ring[slot])
		next++
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	before, chunks := heap(), p.table.attached()
	for i := 0; i < steps; i++ {
		step()
	}
	after := heap()
	if got := p.Resident(); got != fixed+window {
		t.Fatalf("Resident = %d, want %d", got, fixed+window)
	}
	// The live IDs span the fixed block plus one window: at most two
	// chunks more than they fill, however many IDs went by.
	limit := (fixed+chunkSize-1)/chunkSize + window/chunkSize + 2
	if got := p.table.attached(); got > limit || got > chunks+1 {
		t.Fatalf("%d chunks attached after %d steps (%d after warmup, limit %d)", got, steps, chunks, limit)
	}
	if growth := int64(after) - int64(before); growth > 512<<10 {
		t.Fatalf("heap grew %.2f MiB over %d allocate/free steps at %d live pages",
			float64(growth)/(1<<20), steps, fixed+window)
	}
}

// attached counts the page table's attached chunks.
func (t *table) attached() int {
	n := 0
	if d := t.dir.Load(); d != nil {
		for i := range d.chunks {
			if d.chunks[i].Load() != nil {
				n++
			}
		}
	}
	return n
}
