package buffer

import (
	"sync/atomic"

	"segidx/internal/page"
)

// chunkBits sizes a page-table chunk: 256 slots of 16 bytes.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
)

// refBit is the CLOCK reference bit, kept in the top bit of a slot's
// install word; write epochs never reach it.
const refBit = 1 << 63

// table is the pool's dense page table: the resident head frame of every
// page, indexed by page ID. Stores never reuse a page ID (store.Store) and a
// copy-on-write clone keeps its page's ID, so a flat index can stand in for
// a map. Each slot pairs the head frame with its install epoch and CLOCK
// reference bit, so a lookup (hit) reads one slot and takes no lock: that
// is what lets GetVersion serve a resident hit without the pool's mutex
// and without reading the frame.
//
// The directory is a slice of chunk pointers, replaced whole when it grows.
// Each chunk counts its live slots. Every write — slot, chunk count,
// directory — happens under the pool's mutex, so the table has one writer
// at a time and needs no protocol among writers. A chunk whose last slot
// is cleared is detached, so a workload that allocates new IDs forever
// keeps only the chunks its live pages use. A detached chunk is never
// written again (the writer reaches chunks only through the current
// directory): a reader still holding it finds only empty slots and takes
// the locked path.
type table struct {
	dir atomic.Pointer[directory]
}

type directory struct {
	chunks []atomic.Pointer[chunk]
}

type chunk struct {
	slots [chunkSize]slot
	live  int // non-nil slots
}

// slot is one page's entry: its head frame and a word holding the frame's
// install epoch plus refBit. A writer changing the head stores nil first,
// then the new word, then the new frame (set). A reader that loads the
// same frame before and after loading the word therefore read that
// frame's own epoch: every other epoch store comes after a nil store,
// which would have shown in the second load. The one exception is a
// frame that becomes head again — Rollback reinstating a pre-image — and
// the epochs stored in between are the rolled-back bracket's, above every
// reader's epoch, so such a read misses rather than errs.
type slot struct {
	f atomic.Pointer[frame]
	w atomic.Uint64
}

// load returns the resident head of id, or nil.
func (t *table) load(id page.ID) *frame {
	if sl := t.slot(id); sl != nil {
		return sl.f.Load()
	}
	return nil
}

// slot returns id's slot, or nil when its chunk is not attached.
func (t *table) slot(id page.ID) *slot {
	c := t.chunk(uint64(id) >> chunkBits)
	if c == nil {
		return nil
	}
	return &c.slots[id&(chunkSize-1)]
}

// hit returns id's head when it was installed at or before epoch, setting
// its reference bit if clear, or nil. It takes no lock.
func (t *table) hit(id page.ID, epoch uint64) *frame {
	sl := t.slot(id)
	if sl == nil {
		return nil
	}
	f := sl.f.Load()
	w := sl.w.Load()
	if f == nil || w&^refBit > epoch || sl.f.Load() != f {
		return nil
	}
	if w&refBit == 0 {
		sl.touch()
	}
	return f
}

// touch sets the slot's reference bit. One compare-and-swap is enough:
// it fails only when a reader set the bit first or the holder of the
// pool's mutex changed the head, whose bit then starts clear anyway.
func (sl *slot) touch() {
	if w := sl.w.Load(); w&refBit == 0 {
		sl.w.CompareAndSwap(w, w|refBit)
	}
}

// clearRef clears the reference bit and reports whether it was set. The
// caller holds the pool's mutex, so the only other writers are
// readers setting a clear bit, and the swap cannot fail.
func (sl *slot) clearRef() bool {
	w := sl.w.Load()
	return w&refBit != 0 && sl.w.CompareAndSwap(w, w&^refBit)
}

// chunk returns the attached chunk at directory index i, or nil.
func (t *table) chunk(i uint64) *chunk {
	d := t.dir.Load()
	if d == nil || i >= uint64(len(d.chunks)) {
		return nil
	}
	return d.chunks[i].Load()
}

// set makes f the resident head of id; nil clears the slot. The caller
// must hold the pool's mutex.
func (t *table) set(id page.ID, f *frame) {
	i, s := uint64(id)>>chunkBits, id&(chunkSize-1)
	c := t.chunk(i)
	if f == nil {
		if c == nil || c.slots[s].f.Load() == nil {
			return
		}
		c.slots[s].f.Store(nil)
		if c.live--; c.live == 0 {
			t.dir.Load().chunks[i].Store(nil)
		}
		return
	}
	if c == nil {
		c = t.attach(i)
	}
	sl := &c.slots[s]
	if sl.f.Load() != nil {
		sl.f.Store(nil)
	} else {
		c.live++
	}
	sl.w.Store(f.install)
	sl.f.Store(f)
}

// attach attaches a new chunk at directory index i, growing the directory
// (at least doubling it) when i is past its end.
func (t *table) attach(i uint64) *chunk {
	d := t.dir.Load()
	if d == nil || i >= uint64(len(d.chunks)) {
		var old []atomic.Pointer[chunk]
		if d != nil {
			old = d.chunks
		}
		d = &directory{chunks: make([]atomic.Pointer[chunk], max(2*uint64(len(old)), 2*(i+1)))}
		for j := range old {
			d.chunks[j].Store(old[j].Load())
		}
		t.dir.Store(d)
	}
	c := new(chunk)
	d.chunks[i].Store(c)
	return c
}
