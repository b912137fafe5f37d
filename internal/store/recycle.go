package store

import "sync"

// spareBytes bounds the page buffers Recycle keeps, over all page sizes
// together, and so what they add to the heap. A buffer comes back when the
// buffer pool drops an evicted page image that no reader can still hold,
// and a later miss of a page of the same size reads into it, so in steady
// state a pool reads into buffers it evicted. Evictions and misses of one
// size drift apart as the pool's mix of levels shifts, and the spares
// absorb that drift; what passes the bound is left to the garbage
// collector. On the cold-read benchmark (a 1 MiB pool) the spares swing
// between 0 and 400 KiB; at 256 KiB about 2 of a query's 34 misses
// allocate, and the heap grows by a third of a MiB, not two thirds.
const spareBytes = 256 << 10

// spares is the package's free list of page buffers by size, shared by
// every store, so a buffer handed back past a store decorator reaches the
// store that reads into it. It keeps one list per page size ever recycled;
// a tree uses one size per level.
var spares struct {
	mu     sync.Mutex
	bytes  int
	bySize map[int][][]byte
}

// newBuffer returns a buffer of size bytes for a Read: a recycled one when
// one of that size is spare, else a fresh one. A recycled buffer holds an
// old page's bytes, so the Read must overwrite every byte before it
// returns the buffer, and hand it back with Recycle if it fails.
func newBuffer(size int) []byte {
	spares.mu.Lock()
	if l := spares.bySize[size]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		spares.bySize[size] = l[:len(l)-1]
		spares.bytes -= size
		spares.mu.Unlock()
		return b
	}
	spares.mu.Unlock()
	return make([]byte, size)
}

// Recycle hands back a buffer a Read returned, for a later Read of a page
// of the same size to overwrite. The caller, and everyone it shared buf
// with, must be done with it: the next Read of that size may return it.
// A nil or empty buffer, one resliced from a larger array (len ≠ cap), and
// any past the spare bound are left to the garbage collector.
func Recycle(buf []byte) {
	size := len(buf)
	if size == 0 || size != cap(buf) {
		return
	}
	spares.mu.Lock()
	defer spares.mu.Unlock()
	if spares.bytes+size > spareBytes {
		return
	}
	if spares.bySize == nil {
		spares.bySize = make(map[int][][]byte)
	}
	spares.bySize[size] = append(spares.bySize[size], buf)
	spares.bytes += size
}
