// Package buffer implements a CLOCK buffer pool over segment index pages,
// with copy-on-write page versioning for MVCC snapshot reads.
//
// The tree layer reads and writes nodes exclusively through a Pool. A
// frame holds a page version as its page image (node.Image), which readers
// scan and write-back writes out, and, once the writer has asked for them,
// as headers (node.Node) viewing the image. A miss keeps the store's read
// buffer as the image (node.Codec.Decode), without a copy. Frames stay
// resident until evicted; eviction writes dirty ones back to the store.
// Nothing is pinned: a published version never changes, and its image
// stays valid after its frame is evicted, for as long as the rule below
// keeps it.
//
// # Reusing evicted frames
//
// Every reader announces itself for the span of one query, Enter then
// Leave, and uses the images GetVersion hands it only in between. An
// evicted frame that a miss loaded and that never had headers built goes
// to limbo instead of to the garbage collector. When the pool's count of
// active readers reads zero under its mutex, every frame in limbo goes to
// a spare list for the next miss, and its adopted read buffer back to the
// store (store.Recycle). That is safe: each frame in limbo left the page
// table under the mutex before, so a reader that enters after cannot
// reach it, and every reader that could have reached it has left. Frames
// that ever had headers are never reused, because the writer may hold
// their node, and neither are version-chain frames. Limbo is bounded by
// maxLimboBytes; past it an evicted frame is left to the collector. In steady
// state a read miss therefore allocates nothing.
//
// # Page versioning
//
// Every frame carries the epoch it was installed at. The single writer of a
// tree runs every page write inside a bracket, BeginWrite(e) then
// Publish(e) or Rollback; NewNode, Upgrade and Free refuse to run outside
// one. Inside the bracket the writer descends with Get like any reader of
// the newest version and calls Upgrade on a page at its first mutation,
// not its first visit. Upgrade clones the published head (copy-on-write),
// retires the pre-image into the page's version chain with supersession
// epoch e and returns the clone, which is born dirty — so a frame is dirty
// exactly when it was mutated, and an operation clones, writes back and
// logs the pages it changed rather than the path it walked. A head evicted
// between the writer's Get and its Upgrade was written back first, so
// Upgrade reloads it exactly, as a Get miss would. Free defers the
// store-level page release the same way. Mutating a node obtained from Get
// without upgrading it is the one thing the writer must never do: the
// change would be visible to pinned snapshots and, the frame being clean,
// lost at the next Flush.
//
// A clone is a header copy viewing the pre-image's image, with no image of
// its own. NewNode and Upgrade queue the frames they hand the writer, and
// Publish, which the tree calls before it publishes a state, encodes each
// into a fresh image, so readers only ever resolve published images.
// Rollback drops the bracket's frames from the queue.
//
// Readers call GetVersion(id, epoch) with the epoch of the tree state they
// pinned: the resident head serves them when it was installed at or before
// their epoch, otherwise the version chain does, otherwise the store does
// (the retention discipline guarantees the durable image is never newer
// than what such a fall-through may observe — see the invariant below).
//
// Retention invariant: whenever a page version visible at epoch E is
// superseded or its page freed, the pre-image is retained in the version
// chain until Collect(min) runs with min >= its supersession epoch. The
// tree derives min from its snapshot registry (the smallest pinned epoch,
// or the published epoch when nothing is pinned), so a version is reclaimed
// only once every snapshot pinned at or before its supersession epoch has
// been released. Frames installed inside an unpublished bracket are never
// evicted (their write-back would clobber the durable pre-image), which is
// also what makes Rollback possible: dropping the bracket's heads and
// reinstating their pre-images restores the pool to the published state.
//
// A resident hit takes no lock at all. A dense page table indexed by page
// ID holds every resident head; GetVersion serves a head installed at or
// before the reader's epoch from one table slot, sets the slot's reference
// bit only when it is clear, and counts the hit in the caller's Tally,
// which Settle folds into the pool's counters once per query. Everything
// else — misses, version chains, the writer's paths, eviction — runs under
// the pool's one mutex, which guards one CLOCK ring, the version chains,
// the counters and every write to the table; concurrent misses on one
// pool therefore serialize. The byte budget covers the resident heads
// exactly; the evictor sweeps the ring, clearing set reference bits and
// evicting the first published frame whose bit is clear.
// Retained superseded versions are accounted separately (RetainedBytes)
// and live exactly as long as the snapshots that need them.
//
// The paper's search-cost metric (average index nodes accessed per search)
// is independent of buffer residency; the pool's hit/miss statistics are
// additional observability on top of that logical metric.
package buffer

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// errNoBracket is returned by a page write outside a write bracket.
var errNoBracket = errors.New("buffer: page write outside a write bracket")

// Stats counts pool activity since creation.
type Stats struct {
	Gets      uint64 // Get/GetVersion calls
	Hits      uint64 // calls satisfied from memory
	Misses    uint64 // calls that read from the store
	Evictions uint64 // frames evicted to honor the budget
	Writes    uint64 // dirty pages written back
	Reused    uint64 // misses that took an evicted frame no reader held

	Clones        uint64 // copy-on-write clones made by Upgrade
	ClonedBytes   uint64 // page bytes of those clones
	Collected     uint64 // superseded version frames reclaimed by Collect
	DeferredFrees uint64 // store page frees executed after their epoch drained
	Retained      uint64 // superseded version frames currently retained (gauge)
	RetainedBytes uint64 // bytes held by retained version frames (gauge)
}

// Add accumulates o's counters into s (gauges are summed too: for a
// forest of pools, the aggregate gauge is the total).
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writes += o.Writes
	s.Reused += o.Reused
	s.Clones += o.Clones
	s.ClonedBytes += o.ClonedBytes
	s.Collected += o.Collected
	s.DeferredFrees += o.DeferredFrees
	s.Retained += o.Retained
	s.RetainedBytes += o.RetainedBytes
}

// HitRate returns Hits/Gets, or 0 when no Gets happened.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// frame is one page version. It holds its headers by value, so a node
// pointer the pool hands the writer is the frame's address and keeps the
// frame alive.
type frame struct {
	// img is the version's page image, immutable once published; nil while
	// the frame waits in the pool's queue to be encoded.
	img node.Image
	// n is the writer's form of the version, its rectangles viewing img;
	// n.ID is Nil until Get builds it for a frame a miss loaded.
	n  node.Node
	id page.ID

	// install is the write epoch the frame's version was created at (0 for
	// versions loaded from the store with no retained history, which are
	// visible to every snapshot). superseded is the epoch a newer version
	// replaced this one at; it is 0 while the frame is the resident head
	// and strictly positive once the frame is retired to a version chain.
	install    uint64
	superseded uint64

	bytes int // on-page size of the node
	dirty bool
	// adopted is set when img is the store's read buffer, handed back to
	// the store when the frame is reused.
	adopted bool
	ring    int // index in the pool's CLOCK ring while resident
}

// visibleAt reports whether a retired version serves a snapshot at epoch e.
func (f *frame) visibleAt(e uint64) bool {
	return f.install <= e && e < f.superseded
}

// pageVersions is the retained history of one page: superseded version
// frames newest-first, plus the epoch the page itself was freed at (0 while
// the page is live). Entries exist only while some retained frame or a
// pending deferred free needs them; Collect removes drained entries.
type pageVersions struct {
	frames []*frame // newest first; every frame has superseded > 0
	deadAt uint64   // epoch the page was freed at; 0 = page is live
}

// retiredAt reports whether the newest retired version was superseded at
// epoch e; a nil chain has none.
func (pv *pageVersions) retiredAt(e uint64) bool {
	return pv != nil && len(pv.frames) > 0 && pv.frames[0].superseded == e
}

// Tally counts the hits one reader's GetVersion calls served without a
// lock. It lives in the reader's query context; Settle adds it to the
// pool's Gets and Hits once per query, so a hit writes nothing shared.
type Tally struct{ hits uint64 }

// Pool is a CLOCK buffer pool with copy-on-write page versioning.
// The zero value is not usable; use New.
type Pool struct {
	store  store.Store
	codec  node.Codec
	budget int   // max resident head bytes; 0 means unlimited
	table  table // resident heads by page ID, read without locks

	// mu guards the fields below up to published, and every write to the
	// table.
	mu  sync.Mutex
	old map[page.ID]*pageVersions // retained superseded versions + graveyard
	// ring holds the resident heads; the evictor's hand sweeps it.
	ring          []*frame
	hand          int
	bytes         int // resident head bytes
	retainedBytes int // bytes held by retained version frames
	stats         Stats

	// published is the newest committed write epoch: frames installed at
	// or below it are durable-eligible (evictable); frames above it belong
	// to the in-progress bracket. Written under the tree's write lock,
	// read under mu, hence atomic.
	published atomic.Uint64

	// writeEpoch is the epoch of the in-progress write bracket (equals
	// published when no bracket is open). Only the single writer touches
	// it, always under the tree's write lock.
	writeEpoch uint64

	// retained counts the version frames in old; a cheap signal for "is
	// there anything to collect" that readers can poll without taking mu.
	retained atomic.Int64

	// queue holds the frames that lack an image since the last Publish.
	// Guarded by mu.
	queue []*frame

	// limbo holds evicted frames a reader may still read, spare the
	// frames none can; see the package comment. Guarded by mu, except
	// that Leave reads limboBytes without it.
	limbo      []*frame
	spare      []*frame
	limboBytes atomic.Int64

	// hits counts the lock-free hits readers settled, and readers the
	// readers between Enter and Leave: per-query writes, on a cache line
	// of their own so that they do not disturb the lines lookups read.
	_       [64]byte
	hits    atomic.Uint64
	readers atomic.Int64
}

// maxLimboBytes bounds the page bytes of the evicted frames waiting for the
// active readers to drain: the most that recycling holds back from the
// garbage collector. One reader at a time empties limbo at the end of
// each query, which evicts about as many pages as it misses: tens of KiB
// on average, but up to about 1 MiB for the widest range searches of the
// cold-read benchmark (at 256 KiB one miss in twenty still allocated).
// Overlapping readers may keep the count above zero for long; past the
// bound an evicted frame is left to the collector, as if never reused.
const maxLimboBytes = 1 << 20

// New creates a pool over the given store. budgetBytes caps resident node
// bytes (0 = unlimited).
func New(st store.Store, codec node.Codec, budgetBytes int) *Pool {
	return &Pool{
		store:  st,
		codec:  codec,
		budget: budgetBytes,
		old:    make(map[page.ID]*pageVersions),
	}
}

// BeginWrite opens a write bracket at the given epoch (the tree's published
// epoch plus one). Frames installed by NewNode and Upgrade inside the
// bracket carry this epoch and stay resident until Publish or Rollback.
// Only the tree's single writer may call this, under its write lock.
func (p *Pool) BeginWrite(epoch uint64) { p.writeEpoch = epoch }

// Publish commits the open write bracket: every queued frame is encoded
// into a fresh page image, frames installed at the epoch become evictable
// and the pre-images retired under it become reclaimable once no snapshot
// needs them (see Collect). The tree's single writer calls it, under its
// write lock, before it publishes the state at the epoch.
func (p *Pool) Publish(epoch uint64) {
	p.mu.Lock()
	for _, f := range p.queue {
		if f.img == nil {
			f.img = p.codec.Encode(&f.n)
		}
	}
	clear(p.queue)
	p.queue = p.queue[:0]
	p.mu.Unlock()
	p.published.Store(epoch)
}

// inBracket reports whether a write bracket is open. Writer-only.
func (p *Pool) inBracket() bool { return p.writeEpoch > p.published.Load() }

// NewNode allocates a fresh page of pageBytes in the store and returns the
// corresponding empty node, marked dirty and queued for the next Publish.
// The frame carries the bracket epoch, so snapshots pinned before the
// bracket never observe it. Only the tree's single writer may call this,
// inside a write bracket, under its write lock.
func (p *Pool) NewNode(level, pageBytes int) (*node.Node, error) {
	if !p.inBracket() {
		return nil, errNoBracket
	}
	id, err := p.store.Allocate(pageBytes)
	if err != nil {
		return nil, err
	}
	f := &frame{n: node.Node{ID: id, Level: level}, id: id, bytes: pageBytes, dirty: true, install: p.writeEpoch}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = append(p.queue, f)
	p.installLocked(f)
	p.evictLocked()
	return &f.n, nil
}

// Get returns the newest version of the node for id. Inside a write
// bracket the newest version may be the bracket's unpublished clone —
// exactly what the writer's read-only passes must observe. Nothing needs
// releasing: the node stays valid after its frame is evicted, and the
// writer changes it only through Upgrade.
func (p *Pool) Get(id page.ID) (*node.Node, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Gets++
	if f := p.table.load(id); f != nil {
		p.stats.Hits++
		p.table.slot(id).touch()
		return p.headers(f), nil
	}
	p.stats.Misses++
	f, err := p.loadLocked(id)
	if err != nil {
		return nil, err
	}
	// Headers before the sweep: it may evict f at once, and a frame
	// without headers would go to limbo and be reused while the writer
	// still holds its node.
	n := p.headers(f)
	p.evictLocked()
	return n, nil
}

// headers returns f's headers, building them from its image the first time
// the writer asks for a frame a miss loaded. The caller must hold p.mu.
func (p *Pool) headers(f *frame) *node.Node {
	if f.n.ID == page.Nil {
		f.n = p.codec.Headers(f.img)
	}
	return &f.n
}

// loadLocked reads the newest version of a page that has no resident head
// and installs it as the head. A page freed in a committed or in-progress
// bracket is refused: its store-level free is merely deferred for old
// snapshots, and to the newest-version view it is gone. The caller must
// hold p.mu.
func (p *Pool) loadLocked(id page.ID) (*frame, error) {
	if pv := p.old[id]; pv != nil && pv.deadAt != 0 {
		return nil, fmt.Errorf("buffer: page %v was freed: %w", id, store.ErrNotFound)
	}
	f, err := p.readLocked(id)
	if err != nil {
		return nil, err
	}
	p.installLocked(f)
	return f, nil
}

// GetVersion returns the page image of id's version visible at the given
// snapshot epoch, without pinning it. The image is immutable and remains
// valid, even across eviction, until the caller's Leave: the caller must
// have called Enter first. It must also hold a snapshot registration at
// the epoch, which is what keeps the version chain populated (see the
// retention invariant in the package comment).
//
// A resident head installed at or before the epoch is served from the
// page table without a lock and counted in t; hand t to Settle when the
// query ends. Every other case takes the pool's mutex and is counted
// there. A head the table shows is safe to serve: the writer swaps a
// page's head before it publishes the epoch that makes the old head stale.
func (p *Pool) GetVersion(id page.ID, epoch uint64, t *Tally) (node.Image, error) {
	if f := p.table.hit(id, epoch); f != nil {
		t.hits++
		return f.img, nil
	}
	return p.getVersionSlow(id, epoch)
}

// Enter announces a reader: until its Leave, no image GetVersion hands it
// is reused.
func (p *Pool) Enter() { p.readers.Add(1) }

// Leave ends a reader's Enter. The last reader to leave while frames wait
// in limbo moves them to the spare list.
func (p *Pool) Leave() {
	if p.readers.Add(-1) == 0 && p.limboBytes.Load() != 0 {
		p.mu.Lock()
		p.drainLocked()
		p.mu.Unlock()
	}
}

// drainLocked moves the frames in limbo to the spare list and hands their
// adopted buffers back to the store, if no reader is active. A reader that
// enters after the check cannot reach them: each left the page table under
// p.mu before. The caller must hold p.mu.
func (p *Pool) drainLocked() {
	if p.readers.Load() != 0 {
		return
	}
	for i, f := range p.limbo {
		if f.adopted {
			store.Recycle(node.PageBuffer(f.img, f.bytes))
		}
		*f = frame{}
		p.spare = append(p.spare, f)
		p.limbo[i] = nil
	}
	p.limbo = p.limbo[:0]
	p.limboBytes.Store(0)
}

// Settle adds the hits counted in t to the pool's Gets and Hits and
// zeroes t.
func (p *Pool) Settle(t *Tally) {
	if t.hits != 0 {
		p.hits.Add(t.hits)
		t.hits = 0
	}
}

// getVersionSlow is GetVersion under the pool's mutex: the head may have
// become resident meanwhile, or the epoch needs a retained version or the
// durable image.
func (p *Pool) getVersionSlow(id page.ID, epoch uint64) (node.Image, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Gets++
	head := p.table.load(id)
	if head != nil && head.install <= epoch {
		p.stats.Hits++
		p.table.slot(id).touch()
		return head.img, nil
	}
	pv := p.old[id]
	if pv != nil {
		for _, f := range pv.frames {
			if f.visibleAt(epoch) {
				p.stats.Hits++
				return f.img, nil
			}
		}
	}
	p.stats.Misses++
	f, err := p.readLocked(id)
	if err != nil {
		return nil, err
	}
	// A chain without a version covering the epoch (a freed page's final
	// content, or a chain whose head was evicted) leaves the durable image
	// visible; so, best-effort, does a head installed after the epoch with
	// no chain, which no registered snapshot can ask for. Neither is
	// cached: it would collide with the chain's bookkeeping or the head.
	if pv == nil && head == nil {
		p.installLocked(f)
		p.evictLocked()
	}
	return f.img, nil
}

// readLocked reads a page from the store and adopts the store's read
// buffer as its image, returning an uninstalled frame without headers,
// a spare one when there is one.
// The install epoch is inferred from the version chain: the durable image
// of a page with retained versions is its most recently superseded-away
// head, which was installed exactly when the newest chain entry was
// retired. The caller must hold p.mu. The store read happens under it
// because a read done outside could install an image older than a head
// that was written back and evicted in between.
func (p *Pool) readLocked(id page.ID) (*frame, error) {
	buf, err := p.store.Read(id)
	if err != nil {
		return nil, err
	}
	img, adopted, err := p.codec.Decode(buf, id)
	if !adopted {
		store.Recycle(buf) // copied or refused: nobody reads buf
	}
	if err != nil {
		return nil, fmt.Errorf("buffer: decode %v: %w", id, err)
	}
	var f *frame
	if n := len(p.spare); n > 0 {
		f = p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		p.stats.Reused++
	} else {
		f = new(frame)
	}
	*f = frame{img: img, id: id, bytes: len(buf), adopted: adopted}
	if pv, ok := p.old[id]; ok && len(pv.frames) > 0 {
		f.install = pv.frames[0].superseded
	}
	return f, nil
}

// Upgrade returns the open bracket's mutable version of page id. The first
// Upgrade of a page per bracket clones the published head (copy-on-write,
// a header clone viewing the head's image), retires the pre-image into the
// version chain and queues the clone, born dirty, for the next Publish; on
// a page the bracket already owns it returns that version itself. A head
// evicted since the writer's Get is reloaded first, as a Get miss would
// (eviction wrote it back), and a page freed in the bracket is refused.
// The pointer Get returned must not be used afterwards: once retired it is
// what snapshots read. Only the tree's single writer may call this, inside
// a write bracket, under its write lock.
func (p *Pool) Upgrade(id page.ID) (*node.Node, error) {
	if !p.inBracket() {
		return nil, errNoBracket
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	we := p.writeEpoch
	f := p.table.load(id)
	if f == nil {
		var err error
		if f, err = p.loadLocked(id); err != nil {
			return nil, err
		}
		defer p.evictLocked() // after the clone below makes the head unevictable
	}
	if f.install == we {
		return &f.n, nil
	}
	p.retireLocked(id, f, we)
	nf := &frame{n: p.headers(f).CloneHeaders(), id: id, bytes: f.bytes, dirty: true, ring: f.ring, install: we}
	p.queue = append(p.queue, nf)
	p.ring[nf.ring] = nf
	p.table.set(id, nf)
	p.stats.Clones++
	p.stats.ClonedBytes += uint64(f.bytes)
	return &nf.n, nil
}

// retireLocked pushes a superseded version frame onto the page's chain.
// A retired frame is never written back, but it keeps its dirty flag:
// when Rollback reinstates it, that flag still says whether the store
// holds its content. The caller must hold p.mu and must replace or drop f
// as the page's resident head.
func (p *Pool) retireLocked(id page.ID, f *frame, epoch uint64) {
	f.superseded = epoch
	pv, ok := p.old[id]
	if !ok {
		pv = &pageVersions{}
		p.old[id] = pv
	}
	pv.frames = append(pv.frames, nil)
	copy(pv.frames[1:], pv.frames)
	pv.frames[0] = f
	p.retainedBytes += f.bytes
	p.retained.Add(1)
}

// installLocked makes f the resident head of its page: table slot, bytes
// and a CLOCK ring place just behind the hand, so a sweep reaches it last.
// The frame the hand pointed at moves to the ring's end, still ahead of the
// hand. A hand past the ring's end (the sweep evicted the last slot) stands
// where the sweep wraps it to slot 0, so the ring's end is already just
// behind it: f is appended and the hand wrapped, not left on f. The caller
// must hold p.mu.
func (p *Pool) installLocked(f *frame) {
	f.ring = len(p.ring)
	p.ring = append(p.ring, f)
	if h := p.hand; h < f.ring {
		g := p.ring[h]
		p.ring[h], p.ring[f.ring] = f, g
		f.ring, g.ring = h, f.ring
		p.hand++
	} else {
		p.hand = 0
	}
	p.bytes += f.bytes
	p.table.set(f.id, f)
}

// dropLocked removes the resident head f from the table, the ring (the
// ring's last frame takes its place) and the resident bytes. The caller
// must hold p.mu.
func (p *Pool) dropLocked(f *frame) {
	last := p.ring[len(p.ring)-1]
	p.ring[f.ring], last.ring = last, f.ring
	p.ring[len(p.ring)-1] = nil
	p.ring = p.ring[:len(p.ring)-1]
	p.bytes -= f.bytes
	p.table.set(f.id, nil)
}

// evictLocked sweeps the CLOCK ring until the budget is honored: a frame
// whose reference bit is set has it cleared and is passed over, the first
// frame found with a clear bit is evicted, and two full turns without
// reaching the budget end the sweep. Frames installed by the open
// write bracket are skipped: writing them back would clobber the durable
// pre-image that snapshots below the bracket (and Rollback) still rely on.
// Frames that fail to serialize stay resident (the error will resurface on
// Flush). The caller must hold p.mu.
func (p *Pool) evictLocked() {
	if p.budget <= 0 {
		return
	}
	published := p.published.Load()
	for steps := 2 * len(p.ring); p.bytes > p.budget && steps > 0; steps-- {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		f := p.ring[p.hand]
		if f.install > published || p.table.slot(f.id).clearRef() {
			p.hand++
			continue
		}
		if f.dirty {
			if err := p.writeBackLocked(f); err != nil {
				// Keep the frame; skip it this round to avoid data loss
				// (the error will resurface on Flush).
				p.hand++
				continue
			}
		}
		p.dropLocked(f) // the ring's last frame moves under the hand
		p.stats.Evictions++
		if f.n.ID == page.Nil && p.limboBytes.Load()+int64(f.bytes) <= maxLimboBytes {
			// Loaded by a miss and never handed to the writer: reusable
			// once the readers drain.
			p.limbo = append(p.limbo, f)
			p.limboBytes.Add(int64(f.bytes))
		}
	}
}

// writeBackLocked writes a dirty published frame's image to the store. The
// caller must hold p.mu.
func (p *Pool) writeBackLocked(f *frame) error {
	buf, err := p.codec.Page(f.img, f.bytes)
	if err != nil {
		return err
	}
	if err := p.store.Write(f.id, buf); err != nil {
		return err
	}
	p.stats.Writes++
	f.dirty = false
	return nil
}

// Flush writes every dirty resident node back to the store. The tree calls
// it only between write brackets, so every dirty frame is a published
// version.
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.ring {
		if f.dirty {
			if err := p.writeBackLocked(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Invalidate drops every resident frame — clean and dirty alike — without
// writing anything back. It exists for the failed-commit path: when a
// store commit fails, the durable image is some earlier commit boundary,
// so resident nodes (and especially un-flushed dirty ones) no longer
// describe it and must not be served or written back later. Retained
// version chains are kept: they are memory-only state serving in-flight
// snapshots, and the broken store latches every later read anyway.
func (p *Pool) Invalidate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Backwards, so the frame dropLocked moves into slot i has been
	// visited already.
	for i := len(p.ring) - 1; i >= 0; i-- {
		p.dropLocked(p.ring[i])
	}
}

// Free releases a page, deferred so snapshots pinned below the bracket
// keep reading it: the published head (if resident) is retired into the
// version chain, the page is marked dead at the bracket epoch, and the
// store-level free runs in a later Collect once every snapshot that could
// see the page has been released. A page the bracket allocated is freed
// at once. Only the tree's single writer may call this, inside a write
// bracket, under its write lock.
func (p *Pool) Free(id page.ID) error {
	if !p.inBracket() {
		return errNoBracket
	}
	p.mu.Lock()
	f := p.table.load(id)
	we := p.writeEpoch
	if f != nil {
		p.dropLocked(f)
		if f.install == we {
			// The head was created inside this bracket; no snapshot can
			// see it. If it cloned a published pre-image, the chain entry
			// keeps serving old snapshots; if it was a fresh allocation,
			// nothing references the page and the store free is immediate.
			if !p.old[id].retiredAt(we) {
				p.mu.Unlock()
				return p.store.Free(id)
			}
		} else {
			p.retireLocked(id, f, we)
		}
	}
	pv, chained := p.old[id]
	if !chained {
		pv = &pageVersions{}
		p.old[id] = pv
	}
	pv.deadAt = we
	p.mu.Unlock()
	return nil
}

// Rollback aborts the open write bracket: every frame installed at the
// bracket epoch is dropped, pre-images retired under the bracket are
// reinstated as resident heads, and page frees deferred by the bracket are
// undone. Fresh pages allocated by the bracket are freed in the store.
// After Rollback the pool describes exactly the published state. Only the
// tree's single writer may call this, under its write lock.
func (p *Pool) Rollback() error {
	if !p.inBracket() {
		return nil
	}
	we := p.writeEpoch
	var errs []error
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = slices.DeleteFunc(p.queue, func(f *frame) bool { return f.install == we })
	// Undo deferred frees first so their pre-images are back in the chains
	// for the head-restoration pass below.
	for _, pv := range p.old {
		if pv.deadAt == we {
			pv.deadAt = 0
		}
	}
	// Backwards, so the frame dropLocked moves into slot i has been
	// visited already.
	for i := len(p.ring) - 1; i >= 0; i-- {
		f := p.ring[i]
		if f.install != we {
			continue
		}
		p.dropLocked(f)
		if !p.old[f.id].retiredAt(we) {
			// Fresh allocation of the aborted bracket.
			if err := p.store.Free(f.id); err != nil {
				errs = append(errs, err)
			}
		}
	}
	// Reinstate every pre-image the bracket retired, whether its clone was
	// dropped above or by Free inside the bracket. This runs after the ring
	// walk because installing displaces ring slots.
	for id, pv := range p.old {
		if pv.retiredAt(we) && p.table.load(id) == nil {
			p.reinstateLocked(id, pv)
		}
	}
	p.evictLocked()
	p.writeEpoch = p.published.Load()
	return errors.Join(errs...)
}

// reinstateLocked pops the newest retired version off id's chain pv and
// makes it the resident head again. The caller must hold p.mu.
func (p *Pool) reinstateLocked(id page.ID, pv *pageVersions) {
	pre := pv.frames[0]
	pv.frames = pv.frames[1:]
	p.retainedBytes -= pre.bytes
	p.retained.Add(-1)
	if len(pv.frames) == 0 && pv.deadAt == 0 {
		delete(p.old, id)
	}
	pre.superseded = 0
	p.installLocked(pre)
}

// Collect reclaims version chain entries whose supersession epoch is at or
// below min — the smallest epoch any registered snapshot is pinned at (or
// the published epoch when nothing is pinned). When freePages is set,
// pages whose deferred free has drained (deadAt <= min) are released in
// the store; reader-triggered collections pass false so store interaction
// stays on writer paths. min must not exceed the published epoch.
func (p *Pool) Collect(min uint64, freePages bool) error {
	var errs []error
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, pv := range p.old {
		kept := pv.frames[:0]
		for _, f := range pv.frames {
			if f.superseded > min {
				kept = append(kept, f)
				continue
			}
			p.retainedBytes -= f.bytes
			p.stats.Collected++
			p.retained.Add(-1)
		}
		for j := len(kept); j < len(pv.frames); j++ {
			pv.frames[j] = nil
		}
		pv.frames = kept
		if len(pv.frames) > 0 {
			continue
		}
		if pv.deadAt == 0 {
			delete(p.old, id)
			continue
		}
		if pv.deadAt <= min && freePages {
			if err := p.store.Free(id); err != nil {
				errs = append(errs, err)
				continue
			}
			p.stats.DeferredFrees++
			delete(p.old, id)
		}
	}
	return errors.Join(errs...)
}

// RetainedVersions reports the number of superseded version frames
// currently retained, without taking the pool's mutex.
func (p *Pool) RetainedVersions() int { return int(p.retained.Load()) }

// Resident reports the number of nodes currently in memory (resident
// heads; retained versions are not counted).
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ring)
}

// Stats returns the pool's counters, including the settled lock-free hits.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	out := p.stats
	out.Retained = uint64(p.retained.Load())
	out.RetainedBytes = uint64(p.retainedBytes)
	p.mu.Unlock()
	h := p.hits.Load()
	out.Gets += h
	out.Hits += h
	return out
}
