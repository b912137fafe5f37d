// Package buffer implements a pinning CLOCK buffer pool over decoded segment
// index nodes, with copy-on-write page versioning for MVCC snapshot reads.
//
// The tree layer reads and writes nodes exclusively through a Pool. Nodes
// are decoded once on miss and stay resident until evicted; eviction
// considers only unpinned frames, serializing dirty ones back to the store.
// This mirrors a conventional database buffer manager while letting the
// index algorithms work on structured nodes rather than raw bytes.
//
// # Page versioning
//
// Every frame carries the epoch it was installed at. The single writer of a
// tree brackets each mutating operation with BeginWrite(e) and Publish(e):
// inside the bracket the writer descends with Get like any reader of the
// newest version and calls Upgrade on a page at its first mutation, not its
// first visit. Upgrade clones the published head (copy-on-write), retires
// the pre-image into the shard's version chain with supersession epoch e
// and hands the writer's pin over to the clone, which is born dirty — so a
// frame is dirty exactly when it was mutated, and an operation clones,
// writes back and logs the pages it changed rather than the path it walked.
// Free defers the store-level page release the same way. Mutating a node
// obtained from Get without upgrading it is the one thing the writer must
// never do: the change would be visible to pinned snapshots and, the frame
// being clean, lost at the next Flush.
//
// A clone is a header copy sharing the pre-image's float storage, and it is
// unsealed (node.Node.Seal). NewNode and Upgrade queue every node they hand
// the writer; Seal packs each queued node's rectangles into a run of its
// own, and the tree calls it before it publishes a state, so a reader only
// ever resolves sealed nodes. Rollback drops the queue.
//
// Readers call GetVersion(id, epoch) with the epoch of the tree state they
// pinned: the resident head serves them when it was installed at or before
// their epoch, otherwise the version chain does, otherwise the store does
// (the retention discipline guarantees the durable image is never newer
// than what such a fall-through may observe — see the invariant below).
// Readers never pin; published node versions are immutable, and Go's
// garbage collector keeps a node alive for as long as any query still holds
// its pointer.
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
// The pool is lock-striped: pages hash to one of N shards, each with its
// own mutex, CLOCK ring, byte budget, and counters. A resident hit takes
// no lock at all. A dense page table indexed by page ID holds every
// resident head; GetVersion serves a head installed at or before the
// reader's epoch from one table slot, sets the slot's reference bit only
// when it is clear, and counts the hit in the caller's Tally, which
// Settle folds into the pool's counters once per query. Misses, version
// chains and the writer's paths take the shard lock and update the table
// under it; only accesses to pages in the same shard serialize. The byte
// budget is split evenly across shards and covers the resident heads;
// the evictor sweeps the shard's ring, clearing set reference bits and
// evicting the first unpinned, published frame whose bit is clear.
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
	"runtime"
	"sync"
	"sync/atomic"

	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// ErrPinned is returned when an operation requires an unpinned frame.
var ErrPinned = errors.New("buffer: page is pinned")

// Stats counts pool activity since creation. For a sharded pool the
// counters are aggregated across shards.
type Stats struct {
	Gets      uint64 // Get/GetVersion calls
	Hits      uint64 // calls satisfied from memory
	Misses    uint64 // calls that read from the store
	Evictions uint64 // frames evicted to honor the budget
	Writes    uint64 // dirty pages written back

	Clones        uint64 // copy-on-write clones made by Upgrade
	ClonedBytes   uint64 // page bytes of those clones
	Collected     uint64 // superseded version frames reclaimed by Collect
	DeferredFrees uint64 // store page frees executed after their epoch drained
	Retained      uint64 // superseded version frames currently retained (gauge)
	RetainedBytes uint64 // bytes held by retained version frames (gauge)
}

// Add accumulates o's counters into s (gauges are summed too: for a
// sharded pool, or a forest of pools, the aggregate gauge is the total).
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writes += o.Writes
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

// frame is one page version. It holds its node by value, so a node
// pointer the pool hands out is the frame's address: a lock-free hit
// returns it without reading the frame, and it keeps the frame alive.
type frame struct {
	n node.Node

	// install is the write epoch the frame's version was created at (0 for
	// versions loaded from the store outside a write bracket, which are
	// visible to every snapshot). superseded is the epoch a newer version
	// replaced this one at; it is 0 while the frame is the resident head
	// and strictly positive once the frame is retired to a version chain.
	install    uint64
	superseded uint64

	bytes int // on-page size of the node
	pins  int
	dirty bool
	ring  int // index in the shard's CLOCK ring while resident
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

// shard is one lock stripe: an independent CLOCK pool over the pages that
// hash to it.
type shard struct {
	mu     sync.Mutex
	budget int                       // max resident bytes in this shard; 0 means unlimited
	old    map[page.ID]*pageVersions // retained superseded versions + graveyard
	// ring holds the shard's resident heads, pinned or not; the evictor's
	// hand sweeps it.
	ring          []*frame
	hand          int
	bytes         int // resident head bytes in this shard
	retained      int // version frames in old
	retainedBytes int // bytes held by retained version frames
	stats         Stats

	// pad keeps neighboring shards' mutexes off one cache line.
	_ [64]byte
}

// Tally counts the hits one reader's GetVersion calls served without a
// lock. It lives in the reader's query context; Settle adds it to the
// pool's Gets and Hits once per query, so a hit writes nothing shared.
type Tally struct{ hits uint64 }

// Pool is a pinning, lock-striped CLOCK buffer pool with copy-on-write
// page versioning. The zero value is not usable; use New or NewSharded.
type Pool struct {
	store  store.Store
	codec  node.Codec
	shards []shard
	mask   uint64 // len(shards) - 1; shard count is a power of two
	table  table  // resident heads by page ID, read without locks

	// published is the newest committed write epoch: frames installed at
	// or below it are durable-eligible (evictable); frames above it belong
	// to the in-progress bracket. Written under the tree's write lock,
	// read under shard locks, hence atomic.
	published atomic.Uint64

	// writeEpoch is the epoch of the in-progress write bracket (equals
	// published when no bracket is open). Only the single writer touches
	// it, always under the tree's write lock.
	writeEpoch uint64

	// retained counts version frames across all shards' chains; a cheap
	// signal for "is there anything to collect" that readers can poll
	// without taking shard locks.
	retained atomic.Int64

	// unsealed queues the nodes NewNode and Upgrade handed the writer
	// since the last Seal or Rollback: the only nodes that can be
	// unsealed. Writer-only, like writeEpoch.
	unsealed []*node.Node

	// hits counts the lock-free hits readers settled, on a cache line of
	// its own so that settling does not disturb the lines lookups read.
	_    [64]byte
	hits atomic.Uint64
}

// defaultShardCount sizes the stripe set to the parallelism available at
// construction time: at least 8 shards so small machines still spread
// collisions, at most 128, rounded up to a power of two.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0) * 4
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New creates a pool over the given store with the default shard count.
// budgetBytes caps resident node bytes (0 = unlimited). The pool must
// outlive every node pointer handed out while pinned.
func New(st store.Store, codec node.Codec, budgetBytes int) *Pool {
	return NewSharded(st, codec, budgetBytes, 0)
}

// NewSharded creates a pool with an explicit shard count (rounded up to a
// power of two; <= 0 selects the default). One shard gives a single global
// CLOCK with an exact byte budget; more shards trade budget precision for
// concurrent throughput.
func NewSharded(st store.Store, codec node.Codec, budgetBytes, shards int) *Pool {
	if shards <= 0 {
		shards = defaultShardCount()
	}
	shards = ceilPow2(shards)
	p := &Pool{
		store:  st,
		codec:  codec,
		shards: make([]shard, shards),
		mask:   uint64(shards - 1),
	}
	perShard := 0
	if budgetBytes > 0 {
		perShard = (budgetBytes + shards - 1) / shards
	}
	for i := range p.shards {
		p.shards[i].budget = perShard
		p.shards[i].old = make(map[page.ID]*pageVersions)
	}
	return p
}

// Shards reports the number of lock stripes.
func (p *Pool) Shards() int { return len(p.shards) }

// shardFor maps a page ID to its stripe. Sequentially allocated IDs are
// mixed (Fibonacci hashing) so tree levels do not clump into one shard.
func (p *Pool) shardFor(id page.ID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &p.shards[(h>>32)&p.mask]
}

// BeginWrite opens a write bracket at the given epoch (the tree's published
// epoch plus one). Frames installed by NewNode and Upgrade inside the
// bracket carry this epoch and stay resident until Publish or Rollback.
// Only the tree's single writer may call this, under its write lock.
func (p *Pool) BeginWrite(epoch uint64) { p.writeEpoch = epoch }

// Publish commits the open write bracket: frames installed at the epoch
// become evictable and the pre-images retired under it become reclaimable
// once no snapshot needs them (see Collect).
func (p *Pool) Publish(epoch uint64) { p.published.Store(epoch) }

// Seal seals every node NewNode and Upgrade handed out since the last Seal
// or Rollback (node.Node.Seal), so the state the writer publishes next
// shows readers only sealed nodes. The tree calls it before it publishes a
// state. Only the tree's single writer may call this, under its write
// lock.
func (p *Pool) Seal() {
	for _, n := range p.unsealed {
		n.Seal(p.codec.Dims)
	}
	clear(p.unsealed)
	p.unsealed = p.unsealed[:0]
}

// inBracket reports whether a write bracket is open. Writer-only.
func (p *Pool) inBracket() bool { return p.writeEpoch > p.published.Load() }

// NewNode allocates a fresh page of pageBytes in the store and returns the
// corresponding empty node, pinned and marked dirty and queued for the
// next Seal. Inside a write bracket the frame carries the bracket epoch, so
// snapshots pinned before the bracket never observe it. Only the tree's
// single writer may call this, under its write lock.
func (p *Pool) NewNode(level, pageBytes int) (*node.Node, error) {
	id, err := p.store.Allocate(pageBytes)
	if err != nil {
		return nil, err
	}
	f := &frame{n: node.Node{ID: id, Level: level}, bytes: pageBytes, pins: 1, dirty: true, install: p.writeEpoch}
	p.unsealed = append(p.unsealed, &f.n)
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	p.installLocked(s, f)
	p.evictLocked(s)
	return &f.n, nil
}

// Get returns the newest version of the node for id, pinned. Every Get must
// be paired with an Unpin. Inside a write bracket the newest version may be
// the bracket's unpublished clone — exactly what the writer's read-only
// passes must observe.
func (p *Pool) Get(id page.ID) (*node.Node, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	if f := p.table.load(id); f != nil {
		s.stats.Hits++
		f.pins++
		p.table.slot(id).touch()
		return &f.n, nil
	}
	s.stats.Misses++
	if pv, dead := s.old[id]; dead && pv.deadAt != 0 {
		// The page was freed in a committed or in-progress bracket and the
		// store-level free is merely deferred for old snapshots; to the
		// newest-version view it is gone.
		return nil, fmt.Errorf("buffer: get %v: %w", id, store.ErrNotFound)
	}
	f, err := p.readLocked(s, id)
	if err != nil {
		return nil, err
	}
	f.pins = 1
	p.installLocked(s, f)
	p.evictLocked(s)
	return &f.n, nil
}

// GetVersion returns the version of the node for id visible at the given
// snapshot epoch, without pinning it. The returned node is immutable (the
// writer mutates only unpublished clones) and remains valid for as long as
// the caller holds the pointer, even across eviction. The caller must hold
// a snapshot registration at the epoch, which is what keeps the version
// chain populated (see the retention invariant in the package comment).
//
// A resident head installed at or before the epoch is served from the
// page table without a lock and counted in t; hand t to Settle when the
// query ends. Every other case takes the shard lock and is counted there.
// A head the table shows is safe to serve: the writer swaps a page's head
// before it publishes the epoch that makes the old head stale.
//
//seglint:hotpath
func (p *Pool) GetVersion(id page.ID, epoch uint64, t *Tally) (*node.Node, error) {
	if f := p.table.hit(id, epoch); f != nil {
		t.hits++
		return &f.n, nil
	}
	return p.getVersionSlow(id, epoch)
}

// Settle adds the hits counted in t to the pool's Gets and Hits and
// zeroes t.
func (p *Pool) Settle(t *Tally) {
	if t.hits != 0 {
		p.hits.Add(t.hits)
		t.hits = 0
	}
}

// getVersionSlow is GetVersion under the shard lock: the head may have
// become resident meanwhile, or the epoch needs a retained version or the
// durable image.
func (p *Pool) getVersionSlow(id page.ID, epoch uint64) (*node.Node, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	head := p.table.load(id)
	if head != nil && head.install <= epoch {
		s.stats.Hits++
		p.table.slot(id).touch()
		return &head.n, nil
	}
	if pv, ok := s.old[id]; ok {
		for _, f := range pv.frames {
			if f.visibleAt(epoch) {
				s.stats.Hits++
				return &f.n, nil
			}
		}
		// No retained version covers the epoch: the visible version is the
		// durable image (a freed page's final content, or a chain whose
		// head was evicted). Serve it without caching — installing a head
		// here would collide with the chain's epoch bookkeeping.
		s.stats.Misses++
		f, err := p.readLocked(s, id)
		if err != nil {
			return nil, err
		}
		return &f.n, nil
	}
	if head != nil {
		// head.install > epoch with no version chain: by the retention
		// invariant no registered snapshot at this epoch can exist. Serve
		// the durable pre-image best-effort rather than corrupting state.
		s.stats.Misses++
		f, err := p.readLocked(s, id)
		if err != nil {
			return nil, err
		}
		return &f.n, nil
	}
	s.stats.Misses++
	f, err := p.readLocked(s, id)
	if err != nil {
		return nil, err
	}
	p.installLocked(s, f)
	p.evictLocked(s)
	return &f.n, nil
}

// readLocked reads and decodes a page from the store, returning an
// uninstalled frame. The install epoch is inferred from the version chain:
// the durable image of a page with retained versions is its most recently
// superseded-away head, which was installed exactly when the newest chain
// entry was retired. The caller must hold s.mu; the store read happens
// under the shard lock so concurrent accesses cannot decode the same page
// twice.
func (p *Pool) readLocked(s *shard, id page.ID) (*frame, error) {
	buf, err := p.store.Read(id)
	if err != nil {
		return nil, err
	}
	n, err := p.codec.Unmarshal(buf, id)
	if err != nil {
		return nil, fmt.Errorf("buffer: decode %v: %w", id, err)
	}
	f := &frame{n: *n, bytes: len(buf)}
	if pv, ok := s.old[id]; ok && len(pv.frames) > 0 {
		f.install = pv.frames[0].superseded
	}
	return f, nil
}

// GetMut returns the node for id ready for mutation inside the open write
// bracket, pinned: Get followed by Upgrade, for a page the writer fetches in
// order to change it. A descent that may leave the page untouched pins it
// with Get and upgrades only once it knows. Only the tree's single writer
// may call this, under its write lock.
func (p *Pool) GetMut(id page.ID) (*node.Node, error) {
	if _, err := p.Get(id); err != nil {
		return nil, err
	}
	return p.Upgrade(id)
}

// Upgrade turns the writer's pin on id (from Get) into a pin on the open
// bracket's mutable version of the page and returns that version. The first
// Upgrade of a page per bracket clones the published head (copy-on-write,
// a header clone sharing the head's floats), retires the pre-image into the
// version chain and marks the clone dirty; on a page the bracket already
// owns, and outside a bracket, it returns the pinned node itself. The clone,
// and outside a bracket the node itself, is queued for the next Seal. The
// pointer Get returned must not be used afterwards: once retired it is what
// snapshots read. Upgrade consumes the caller's pin even when it fails — a
// published head someone else also pins cannot be retired (the other
// holder would unpin into a frame no longer resident), which is a
// pin-discipline bug in the caller. Only the tree's single writer may call
// this, under its write lock.
func (p *Pool) Upgrade(id page.ID) (*node.Node, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := p.table.load(id)
	if f == nil || f.pins == 0 {
		return nil, fmt.Errorf("buffer: upgrade of unpinned %v", id)
	}
	we := p.writeEpoch
	if f.install == we {
		return &f.n, nil
	}
	if !p.inBracket() {
		p.unsealed = append(p.unsealed, &f.n)
		return &f.n, nil
	}
	f.pins--
	if f.pins > 0 {
		return nil, fmt.Errorf("buffer: copy-on-write of pinned %v: %w", id, ErrPinned)
	}
	p.retireLocked(s, id, f, we)
	nf := &frame{n: f.n.CloneHeaders(), bytes: f.bytes, pins: 1, dirty: true, ring: f.ring, install: we}
	p.unsealed = append(p.unsealed, &nf.n)
	s.ring[nf.ring] = nf
	p.table.set(id, nf)
	s.stats.Clones++
	s.stats.ClonedBytes += uint64(f.bytes)
	return &nf.n, nil
}

// retireLocked pushes a superseded version frame onto the page's chain.
// A retired frame is never written back, but it keeps its dirty flag:
// when Rollback reinstates it, that flag still says whether the store
// holds its content. The caller must hold s.mu and must replace or drop f
// as the page's resident head.
func (p *Pool) retireLocked(s *shard, id page.ID, f *frame, epoch uint64) {
	f.superseded = epoch
	pv, ok := s.old[id]
	if !ok {
		pv = &pageVersions{}
		s.old[id] = pv
	}
	pv.frames = append(pv.frames, nil)
	copy(pv.frames[1:], pv.frames)
	pv.frames[0] = f
	s.retained++
	s.retainedBytes += f.bytes
	p.retained.Add(1)
}

// installLocked makes f the resident head of its page: table slot, shard
// bytes and a CLOCK ring place just behind the hand, so a sweep reaches it
// last. The frame the hand pointed at moves to the ring's end, still ahead
// of the hand. The caller must hold s.mu.
func (p *Pool) installLocked(s *shard, f *frame) {
	f.ring = len(s.ring)
	s.ring = append(s.ring, f)
	if h := s.hand; h < f.ring {
		g := s.ring[h]
		s.ring[h], s.ring[f.ring] = f, g
		f.ring, g.ring = h, f.ring
		s.hand++
	}
	s.bytes += f.bytes
	p.table.set(f.n.ID, f)
}

// dropLocked removes the resident head f from the table, the ring (the
// ring's last frame takes its place) and the shard bytes. The caller must
// hold s.mu.
func (p *Pool) dropLocked(s *shard, f *frame) {
	last := s.ring[len(s.ring)-1]
	s.ring[f.ring], last.ring = last, f.ring
	s.ring[len(s.ring)-1] = nil
	s.ring = s.ring[:len(s.ring)-1]
	s.bytes -= f.bytes
	p.table.set(f.n.ID, nil)
}

// Unpin releases one pin. dirty marks the node as modified since fetch; it
// will be written back before eviction or on Flush.
func (p *Pool) Unpin(id page.ID, dirty bool) error {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.unpinLocked(s, id, dirty)
}

// unpinLocked releases one pin on a resident frame, making it evictable
// when the pin count reaches zero. The caller must hold s.mu.
func (p *Pool) unpinLocked(s *shard, id page.ID, dirty bool) error {
	f := p.table.load(id)
	if f == nil {
		return fmt.Errorf("buffer: unpin of non-resident %v", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: unpin of unpinned %v", id)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	if f.pins == 0 {
		p.evictLocked(s)
	}
	return nil
}

// evictLocked sweeps the shard's CLOCK ring until its budget is honored:
// a frame whose reference bit is set has it cleared and is passed over,
// the first unpinned frame found with a clear bit is evicted, and two
// full turns without reaching the budget end the sweep. Frames installed
// by the open write bracket are skipped: writing them back would clobber
// the durable pre-image that snapshots below the bracket (and Rollback)
// still rely on. Frames that fail to serialize stay resident (the error
// will resurface on Flush). The caller must hold s.mu.
func (p *Pool) evictLocked(s *shard) {
	if s.budget <= 0 {
		return
	}
	published := p.published.Load()
	for steps := 2 * len(s.ring); s.bytes > s.budget && steps > 0; steps-- {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		f := s.ring[s.hand]
		if f.pins > 0 || f.install > published || p.table.slot(f.n.ID).clearRef() {
			s.hand++
			continue
		}
		if f.dirty {
			if err := p.writeBackLocked(s, f); err != nil {
				// Keep the frame; skip it this round to avoid data loss
				// (the error will resurface on Flush).
				s.hand++
				continue
			}
		}
		p.dropLocked(s, f) // the ring's last frame moves under the hand
		s.stats.Evictions++
	}
}

// writeBackLocked serializes a dirty frame to the store. The caller must
// hold s.mu.
func (p *Pool) writeBackLocked(s *shard, f *frame) error {
	buf, err := p.codec.Marshal(&f.n, f.bytes)
	if err != nil {
		return err
	}
	if err := p.store.Write(f.n.ID, buf); err != nil {
		return err
	}
	s.stats.Writes++
	f.dirty = false
	return nil
}

// Flush writes every dirty resident node back to the store, shard by
// shard. The tree calls it only between write brackets, so every dirty
// frame is a published version.
func (p *Pool) Flush() error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, f := range s.ring {
			if f.dirty {
				if err := p.writeBackLocked(s, f); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Invalidate drops every unpinned resident frame — clean and dirty alike —
// without writing anything back. It exists for the failed-commit path:
// when a store commit fails, the durable image is some earlier commit
// boundary, so resident nodes (and especially un-flushed dirty ones) no
// longer describe it and must not be served or written back later. Pinned
// frames cannot be dropped; Invalidate reports how many remain resident.
// Retained version chains are kept: they are memory-only state serving
// in-flight snapshots, and the broken store latches every later read
// anyway.
func (p *Pool) Invalidate() int {
	pinned := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		// Backwards, so the frame dropLocked moves into slot i has been
		// visited already.
		for i := len(s.ring) - 1; i >= 0; i-- {
			if f := s.ring[i]; f.pins > 0 {
				pinned++
			} else {
				p.dropLocked(s, f)
			}
		}
		s.mu.Unlock()
	}
	return pinned
}

// Free releases a page. Outside a write bracket (construction, recovery)
// the frame is dropped and the store page freed immediately. Inside a
// bracket the release is deferred so snapshots pinned below the bracket
// keep reading the page: the published head (if any) is retired into the
// version chain, the page is marked dead at the bracket epoch, and the
// store-level free runs in a later Collect once every snapshot that could
// see the page has been released. The node must be unpinned.
func (p *Pool) Free(id page.ID) error {
	s := p.shardFor(id)
	s.mu.Lock()
	f := p.table.load(id)
	if f != nil && f.pins > 0 {
		s.mu.Unlock()
		return ErrPinned
	}
	if !p.inBracket() {
		if f != nil {
			p.dropLocked(s, f)
		}
		s.mu.Unlock()
		return p.store.Free(id)
	}
	we := p.writeEpoch
	if f != nil {
		p.dropLocked(s, f)
		if f.install == we {
			// The head was created inside this bracket; no snapshot can
			// see it. If it cloned a published pre-image, the chain entry
			// keeps serving old snapshots; if it was a fresh allocation,
			// nothing references the page and the store free is immediate.
			if !s.old[id].retiredAt(we) {
				s.mu.Unlock()
				return p.store.Free(id)
			}
		} else {
			p.retireLocked(s, id, f, we)
		}
	}
	pv, chained := s.old[id]
	if !chained {
		pv = &pageVersions{}
		s.old[id] = pv
	}
	pv.deadAt = we
	s.mu.Unlock()
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
	clear(p.unsealed)
	p.unsealed = p.unsealed[:0]
	we := p.writeEpoch
	var errs []error
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		// Undo deferred frees first so their pre-images are back in the
		// chains for the head-restoration pass below.
		for _, pv := range s.old {
			if pv.deadAt == we {
				pv.deadAt = 0
			}
		}
		// Backwards, so the frame dropLocked moves into slot i has been
		// visited already.
		for i := len(s.ring) - 1; i >= 0; i-- {
			f := s.ring[i]
			if f.install != we {
				continue
			}
			// An error-path frame may still be pinned (the op bailed out
			// mid-descent); dropping it is exactly the point of rollback.
			p.dropLocked(s, f)
			if !s.old[f.n.ID].retiredAt(we) {
				// Fresh allocation of the aborted bracket.
				if err := p.store.Free(f.n.ID); err != nil {
					errs = append(errs, err)
				}
			}
		}
		// Reinstate every pre-image the bracket retired, whether its clone
		// was dropped above or by Free inside the bracket. This runs after
		// the ring walk because installing displaces ring slots.
		for id, pv := range s.old {
			if pv.retiredAt(we) && p.table.load(id) == nil {
				p.reinstateLocked(s, id, pv)
			}
		}
		p.evictLocked(s)
		s.mu.Unlock()
	}
	p.writeEpoch = p.published.Load()
	return errors.Join(errs...)
}

// reinstateLocked pops the newest retired version off id's chain pv and
// makes it the resident head again. The caller must hold s.mu.
func (p *Pool) reinstateLocked(s *shard, id page.ID, pv *pageVersions) {
	pre := pv.frames[0]
	pv.frames = pv.frames[1:]
	s.retained--
	s.retainedBytes -= pre.bytes
	p.retained.Add(-1)
	if len(pv.frames) == 0 && pv.deadAt == 0 {
		delete(s.old, id)
	}
	pre.superseded = 0
	pre.pins = 0
	p.installLocked(s, pre)
}

// Collect reclaims version chain entries whose supersession epoch is at or
// below min — the smallest epoch any registered snapshot is pinned at (or
// the published epoch when nothing is pinned). When freePages is set,
// pages whose deferred free has drained (deadAt <= min) are released in
// the store; reader-triggered collections pass false so store interaction
// stays on writer paths. min must not exceed the published epoch.
func (p *Pool) Collect(min uint64, freePages bool) error {
	var errs []error
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for id, pv := range s.old {
			kept := pv.frames[:0]
			for _, f := range pv.frames {
				if f.superseded > min {
					kept = append(kept, f)
					continue
				}
				s.retained--
				s.retainedBytes -= f.bytes
				s.stats.Collected++
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
				delete(s.old, id)
				continue
			}
			if pv.deadAt <= min && freePages {
				if err := p.store.Free(id); err != nil {
					errs = append(errs, err)
					continue
				}
				s.stats.DeferredFrees++
				delete(s.old, id)
			}
		}
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// RetainedVersions reports the number of superseded version frames
// currently retained across all shards, without taking shard locks.
func (p *Pool) RetainedVersions() int { return int(p.retained.Load()) }

// PageBytes reports the on-page size of a resident or stored node.
func (p *Pool) PageBytes(id page.ID) (int, error) {
	if f := p.table.load(id); f != nil {
		return f.bytes, nil
	}
	return p.store.PageSize(id)
}

// Resident reports the number of nodes currently in memory across all
// shards (resident heads; retained versions are not counted).
func (p *Pool) Resident() int {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total += len(s.ring)
		s.mu.Unlock()
	}
	return total
}

// Stats returns pool counters aggregated across shards, plus the settled
// lock-free hits. Shards are snapshotted one at a time, so under
// concurrent load the aggregate is a consistent-per-shard,
// approximate-global view.
func (p *Pool) Stats() Stats {
	h := p.hits.Load()
	out := Stats{Gets: h, Hits: h}
	for _, st := range p.ShardStats() {
		out.Add(st)
	}
	return out
}

// ShardStats returns a per-shard snapshot of the counters, in shard order.
// A shard counts only the calls it served under its lock; hits served from
// the page table belong to no shard and appear in Stats alone. Intended
// for tests and diagnostics.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		out[i] = s.stats
		out[i].Retained = uint64(s.retained)
		out[i].RetainedBytes = uint64(s.retainedBytes)
		s.mu.Unlock()
	}
	return out
}
