// Package accel implements a HINT-style hierarchical main-memory interval
// index (Christodoulou et al., "HINT: A Hierarchical Index for Intervals in
// Main Memory") used as a sidecar accelerator for one hot dimension of a
// segment index tree.
//
// The hot-dimension domain [Lo, Hi] is partitioned into 2^Levels equal
// bottom cells; level l (0 = root) has 2^l nodes, each covering a dyadic
// run of bottom cells. An interval's cell range [a, b] is decomposed into
// its canonical segment-tree cover: at most two nodes per level, pairwise
// disjoint, whose cell runs tile [a, b] exactly. Each assigned node stores
// the record in one of two flat slot lists:
//
//   - covers: nodes whose cell run contains neither a nor b. For a stab at
//     point q landing in such a run, cellOf(start) < cellOf(q) <
//     cellOf(end) holds by construction, and because cellOf is monotone
//     this proves start < q < end with no float comparison at query time —
//     the "comparison-free" property HINT is built around.
//   - bounds: the (at most two per level) end nodes whose run contains a
//     or b; these candidates are verified with ordinary comparisons.
//
// Each record is additionally registered once in the origin list of bottom
// cell a = cellOf(start), which lets an intersection query [qa, qb] be
// answered duplicate-free as the disjoint union of a stab at qa (records
// with start <= qa) and an origin scan of cells cellOf(qa)..cellOf(qb)
// (records with start > qa).
//
// Values outside [Lo, Hi] clamp to the edge cells: cellOf stays monotone,
// so every answer stays exact — out-of-domain data only crowds the edge
// cells and costs performance, never correctness.
//
// Concurrency follows the owning tree's MVCC discipline. The single writer
// stages inserts and deletes under the tree's write lock and applies them
// in Commit, inside the tree's copy-on-write bracket and before the tree
// publishes its new state. Readers are lock-free: record columns live in
// an append-only table published through an atomic pointer (the prefix
// visible through any published header is immutable), deletes never remove
// slots but stamp an atomic death epoch, and every read filters by its
// pinned snapshot epoch — birth <= epoch < death. Slot lists are published
// per cell through atomic pointers with in-place append beyond the visible
// length; superseded headers are reclaimed by the Go GC once the last
// reader drops them, and dead slots are compacted out of their cell lists
// once the tree's epoch GC proves no live snapshot can still see them.
package accel

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"segidx/internal/geom"
)

// deathChunkShift sizes the fixed death-stamp chunks (4096 slots). Chunks
// never move once allocated, so the atomic death cells stay addressable
// while the column slices around them grow.
const (
	deathChunkShift = 12
	deathChunkSize  = 1 << deathChunkShift
	deathChunkMask  = deathChunkSize - 1
)

type deathChunk [deathChunkSize]uint64

// recTable is one published version of the record columns. Append-only and
// prefix-stable: every version's visible prefix is immutable, versions
// share backing arrays, and a new header is published per appending
// commit. Slot indices are stable for the life of the accelerator.
type recTable struct {
	rects  []float64 // 2*k floats per slot: min coords then max coords
	starts []float64 // hot-dimension min, denormalized for the scan loops
	ends   []float64 // hot-dimension max
	ids    []uint64
	births []uint64      // commit epoch the slot became visible
	deaths []*deathChunk // atomic death epochs; 0 = live
	// box (2*k floats, hot extents unused; nil while empty) bounds every
	// rectangle ever appended. Compaction never shrinks it: Route reads
	// it, and an over-approximation only sends a query to the tree.
	box []float64
}

// slotList is one published version of a cell's slot list. The visible
// prefix slots[:len] is immutable; appends write beyond it into shared
// backing and publish a longer header. Slots are appended in commit order
// and compaction keeps that order, so births never decrease along a list.
// box (2*k floats, hot extents unused) bounds the slots' rectangles; it is
// immutable and shared until an appended rectangle grows it.
type slotList struct {
	slots []uint32
	box   []float64
}

// Mode selects the hybrid routing policy; see Accel.Route.
type Mode int32

const (
	// ModeAuto routes each query by its shape (route.go).
	ModeAuto Mode = iota
	// ModeAlways routes every eligible query through the accelerator
	// (degraded accelerators still fall back to the tree).
	ModeAlways
	// ModeOff never routes; the accelerator is maintained but unused.
	ModeOff
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeAlways:
		return "always"
	case ModeOff:
		return "off"
	default:
		return fmt.Sprintf("Mode(%d)", int32(m))
	}
}

// ParseMode resolves the -hybrid flag spelling of a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "always":
		return ModeAlways, nil
	case "off":
		return ModeOff, nil
	default:
		return 0, fmt.Errorf("accel: unknown hybrid mode %q (want off, always, auto)", s)
	}
}

// Config describes one accelerator.
type Config struct {
	// Dims is the dimensionality of the indexed rectangles.
	Dims int
	// Dim is the hot dimension the hierarchy partitions.
	Dim int
	// Levels is the partition depth m: the bottom level has 2^m cells.
	Levels int
	// Lo, Hi bound the hot-dimension domain. Out-of-domain values clamp
	// to the edge cells (exact but slower).
	Lo, Hi float64
	// Mode is the initial routing policy.
	Mode Mode
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Dims < 1 || c.Dims > 8 {
		return fmt.Errorf("accel: Dims %d outside [1, 8]", c.Dims)
	}
	if c.Dim < 0 || c.Dim >= c.Dims {
		return fmt.Errorf("accel: hot dimension %d outside [0, %d)", c.Dim, c.Dims)
	}
	if c.Levels < 1 || c.Levels > 16 {
		return fmt.Errorf("accel: Levels %d outside [1, 16]", c.Levels)
	}
	if !(c.Lo < c.Hi) {
		return fmt.Errorf("accel: domain [%g, %g] is empty", c.Lo, c.Hi)
	}
	if c.Mode != ModeAuto && c.Mode != ModeAlways && c.Mode != ModeOff {
		return fmt.Errorf("accel: unknown mode %d", int32(c.Mode))
	}
	return nil
}

// staged is one buffered insert awaiting Commit.
type staged struct {
	rect []float64 // 2*k floats, owned copy
	id   uint64
}

// retire queues a cell list for compaction once the tree's GC floor
// reaches the stamping epoch.
type retire struct {
	list  *atomic.Pointer[slotList]
	epoch uint64
}

// Accel is the accelerator. Read methods are safe for concurrent lock-free
// use; the Stage*/Commit/Abort maintenance methods must be serialized by
// the owning tree's write lock.
type Accel struct {
	k      int
	dim    int
	levels int
	nCells uint32
	lo     float64
	hi     float64
	scale  float64 // nCells / (hi - lo)

	// recs is the published record-column header.
	recs atomic.Pointer[recTable]

	// covers and bounds are heap-indexed over the node hierarchy (root at
	// 1, bottom cell c at nCells+c, parent v>>1); origins is indexed by
	// bottom cell.
	covers  []atomic.Pointer[slotList]
	bounds  []atomic.Pointer[slotList]
	origins []atomic.Pointer[slotList]

	mode     Mode // the routing policy, fixed by New
	degraded atomic.Bool

	// Routing counters; see Route.
	routedAccel atomic.Uint64
	routedTree  atomic.Uint64

	// Writer state, guarded by the owning tree's write lock.
	pendIns []staged
	pendDel []uint64
	live    map[uint64]uint32
	retired []retire
	// nLive publishes len(live) to Stats, which runs without the lock.
	nLive atomic.Int64
}

// New creates an empty accelerator.
func New(cfg Config) (*Accel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := uint32(1) << cfg.Levels
	a := &Accel{
		k:       cfg.Dims,
		dim:     cfg.Dim,
		levels:  cfg.Levels,
		nCells:  n,
		lo:      cfg.Lo,
		hi:      cfg.Hi,
		scale:   float64(n) / (cfg.Hi - cfg.Lo),
		covers:  make([]atomic.Pointer[slotList], 2*n),
		bounds:  make([]atomic.Pointer[slotList], 2*n),
		origins: make([]atomic.Pointer[slotList], n),
		live:    make(map[uint64]uint32),
		mode:    cfg.Mode,
	}
	a.recs.Store(&recTable{})
	return a, nil
}

// Dim reports the hot dimension.
func (a *Accel) Dim() int { return a.dim }

// Degrade permanently disables routing: every future query goes to the
// tree. Used when the accelerator's one-rect-per-ID model cannot represent
// the tree's contents (duplicate record IDs); the tree remains the source
// of truth, so degrading is always safe.
func (a *Accel) Degrade() {
	a.degraded.Store(true)
	// Frozen state serves no reader; drop the writer-side buffers.
	a.pendIns, a.pendDel, a.retired = nil, nil, nil
	a.live = nil
	a.nLive.Store(0)
}

// Degraded reports whether routing is permanently disabled.
func (a *Accel) Degraded() bool { return a.degraded.Load() }

// cellOf maps a hot-dimension value to its bottom cell, clamping
// out-of-domain values to the edge cells. Monotone: v <= w implies
// cellOf(v) <= cellOf(w), which the comparison-free covers proof and the
// candidate-completeness arguments rely on.
func (a *Accel) cellOf(v float64) uint32 {
	f := (v - a.lo) * a.scale
	if !(f > 0) { // also catches NaN defensively
		return 0
	}
	if f >= float64(a.nCells) {
		return a.nCells - 1
	}
	return uint32(f)
}

// nodeRun returns the bottom-cell run [first, last] covered by heap node v.
func (a *Accel) nodeRun(v uint32) (first, last uint32) {
	shift := uint(a.levels - (bits.Len32(v) - 1))
	first = v<<shift - a.nCells
	last = first + 1<<shift - 1
	return first, last
}

// decompose visits the canonical segment-tree cover of the cell range
// [ca, cb]: at most two nodes per level, pairwise disjoint, tiling the
// range exactly. bound reports whether the node's run contains ca or cb
// (the verified end nodes); all other assigned nodes are comparison-free
// covers nodes.
func (a *Accel) decompose(ca, cb uint32, fn func(v uint32, bound bool)) {
	assign := func(v uint32) {
		first, last := a.nodeRun(v)
		fn(v, first == ca || last == cb)
	}
	l := ca + a.nCells
	r := cb + 1 + a.nCells
	for l < r {
		if l&1 == 1 {
			assign(l)
			l++
		}
		if r&1 == 1 {
			r--
			assign(r)
		}
		l >>= 1
		r >>= 1
	}
}

// StageInsert buffers one insert for the next Commit. rect is copied; the
// caller keeps ownership. Must hold the owning tree's write lock.
func (a *Accel) StageInsert(r geom.Rect, id uint64) {
	if a.degraded.Load() {
		return
	}
	flat := make([]float64, 2*a.k)
	copy(flat, r.Min)
	copy(flat[a.k:], r.Max)
	a.pendIns = append(a.pendIns, staged{rect: flat, id: id})
}

// StageDelete buffers one whole-record delete for the next Commit. Must
// hold the owning tree's write lock.
func (a *Accel) StageDelete(id uint64) {
	if a.degraded.Load() {
		return
	}
	a.pendDel = append(a.pendDel, uint64(id))
}

// Abort drops the staged operations of a failed tree operation. The
// applied state is untouched — staging never mutates published data — so
// no undo is needed. Must hold the owning tree's write lock.
func (a *Accel) Abort() {
	a.pendIns = a.pendIns[:0]
	a.pendDel = a.pendDel[:0]
}

// Commit applies the staged operations as the given commit epoch and
// publishes them. The owning tree calls this inside its write bracket,
// before publishing its own new state, so any reader that can pin newEpoch
// already sees the matching accelerator contents. minEpoch is the tree's
// epoch-GC floor (no live snapshot is pinned below it): cell lists retired
// at or below it are compacted now. Must hold the owning tree's write
// lock.
func (a *Accel) Commit(newEpoch, minEpoch uint64) {
	if a.degraded.Load() {
		return
	}
	t := a.recs.Load()

	// Deletes: stamp the death epoch and queue the slot's cells for
	// compaction once no snapshot below newEpoch survives. An ID the
	// accelerator does not hold (a no-op or hint-mismatched tree delete)
	// is skipped — the tree removed nothing the accelerator reported.
	for _, id := range a.pendDel {
		slot, ok := a.live[id]
		if !ok {
			continue
		}
		delete(a.live, id)
		chunk := t.deaths[slot>>deathChunkShift]
		atomic.StoreUint64(&chunk[slot&deathChunkMask], newEpoch)
		ca := a.cellOf(t.starts[slot])
		cb := a.cellOf(t.ends[slot])
		a.decompose(ca, cb, func(v uint32, bound bool) {
			if bound {
				a.retired = append(a.retired, retire{list: &a.bounds[v], epoch: newEpoch})
			} else {
				a.retired = append(a.retired, retire{list: &a.covers[v], epoch: newEpoch})
			}
		})
		a.retired = append(a.retired, retire{list: &a.origins[ca], epoch: newEpoch})
	}
	a.pendDel = a.pendDel[:0]

	// Inserts. A reused live ID breaks the one-rect-per-ID model: the
	// tree now holds several independent portions under the ID, which the
	// flat slabs cannot answer intersection queries for. Degrade — the
	// tree keeps serving every query exactly.
	for i := range a.pendIns {
		if _, dup := a.live[a.pendIns[i].id]; dup {
			a.Degrade()
			return
		}
		slot := uint32(len(t.ids))
		nt := &recTable{
			rects:  append(t.rects, a.pendIns[i].rect...),
			starts: append(t.starts, a.pendIns[i].rect[a.dim]),
			ends:   append(t.ends, a.pendIns[i].rect[a.k+a.dim]),
			ids:    append(t.ids, a.pendIns[i].id),
			births: append(t.births, newEpoch),
			deaths: t.deaths,
			box:    a.growBox(t.box, a.pendIns[i].rect),
		}
		if int(slot>>deathChunkShift) == len(nt.deaths) {
			nt.deaths = append(nt.deaths, new(deathChunk))
		}
		t = nt
		a.live[a.pendIns[i].id] = slot
		rect := a.pendIns[i].rect // an owned copy, never edited: a box may alias it
		ca := a.cellOf(t.starts[slot])
		cb := a.cellOf(t.ends[slot])
		a.decompose(ca, cb, func(v uint32, bound bool) {
			if bound {
				a.appendSlot(&a.bounds[v], slot, rect)
			} else {
				a.appendSlot(&a.covers[v], slot, rect)
			}
		})
		a.appendSlot(&a.origins[ca], slot, rect)
	}
	a.pendIns = a.pendIns[:0]
	a.recs.Store(t)
	a.nLive.Store(int64(len(a.live)))

	a.drainRetired(t, minEpoch)
}

// appendSlot publishes list ∪ {slot}: in place beyond the visible length
// while capacity lasts (the immutable prefix is untouched), into fresh
// backing otherwise. Readers holding older headers keep their shorter
// immutable view either way. rect is slot's rectangle.
func (a *Accel) appendSlot(p *atomic.Pointer[slotList], slot uint32, rect []float64) {
	cur := p.Load()
	if cur == nil {
		s := make([]uint32, 1, 8)
		s[0] = slot
		p.Store(&slotList{slots: s, box: rect})
		return
	}
	n := len(cur.slots)
	var s []uint32
	if n < cap(cur.slots) {
		s = cur.slots[:n+1]
	} else {
		s = make([]uint32, n+1, 2*(n+1))
		copy(s, cur.slots)
	}
	s[n] = slot
	p.Store(&slotList{slots: s, box: a.growBox(cur.box, rect)})
}

// growBox returns box ∪ r outside the hot dimension, the only extents a box
// is read for: r for a nil box, box itself when r adds nothing, else a
// fresh box, so published boxes are never edited.
func (a *Accel) growBox(box, r []float64) []float64 {
	k := a.k
	if box == nil {
		return r
	}
	for i := 0; i < k; i++ {
		if i != a.dim && (r[i] < box[i] || r[k+i] > box[k+i]) {
			g := make([]float64, 2*k)
			for j := 0; j < k; j++ {
				g[j], g[k+j] = min(box[j], r[j]), max(box[k+j], r[k+j])
			}
			return g
		}
	}
	return box
}

// drainRetired compacts every cell list whose retirement epoch the GC
// floor has reached: dead slots with death <= minEpoch are invisible to
// every live and future snapshot, so filtering them out of a fresh backing
// array (shared backing is never edited under readers) changes no answer.
func (a *Accel) drainRetired(t *recTable, minEpoch uint64) {
	i := 0
	for i < len(a.retired) && a.retired[i].epoch <= minEpoch {
		a.compact(t, a.retired[i].list, minEpoch)
		i++
	}
	if i > 0 {
		n := copy(a.retired, a.retired[i:])
		a.retired = a.retired[:n]
	}
}

// compact republishes a cell list without the slots dead at or below
// minEpoch, with the box recomputed over the slots it keeps.
func (a *Accel) compact(t *recTable, p *atomic.Pointer[slotList], minEpoch uint64) {
	cur := p.Load()
	if cur == nil {
		return
	}
	keep := cur.slots[:0:0]
	var box []float64
	for _, s := range cur.slots {
		chunk := t.deaths[s>>deathChunkShift]
		if d := atomic.LoadUint64(&chunk[s&deathChunkMask]); d != 0 && d <= minEpoch {
			continue
		}
		keep = append(keep, s)
		off := int(s) * 2 * a.k
		box = a.growBox(box, t.rects[off:off+2*a.k:off+2*a.k])
	}
	if len(keep) == 0 {
		p.Store(nil)
	} else if len(keep) < len(cur.slots) {
		p.Store(&slotList{slots: keep, box: box})
	}
}

// CheckBirths verifies the invariant the comparison-free count relies on:
// births never decrease along any slot list.
func (a *Accel) CheckBirths() error {
	t := a.recs.Load()
	for _, lists := range [][]atomic.Pointer[slotList]{a.covers, a.bounds, a.origins} {
		for i := range lists {
			l := lists[i].Load()
			for j := 1; l != nil && j < len(l.slots) && int(l.slots[j]) < len(t.births); j++ {
				if t.births[l.slots[j]] < t.births[l.slots[j-1]] {
					return fmt.Errorf("accel: births decrease along a slot list at position %d", j)
				}
			}
		}
	}
	return nil
}

// Stats is a point-in-time snapshot of accelerator occupancy and routing
// counters.
type Stats struct {
	// Dim is the hot dimension; Levels the partition depth.
	Dim    int `json:"dim"`
	Levels int `json:"levels"`
	// Slots is the total record slots ever allocated; Live the currently
	// visible records; Staged the operations awaiting commit.
	Slots int `json:"slots"`
	Live  int `json:"live"`
	// Degraded reports whether routing is permanently disabled.
	Degraded bool `json:"degraded"`
	// Routing counters: queries answered by the accelerator, and queries
	// sent to the tree while an accelerator was attached.
	RoutedAccel uint64 `json:"routed_accel"`
	RoutedTree  uint64 `json:"routed_tree"`
	// Probes is always 0: routing never sends a query to the side it
	// rejected. Kept for callers that read it.
	Probes uint64 `json:"probes"`
}

// Stats returns current counters. Safe to call concurrently with readers
// and the writer; Live and Slots may lag one commit when read without the
// tree's write lock.
func (a *Accel) Stats() Stats {
	t := a.recs.Load()
	return Stats{
		Dim:         a.dim,
		Levels:      a.levels,
		Slots:       len(t.ids),
		Live:        int(a.nLive.Load()),
		Degraded:    a.degraded.Load(),
		RoutedAccel: a.routedAccel.Load(),
		RoutedTree:  a.routedTree.Load(),
	}
}
