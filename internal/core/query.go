package core

import (
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
)

// queryCtx is the per-query scratch state of the read path: the traversal
// stack, the dedup set, the result arena, and the snapshot registration
// slot. Contexts are recycled through Tree.qctxPool so a steady-state query
// performs no heap allocation: every buffer is truncated (not freed) on
// release and the maps retain their buckets across the clear idiom. Batch workers draw from the same pool, so N
// concurrent workers settle on N contexts.
//
// A context is single-query state. Direct Tree queries register the
// context's own snapshot slot for the query's duration (acquireRead);
// queries through an explicit View run under the view's registration and
// leave the slot free (see beginRead).
type queryCtx struct {
	// stack is the DFS work list of pages still to visit.
	stack []page.ID

	// st is the pinned state the query reads — every fetch resolves at
	// its epoch, and the registered epoch keeps the versions resolved there
	// reachable with no page pinned — and slot is the context's own
	// registry cell (allocated once, registered only for direct queries).
	st   *treeState
	slot *snapSlot

	// Dedup set keyed by RecordID: a bitmap for small IDs with a map
	// spilling the rest. touched lists the dirty bitmap words so reset
	// costs O(results), not O(bitmap).
	bits    []uint64
	touched []uint32
	over    map[node.RecordID]struct{}

	// Result arena: deduplicated view entries collected during the
	// traversal, the running Count, plus the float backing used by
	// accumulation passes (SearchContaining unions portions here in place).
	entries  []Entry
	count    int
	coverOff map[node.RecordID]int
	coverIDs []node.RecordID
	coverBuf []float64

	// fn is the callback the current query reports entries to: the
	// caller's for the streaming queries, collectFn for Search answered by
	// the sidecar.
	fn func(Entry) bool

	// Sidecar adapters: persistent closures built once per context
	// (newQueryCtx) so routing a query through the accelerator allocates
	// nothing. accelEmit forwards each hit to fn, accelCountFn bumps
	// count, and collectFn appends to entries.
	accelEmit    func(min, max []float64, id uint64) bool
	collectFn    func(Entry) bool
	accelCountFn func(min, max []float64, id uint64) bool
}

// dedupBitmapWords caps the bitmap at 1<<20 record IDs (128 KiB); IDs at
// or above the cap go to the overflow map.
const dedupBitmapWords = 1 << 14

func newQueryCtx() *queryCtx {
	qc := &queryCtx{
		over:     make(map[node.RecordID]struct{}),
		coverOff: make(map[node.RecordID]int),
	}
	qc.accelEmit = func(min, max []float64, id uint64) bool {
		return qc.fn(Entry{Rect: geom.Rect{Min: min, Max: max}, ID: node.RecordID(id)})
	}
	qc.collectFn = func(e Entry) bool {
		qc.entries = append(qc.entries, e)
		return true
	}
	qc.accelCountFn = func(min, max []float64, id uint64) bool {
		qc.count++
		return true
	}
	return qc
}

// getQctx returns a recycled (or fresh) query context. No lock is needed:
// the context must be handed back through releaseQctx when the query ends.
func (t *Tree) getQctx() *queryCtx {
	if v := t.qctxPool.Get(); v != nil {
		return v.(*queryCtx)
	}
	return newQueryCtx()
}

// releaseQctx unregisters the context's snapshot slot (if this query
// registered it), resets the context, recycles it, and gives the releasing
// reader a chance to sweep version garbage its release may have unpinned.
func (t *Tree) releaseQctx(qc *queryCtx) {
	registered := qc.slot != nil && qc.slot.e.Load() != 0
	if registered {
		qc.slot.e.Store(0)
	}
	qc.stack = qc.stack[:0]
	qc.resetDedup()
	qc.entries = qc.entries[:0]
	qc.resetCovers()
	qc.fn = nil
	qc.count = 0
	qc.st = nil
	t.qctxPool.Put(qc)
	if registered {
		t.maybeCollect()
	}
}

// markSeen records id in the dedup set and reports whether it was already
// present.
//
//seglint:hotpath
func (qc *queryCtx) markSeen(id node.RecordID) bool {
	if w := uint64(id) / 64; w < dedupBitmapWords {
		if int(w) >= len(qc.bits) {
			if int(w) < cap(qc.bits) {
				// The capacity region is all zeros: make zeroes it and
				// resetDedup restores every touched word.
				qc.bits = qc.bits[:w+1]
			} else {
				//seglint:allow hotalloc — doubling growth amortizes to zero across recycled contexts
				grown := make([]uint64, w+1, 2*(w+1))
				copy(grown, qc.bits)
				qc.bits = grown
			}
		}
		mask := uint64(1) << (uint64(id) % 64)
		if qc.bits[w]&mask != 0 {
			return true
		}
		if qc.bits[w] == 0 {
			qc.touched = append(qc.touched, uint32(w))
		}
		qc.bits[w] |= mask
		return false
	}
	if _, ok := qc.over[id]; ok {
		return true
	}
	qc.over[id] = struct{}{}
	return false
}

// resetDedup clears the dedup set in O(marked IDs).
func (qc *queryCtx) resetDedup() {
	for _, w := range qc.touched {
		qc.bits[w] = 0
	}
	qc.touched = qc.touched[:0]
	for id := range qc.over {
		delete(qc.over, id)
	}
}

// resetCovers clears the SearchContaining accumulation state.
func (qc *queryCtx) resetCovers() {
	for id := range qc.coverOff {
		delete(qc.coverOff, id)
	}
	qc.coverIDs = qc.coverIDs[:0]
	qc.coverBuf = qc.coverBuf[:0]
}
