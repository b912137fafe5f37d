package accel

import (
	"sort"
	"sync/atomic"
)

// VisitFunc receives one matching record. min and max alias the
// accelerator's flat column storage — valid only for the duration of the
// call; copy to retain. Return false to stop the traversal. A nil VisitFunc
// counts: the scans then load no ids, and no rectangles where a list's box
// already proves the match.
type VisitFunc func(min, max []float64, id uint64) bool

// read is one query's state. A record matches when min <= lim and max >=
// need in every dimension: lim, need are qmin, qmax for containment, qmax,
// qmin for intersection.
type read struct {
	t         *recTable
	epoch     uint64
	lim, need []float64
	fn        VisitFunc
	n         int  // matches reported so far
	stopped   bool // fn returned false
}

// ContainVisit streams every record, visible at the pinned snapshot
// epoch, whose rectangle contains [qmin, qmax] — the accelerator's answer
// to SearchContaining and Stab. Bottom-up: the leaf-to-root path of
// cellOf(qmin[dim]) holds every candidate, because a containing record's
// hot interval covers the stab point, so exactly one node of its
// canonical decomposition has the stab cell in its run and that node lies
// on the path. When the query is degenerate in the hot dimension (a true
// stab), candidates from covers lists skip the hot-dimension comparison
// entirely: the canonical cover's cell run bounds prove start < q < end
// through the monotonicity of cellOf. Returns the number of matches
// reported: all of them unless fn stopped the scan. Allocation-free; safe
// for concurrent lock-free use.
func (a *Accel) ContainVisit(epoch uint64, qmin, qmax []float64, fn VisitFunc) int {
	r := read{t: a.recs.Load(), epoch: epoch, lim: qmin, need: qmax, fn: fn}
	skipHot := -1
	if !(qmin[a.dim] < qmax[a.dim]) { // degenerate hot extent: covers lists are comparison-free
		skipHot = a.dim
	}
	for v := a.cellOf(qmin[a.dim]) + a.nCells; v >= 1; v >>= 1 {
		a.scan(&r, a.covers[v].Load(), skipHot, false)
		a.scan(&r, a.bounds[v].Load(), -1, false)
	}
	return r.n
}

// RangeVisit streams every record, visible at the pinned snapshot epoch,
// whose rectangle intersects [qmin, qmax] — the accelerator's answer to
// Search and Count. The result is assembled duplicate-free from two
// disjoint classes split on the record's hot start s against qa =
// qmin[dim]:
//
//   - s <= qa: exactly the containing-style stab at cellOf(qa). Covers
//     candidates on that path are emitted with no hot-dimension
//     comparison at all — the cell run bounds prove s < qa < e, which is
//     both the class predicate and the hot-dimension overlap.
//   - s > qa: the record's origin cell cellOf(s) lies in
//     [cellOf(qa), cellOf(qb)], so a scan of those origin lists, filtered
//     by s > qa and full intersection, finds each exactly once.
//
// Returns the number of matches reported: all of them unless fn stopped
// the scan. Allocation-free; safe for concurrent lock-free use.
func (a *Accel) RangeVisit(epoch uint64, qmin, qmax []float64, fn VisitFunc) int {
	r := read{t: a.recs.Load(), epoch: epoch, lim: qmax, need: qmin, fn: fn}
	ca := a.cellOf(qmin[a.dim])
	cb := a.cellOf(qmax[a.dim])
	for v := ca + a.nCells; v >= 1; v >>= 1 {
		a.scan(&r, a.covers[v].Load(), a.dim, false)
		a.scan(&r, a.bounds[v].Load(), -1, false)
	}
	for c := ca; c <= cb; c++ {
		a.scan(&r, a.origins[c].Load(), -1, true)
	}
	return r.n
}

// scan filters one slot list by snapshot visibility, the start-split
// predicate (start > need[dim] when originPart, else start <= need[dim],
// which for containment drops only non-matches), and the match bounds.
// skipHot names a dimension whose match — and split — the hierarchy
// already proved (or -1). The list's box can prove the other dimensions'
// matches, or rule out every slot.
func (a *Accel) scan(r *read, l *slotList, skipHot int, originPart bool) {
	if l == nil || r.stopped {
		return
	}
	miss, inside := a.classify(r, l.box)
	if miss {
		return
	}
	if inside && skipHot >= 0 && r.fn == nil { // nothing to compare or report; the general loop is ≈ 27 % slower here (DESIGN §12)
		r.n += r.countLive(l.slots)
		return
	}
	t, k, epoch, lim, need := r.t, a.k, r.epoch, r.lim, r.need
	limHot, needHot := lim[a.dim], need[a.dim]
slots:
	for _, s := range l.slots[:r.born(l.slots)] {
		chunk := t.deaths[s>>deathChunkShift]
		if d := atomic.LoadUint64(&chunk[s&deathChunkMask]); d != 0 && d <= epoch {
			continue
		}
		if skipHot < 0 {
			start := t.starts[s]
			if originPart != (start > needHot) || inside && (start > limHot || t.ends[s] < needHot) {
				continue
			}
		}
		off := int(s) * 2 * k
		for i := 0; !inside && i < k; i++ {
			if i != skipHot && (t.rects[off+i] > lim[i] || t.rects[off+k+i] < need[i]) {
				continue slots
			}
		}
		r.n++
		if r.fn != nil && !r.fn(t.rects[off:off+k:off+k], t.rects[off+k:off+2*k:off+2*k], t.ids[s]) {
			r.stopped = true
			return
		}
	}
}

// classify relates a list's box to the query over the non-hot
// dimensions: no slot can match (miss), or every slot matches (inside)
// because box max <= lim and box min >= need, and each slot's min <= max
// lies within the box. Neither: every slot needs comparing.
func (a *Accel) classify(r *read, box []float64) (miss, inside bool) {
	k, inside := a.k, true
	for i := 0; i < k; i++ {
		switch {
		case i == a.dim:
		case box[i] > r.lim[i] || box[k+i] < r.need[i]:
			return true, false
		case box[k+i] > r.lim[i] || box[i] < r.need[i]:
			inside = false
		}
	}
	return false, inside
}

// born returns the length of the list prefix born at or before the epoch:
// a binary search, because births never decrease along a list (see
// slotList). A list header can be newer than the column header; slots past
// the columns' visible prefix belong to younger epochs anyway.
func (r *read) born(slots []uint32) int {
	return sort.Search(len(slots), func(i int) bool {
		s := slots[i]
		return int(s) >= len(r.t.ids) || r.t.births[s] > r.epoch
	})
}

// countLive counts the slots visible at the epoch, for a list whose every
// visible slot is a match: one atomic death load per born slot.
func (r *read) countLive(slots []uint32) (n int) {
	for _, s := range slots[:r.born(slots)] {
		chunk := r.t.deaths[s>>deathChunkShift]
		if d := atomic.LoadUint64(&chunk[s&deathChunkMask]); d == 0 || d > r.epoch {
			n++
		}
	}
	return n
}
