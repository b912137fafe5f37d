package core

import (
	"segidx/internal/geom"
	"segidx/internal/node"
)

// Spanning records and branches share the bytes of a non-leaf page
// (Section 2.1.2). Branches own a reserved fraction of the page
// (Config.BranchReserve); spanning records may fill every remaining free
// byte, and yield space back on demand:
//
//   - a spanning insert that does not fit evicts resident spanning records
//     shorter than the incoming one (margin order), or is rejected so the
//     record continues its descent and is stored lower in the tree;
//   - a branch insert always succeeds below the branch reservation,
//     evicting spanning records as needed.
//
// Eviction enqueues the displaced record for reinsertion; because a record
// only ever displaces strictly shorter ones, displacement chains are
// monotone and terminate. The net effect is the paper's intent: the
// longest intervals percolate to (and stay in) non-leaf nodes, the page
// never splits because of spanning records, and the skeleton's regular
// decomposition survives arbitrary interval-length skew.

// margin orders records by "length": the sum of extents over all
// dimensions, which ranks both line segments and rectangles sensibly.
func recMargin(r geom.Rect) float64 { return r.Margin() }

// shortestRecord returns the index of the spanning record with the
// smallest margin, or -1 when the node holds none.
func shortestRecord(n *node.Node) int {
	best := -1
	bestM := 0.0
	for i := range n.Records {
		m := recMargin(n.Records[i].Rect)
		if best < 0 || m < bestM {
			best, bestM = i, m
		}
	}
	return best
}

// evictRecord removes the record at index i and queues it for
// reinsertion.
func (o *op) evictRecord(n *node.Node, i int) {
	rec := n.Records[i]
	n.RemoveRecord(i)
	o.t.stats.Demotions++
	o.enqueue(rec.Rect, rec.ID)
}

// spanningVictim decides how rec can be stored on n: ok is false when it
// cannot (the page is full and no resident is strictly shorter); otherwise
// evict is the resident to displace first, or -1 when rec fits as n stands.
// It reads n only, so a descent can ask before it clones the node.
func (o *op) spanningVictim(n *node.Node, rec node.Record) (evict int, ok bool) {
	t := o.t
	if t.codec.UsedBytes(n)+t.codec.RecordBytes() <= t.pageBytes(n.Level) {
		return -1, true
	}
	si := shortestRecord(n)
	if si < 0 || recMargin(n.Records[si].Rect) >= recMargin(rec.Rect) {
		return -1, false
	}
	return si, true
}

// placeSpanning tries to store a spanning record on n, evicting strictly
// shorter residents to make byte room. Reports whether the record was
// placed; a record spanningVictim refuses leaves n untouched.
func (o *op) placeSpanning(n *node.Node, rec node.Record) bool {
	for {
		si, ok := o.spanningVictim(n, rec)
		if !ok {
			return false
		}
		if si < 0 {
			n.Records = append(n.Records, rec)
			return true
		}
		o.evictRecord(n, si)
	}
}

// addBranch installs a branch on n, evicting spanning records as needed;
// branches have absolute priority on their reserved space. The caller is
// responsible for splitting when the branch count exceeds the reservation.
func (o *op) addBranch(n *node.Node, b node.Branch) {
	t := o.t
	pageBytes := t.pageBytes(n.Level)
	need := t.codec.BranchBytes()
	for t.codec.UsedBytes(n)+need > pageBytes && len(n.Records) > 0 {
		o.evictRecord(n, shortestRecord(n))
	}
	n.Branches = append(n.Branches, b)
}

// shedToFit evicts the shortest spanning records until the node's entries
// fit its page (used after split carry-over).
func (o *op) shedToFit(n *node.Node) {
	for !o.t.fitsBytes(n) && len(n.Records) > 0 && !n.IsLeaf() {
		o.evictRecord(n, shortestRecord(n))
	}
}
