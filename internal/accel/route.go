package accel

// Routing by shape. In auto mode a query runs on the accelerator only
// when it is narrow in the hot dimension and, in every other dimension,
// covers recTable.box, a grow-only bound of every rectangle the
// accelerator was ever given. Such a query needs no per-slot comparison
// outside the hot dimension: every list box lies inside an intersection,
// and a containment that wide can match only records spanning the whole
// extent, which the list boxes rule out wholesale. On any other shape the
// tree's descent prunes the other dimensions too and which side wins
// depends on the data (DESIGN §12), so the tree answers.
//
// The decision reads the query and one header: no clock, no measurement,
// no probe of the other side. The box never shrinks; an over-approximation
// only sends a query to the tree, and both sides answer identically.

// maxRangeWidthFrac is the guard on the query's hot extent: wider than
// this fraction of the hot domain, the origin-cell scan touches too much
// of the bottom level to win.
const maxRangeWidthFrac = 0.25

// Route decides whether the query [qmin, qmax] — a containment or an
// intersection — runs on the accelerator, and counts the decision in
// Stats. Safe for concurrent lock-free use.
func (a *Accel) Route(qmin, qmax []float64) bool {
	via := a.route(qmin, qmax)
	if via {
		a.routedAccel.Add(1)
	} else {
		a.routedTree.Add(1)
	}
	return via
}

func (a *Accel) route(qmin, qmax []float64) bool {
	if a.degraded.Load() {
		return false
	}
	switch a.mode {
	case ModeOff:
		return false
	case ModeAlways:
		return true
	}
	if (qmax[a.dim]-qmin[a.dim])*a.scale > maxRangeWidthFrac*float64(a.nCells) {
		return false
	}
	if box := a.recs.Load().box; box != nil { // nil: never given a rectangle, nothing to cover
		k := a.k
		for i := 0; i < k; i++ {
			if i != a.dim && (qmin[i] > box[i] || qmax[i] < box[k+i]) {
				return false
			}
		}
	}
	return true
}
