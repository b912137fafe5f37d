package core

import (
	"errors"
	"time"

	"segidx/internal/accel"
	"segidx/internal/geom"
	"segidx/internal/node"
)

// Sidecar integration: an optional HINT-style stab accelerator
// (internal/accel) the tree keeps epoch-consistent with its own MVCC
// state and consults for containing-style and intersection queries
// through an adaptive cost gate.
//
// Synchronization rides the existing write bracket: Insert stages the
// original rectangle and deleteMatching stages each removed ID, publishOp
// commits the staging under the same new epoch immediately before the
// tree state becomes visible, and abortOp drops it. A reader that pins
// epoch E therefore sees exactly the accelerator contents of commit E —
// records are filtered by birth <= E < death inside the accelerator — no
// matter how many commits race past the pinned snapshot.

// sidecarRef binds an attached accelerator to the epoch it was seeded at.
// Snapshots pinned before the attach (st.epoch < attachEpoch) must not
// consult it: the seed's birth epoch would hide every record from them.
type sidecarRef struct {
	sc          *accel.Accel
	attachEpoch uint64
}

// AttachStabAccel attaches a stab accelerator and seeds it with the
// tree's current contents. At most one accelerator can be attached, and
// only ever before the facade publishes the index, so queries never race
// the attachment itself. Contents the accelerator's one-rectangle-per-ID
// model cannot represent — pre-cut portions of a reopened spanning tree,
// or duplicate record IDs from a bulk load — attach in permanently
// degraded mode: the accelerator stays dormant and every query runs on
// the tree.
//
// With an accelerator attached, queries it answers report each record's
// full original rectangle; the tree's own traversals may report a cut
// record as the narrower union of the portions intersecting the query.
// Record ID sets are always identical.
func (t *Tree) AttachStabAccel(a *accel.Accel) error {
	if a == nil {
		return errors.New("core: nil stab accelerator")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sidecar.Load() != nil {
		return errors.New("core: stab accelerator already attached")
	}

	type agg struct {
		min, max []float64
		portions int
	}
	seed := make(map[node.RecordID]*agg)
	multi := false
	err := t.VisitPortions(func(_ int, e Entry) bool {
		g, ok := seed[e.ID]
		if !ok {
			seed[e.ID] = &agg{
				min:      append([]float64(nil), e.Rect.Min...),
				max:      append([]float64(nil), e.Rect.Max...),
				portions: 1,
			}
			return true
		}
		g.portions++
		multi = true
		for d := range g.min {
			if e.Rect.Min[d] < g.min[d] {
				g.min[d] = e.Rect.Min[d]
			}
			if e.Rect.Max[d] > g.max[d] {
				g.max[d] = e.Rect.Max[d]
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	epoch := t.state.Load().epoch
	if multi {
		a.Degrade()
	} else {
		for id, g := range seed {
			a.StageInsert(geom.Rect{Min: g.min, Max: g.max}, uint64(id))
		}
		a.Commit(epoch, epoch)
	}
	t.sidecar.Store(&sidecarRef{sc: a, attachEpoch: epoch})
	return nil
}

// AccelStats reports the attached accelerator's counters (nil when none
// is attached).
func (t *Tree) AccelStats() []accel.Stats {
	if ref := t.sidecar.Load(); ref != nil {
		return []accel.Stats{ref.sc.Stats()}
	}
	return nil
}

// stageSidecarInsert mirrors one Insert into the sidecar staging buffer.
// Called inside the write bracket, after beginOp.
func (t *Tree) stageSidecarInsert(rect geom.Rect, id node.RecordID) {
	if ref := t.sidecar.Load(); ref != nil {
		ref.sc.StageInsert(rect, uint64(id))
	}
}

// stageSidecarDelete mirrors one whole-record removal into the sidecar
// staging buffer. Called inside the write bracket.
func (t *Tree) stageSidecarDelete(id node.RecordID) {
	if ref := t.sidecar.Load(); ref != nil {
		ref.sc.StageDelete(uint64(id))
	}
}

// sidecarFor returns the accelerator the pinned state may consult, or nil.
//
//seglint:hotpath
func (t *Tree) sidecarFor(st *treeState) *accel.Accel {
	ref := t.sidecar.Load()
	if ref == nil || st.epoch < ref.attachEpoch {
		return nil
	}
	return ref.sc
}

// routed answers one query through the accelerator when the cost gate
// elects it and through the tree descent otherwise; either side's latency
// feeds the gate. contain selects the SearchContaining class (stabs
// included, reported through emit or, on the tree side, emitContaining)
// over the intersection class (Search and Count).
//
//seglint:hotpath
func (t *Tree) routed(qc *queryCtx, query geom.Rect, contain bool, body nodeBody, emit accel.VisitFunc) error {
	a := t.sidecarFor(qc.st)
	if a == nil {
		return t.treeSide(qc, query, contain, body)
	}
	var viaAccel bool
	if contain {
		viaAccel = a.RouteContain()
	} else {
		viaAccel = a.RouteRange(query.Min, query.Max)
	}
	start := time.Now()
	var err error
	switch {
	case !viaAccel:
		err = t.treeSide(qc, query, contain, body)
	case contain:
		a.ContainVisit(qc.st.epoch, query.Min, query.Max, emit)
	default:
		a.RangeVisit(qc.st.epoch, query.Min, query.Max, emit)
	}
	ns := time.Since(start).Nanoseconds()
	if contain {
		a.ObserveContain(viaAccel, ns)
	} else {
		a.ObserveRange(viaAccel, ns)
	}
	return err
}

// treeSide is the tree's half of routed: the descent, then for the
// containing class the report of the covers it accumulated.
//
//seglint:hotpath
func (t *Tree) treeSide(qc *queryCtx, query geom.Rect, contain bool, body nodeBody) error {
	err := t.descend(qc, query, body)
	if contain && err == nil {
		qc.emitContaining(query)
	}
	return err
}
