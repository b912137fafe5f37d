// Package skeleton provides distribution prediction for skeleton indexes
// (Section 4): when the input distribution is unknown but tuples arrive in
// random order, the first T tuples are kept in memory, per-dimension
// histograms are computed from them, a skeleton index is constructed from
// those histograms, and the sampled plus subsequent tuples are inserted
// into it. The paper found T between 5% and 10% of the expected input to
// work well and uses 10,000 tuples in its experiments.
package skeleton

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"segidx/internal/accel"
	"segidx/internal/buffer"
	"segidx/internal/core"
	"segidx/internal/geom"
	"segidx/internal/histogram"
	"segidx/internal/node"
	"segidx/internal/store"
)

// DefaultBins is the per-dimension histogram resolution used for
// prediction.
const DefaultBins = 100

// Predictor defers skeleton construction until a sample of the input has
// been observed. It is not an engine of its own: every operation delegates
// to whichever core.Tree the tree pointer holds — a plain staging tree over
// a private in-memory store while the sample is being collected, the built
// skeleton over the caller's store afterwards — so answers, errors and
// epochs are the tree's in both phases. The only state the Predictor keeps
// itself is the arrival-order sample, which feeds the histograms and is
// drained into the skeleton when it is built.
//
// A Predictor is safe for concurrent use. Reads load the tree pointer and
// take no predictor lock; mu serializes the writes that must stay in step
// with the sample (inserts and deletes while sampling) and the one
// staging-to-skeleton swap.
type Predictor struct {
	cfg      core.Config
	st       store.Store
	domain   geom.Rect
	expected int
	sample   int
	bins     int

	tree     atomic.Pointer[core.Tree]
	sampling atomic.Bool // cleared, after tree is swapped, once the skeleton is built

	mu     sync.Mutex
	buf    []buffered             // the sample, in arrival order; nil once drained
	attach func(*core.Tree) error // optional hook run right after the skeleton is built
}

type buffered struct {
	rect geom.Rect
	id   node.RecordID
}

// New creates a predictor that samples sampleFraction of expectedTuples
// (clamped to [1, expectedTuples]) before building the skeleton over the
// given domain.
func New(cfg core.Config, st store.Store, domain geom.Rect, expectedTuples int, sampleFraction float64) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if expectedTuples < 1 {
		return nil, fmt.Errorf("skeleton: expected tuples %d < 1", expectedTuples)
	}
	if sampleFraction <= 0 || sampleFraction > 1 {
		return nil, fmt.Errorf("skeleton: sample fraction %g outside (0, 1]", sampleFraction)
	}
	if !domain.Valid() || domain.Dims() != cfg.Dims {
		return nil, errors.New("skeleton: invalid domain")
	}
	sample := int(float64(expectedTuples) * sampleFraction)
	if sample < 1 {
		sample = 1
	}
	// The staging tree is a plain R-Tree: nothing is known yet about the
	// distribution spanning records or coalescing would adapt to, and it
	// is discarded at the swap.
	scfg := cfg
	scfg.Spanning = false
	scfg.CoalesceEvery = 0
	staging, err := core.NewInMemory(scfg)
	if err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:      cfg,
		st:       st,
		domain:   domain.Clone(),
		expected: expectedTuples,
		sample:   sample,
		bins:     DefaultBins,
	}
	p.tree.Store(staging)
	p.sampling.Store(true)
	return p, nil
}

// Buffering reports whether the predictor is still collecting its sample.
func (p *Predictor) Buffering() bool { return p.sampling.Load() }

// Tree returns the tree operations currently delegate to: the staging tree
// while sampling, the built skeleton afterwards.
func (p *Predictor) Tree() *core.Tree { return p.tree.Load() }

// Insert adds a record, building the skeleton once the sample is complete.
func (p *Predictor) Insert(rect geom.Rect, id node.RecordID) error {
	if !p.sampling.Load() {
		return p.tree.Load().Insert(rect, id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.tree.Load().Insert(rect, id); err != nil || !p.sampling.Load() {
		return err
	}
	p.buf = append(p.buf, buffered{rect: rect.Clone(), id: id})
	if len(p.buf) >= p.sample {
		return p.buildLocked()
	}
	return nil
}

// buildLocked computes per-dimension histograms from the sample, constructs
// the skeleton, drains the sample into it in arrival order, and swaps it in
// for the staging tree. Readers keep answering from the staging tree, which
// holds the same records, until the one atomic store. The caller must hold
// p.mu.
func (p *Predictor) buildLocked() error {
	hists := make([]*histogram.Histogram, p.cfg.Dims)
	for d := 0; d < p.cfg.Dims; d++ {
		h, err := histogram.New(p.domain.Min[d], p.domain.Max[d], p.bins)
		if err != nil {
			return err
		}
		for _, b := range p.buf {
			h.AddInterval(b.rect.Min[d], b.rect.Max[d])
		}
		hists[d] = h
	}
	tree, err := core.NewSkeleton(p.cfg, p.st, core.Estimate{
		Tuples: p.expected,
		Domain: p.domain,
		Hists:  hists,
	})
	if err != nil {
		return err
	}
	// The attach hook runs before the sample drains so sidecars observe
	// the drained inserts through the tree's normal write path.
	if p.attach != nil {
		if err := p.attach(tree); err != nil {
			return err
		}
	}
	for _, b := range p.buf {
		if err := tree.Insert(b.rect, b.id); err != nil {
			return err
		}
	}
	staging := p.tree.Load()
	tree.SetFlushEpoch(staging.FlushEpoch())
	// The swap counts as one commit on the staging tree's scale: results
	// cached under the staging epoch report whole rectangles where the
	// skeleton may report cut portions, and the epoch must never run
	// backwards under a reader.
	tree.AdvanceCommitEpoch(staging.CommitEpoch() + 1)
	p.tree.Store(tree)
	p.sampling.Store(false)
	p.buf = nil
	return nil
}

// SetAttach registers a hook run on the tree as soon as the skeleton is
// built, before the sample drains into it — the facade uses it to attach a
// stab accelerator. Must be called before the sample completes (in
// practice: before any Insert).
func (p *Predictor) SetAttach(fn func(*core.Tree) error) {
	p.mu.Lock()
	p.attach = fn
	p.mu.Unlock()
}

// SetFlushEpoch stamps the current tree with a forest flush epoch (see
// core.Tree.SetFlushEpoch); the skeleton inherits the staging tree's stamp
// when it is built.
func (p *Predictor) SetFlushEpoch(e uint64) {
	p.mu.Lock()
	p.tree.Load().SetFlushEpoch(e)
	p.mu.Unlock()
}

// Finalize forces skeleton construction from whatever sample has been
// collected (building a uniform skeleton if nothing was sampled). Useful
// when the input ends before the sample target is reached.
func (p *Predictor) Finalize() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.sampling.Load() {
		return nil
	}
	return p.buildLocked()
}

// deleteSampled runs one delete on the current tree and, while sampling,
// drops the sample entries the staging tree removed (the ones drop picks),
// so the drain rebuilds exactly the staging tree's contents.
func (p *Predictor) deleteSampled(del func(*core.Tree) (int, error), drop func(buffered) bool) (int, error) {
	if !p.sampling.Load() {
		return del(p.tree.Load())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n, err := del(p.tree.Load())
	if err != nil || n == 0 || !p.sampling.Load() {
		return n, err
	}
	kept := p.buf[:0]
	for _, b := range p.buf {
		if !drop(b) {
			kept = append(kept, b)
		}
	}
	p.buf = kept
	return n, nil
}

// Delete removes the record with the given ID.
func (p *Predictor) Delete(id node.RecordID, hint geom.Rect) (int, error) {
	return p.deleteSampled(
		func(t *core.Tree) (int, error) { return t.Delete(id, hint) },
		func(b buffered) bool { return b.id == id && b.rect.Intersects(hint) })
}

// DeleteWhere removes every record intersecting query and satisfying pred.
func (p *Predictor) DeleteWhere(query geom.Rect, pred func(core.Entry) bool) (int, error) {
	// A matched record loses all of its rectangles, including ones outside
	// query, so the sample mirror works from the IDs the predicate accepted.
	matched := make(map[node.RecordID]bool)
	return p.deleteSampled(
		func(t *core.Tree) (int, error) {
			return t.DeleteWhere(query, func(e core.Entry) bool {
				ok := pred == nil || pred(e)
				if ok {
					matched[e.ID] = true
				}
				return ok
			})
		},
		func(b buffered) bool { return matched[b.id] })
}

// Flush persists the index; it finalizes the skeleton first.
func (p *Predictor) Flush() error {
	if err := p.Finalize(); err != nil {
		return err
	}
	return p.tree.Load().Flush()
}

// Everything else is the current tree's.

func (p *Predictor) Search(q geom.Rect) ([]core.Entry, error) { return p.tree.Load().Search(q) }
func (p *Predictor) SearchFunc(q geom.Rect, fn func(core.Entry) bool) error {
	return p.tree.Load().SearchFunc(q, fn)
}
func (p *Predictor) SearchWithin(q geom.Rect) ([]core.Entry, error) {
	return p.tree.Load().SearchWithin(q)
}
func (p *Predictor) SearchContaining(q geom.Rect) ([]core.Entry, error) {
	return p.tree.Load().SearchContaining(q)
}
func (p *Predictor) SearchContainingFunc(q geom.Rect, fn func(core.Entry) bool) error {
	return p.tree.Load().SearchContainingFunc(q, fn)
}
func (p *Predictor) Count(q geom.Rect) (int, error) { return p.tree.Load().Count(q) }
func (p *Predictor) VisitPortions(fn func(level int, e core.Entry) bool) error {
	return p.tree.Load().VisitPortions(fn)
}
func (p *Predictor) Len() int                       { return p.tree.Load().Len() }
func (p *Predictor) Height() int                    { return p.tree.Load().Height() }
func (p *Predictor) NodeCount() int                 { return p.tree.Load().NodeCount() }
func (p *Predictor) Stats() core.Stats              { return p.tree.Load().Stats() }
func (p *Predictor) PoolStats() buffer.Stats        { return p.tree.Load().PoolStats() }
func (p *Predictor) AccelStats() []accel.Stats      { return p.tree.Load().AccelStats() }
func (p *Predictor) CheckInvariants() error         { return p.tree.Load().CheckInvariants() }
func (p *Predictor) Analyze() (*core.Report, error) { return p.tree.Load().Analyze() }
func (p *Predictor) Snapshot() core.View            { return p.tree.Load().Snapshot() }
func (p *Predictor) CommitEpoch() uint64            { return p.tree.Load().CommitEpoch() }
