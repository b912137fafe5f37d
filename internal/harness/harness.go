// Package harness runs the paper's performance experiments (Section 5):
// build each of the four index types over a synthetic dataset, insert the
// whole dataset in random order, then sweep query rectangles of area 10⁶
// across the thirteen query aspect ratios, recording the average number of
// index nodes accessed per search — the paper's cost metric.
package harness

import (
	"fmt"
	"io"
	"time"

	"segidx"
	"segidx/internal/workload"
)

// Kind identifies one of the paper's four index types.
type Kind int

const (
	KindRTree Kind = iota
	KindSRTree
	KindSkeletonRTree
	KindSkeletonSRTree
	// KindPackedRTree is the static bulk-loaded R-Tree ([ROUS85]); not
	// part of the paper's comparison (it is the static method skeletons
	// are the dynamic alternative to) but available for the packing
	// ablation.
	KindPackedRTree
)

// AllKinds lists the four index types in the paper's presentation order.
func AllKinds() []Kind {
	return []Kind{KindRTree, KindSRTree, KindSkeletonRTree, KindSkeletonSRTree}
}

func (k Kind) String() string {
	switch k {
	case KindRTree:
		return "R-Tree"
	case KindSRTree:
		return "SR-Tree"
	case KindSkeletonRTree:
		return "Skeleton R-Tree"
	case KindSkeletonSRTree:
		return "Skeleton SR-Tree"
	case KindPackedRTree:
		return "Packed R-Tree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Marker is the plot marker for the kind.
func (k Kind) Marker() byte {
	switch k {
	case KindRTree:
		return 'r'
	case KindSRTree:
		return 's'
	case KindSkeletonRTree:
		return 'R'
	case KindSkeletonSRTree:
		return 'S'
	case KindPackedRTree:
		return 'p'
	default:
		return '?'
	}
}

// Spec describes one experiment. NewSpec supplies the paper's defaults.
type Spec struct {
	Name    string
	Dataset workload.Dataset
	Tuples  int
	Seed    uint64
	Kinds   []Kind

	QARs          []float64
	QueriesPerQAR int

	// Index configuration (paper defaults in NewSpec).
	LeafBytes     int
	Growth        int
	BranchReserve float64
	LeafPromotion bool

	// Skeleton configuration.
	PredictSample      int // tuples buffered for distribution prediction
	CoalesceEvery      int
	CoalesceCandidates int

	// CheckInvariants validates each index after its build (slower).
	CheckInvariants bool

	// ExtraOptions are appended to every build's option list (e.g. the
	// stab-accelerator options for the -accel showdown).
	ExtraOptions []segidx.Option
}

// NewSpec returns a Spec with the paper's experimental parameters: 1 KiB
// leaves doubling per level, 2/3 branch reserve, distribution prediction
// over the first 10,000 tuples (scaled down for small runs), coalescing
// every 1,000 insertions among the 10 least-modified leaves, 100 queries
// per QAR. The seed is 1991, the paper's year. The paper's claims do not
// hold on every seed: at 200 000 tuples, seed 4 breaks Graph 1's "no
// crossover" claim.
func NewSpec(name string, ds workload.Dataset, tuples int) Spec {
	sample := 10000
	if sample > tuples/2 {
		sample = tuples / 10
	}
	if sample < 1 {
		sample = 1
	}
	return Spec{
		Name:               name,
		Dataset:            ds,
		Tuples:             tuples,
		Seed:               1991,
		Kinds:              AllKinds(),
		QARs:               workload.QARs(),
		QueriesPerQAR:      workload.QueriesPerQAR,
		LeafBytes:          1024,
		Growth:             2,
		BranchReserve:      2.0 / 3.0,
		LeafPromotion:      true,
		PredictSample:      sample,
		CoalesceEvery:      1000,
		CoalesceCandidates: 10,
	}
}

// GraphSpec returns the spec reproducing one of the paper's graphs (1-6)
// or the omitted exponential-centroid rectangle runs (7-8) at the given
// tuple count (the paper plots 200K).
func GraphSpec(graph, tuples int) (Spec, error) {
	datasets := map[int]workload.Dataset{
		1: workload.I1, 2: workload.I2, 3: workload.I3, 4: workload.I4,
		5: workload.R1, 6: workload.R2, 7: workload.RE1, 8: workload.RE2,
	}
	ds, ok := datasets[graph]
	if !ok {
		return Spec{}, fmt.Errorf("harness: no graph %d (1-8)", graph)
	}
	name := fmt.Sprintf("Graph %d: %s, %d tuples", graph, ds.Describe(), tuples)
	if graph >= 7 {
		name = fmt.Sprintf("Extra %d: %s, %d tuples (omitted in the paper)", graph, ds.Describe(), tuples)
	}
	return NewSpec(name, ds, tuples), nil
}

// Point is one measurement: average nodes accessed per search at a QAR.
type Point struct {
	QAR      float64
	AvgNodes float64
}

// Curve is one index type's sweep.
type Curve struct {
	Kind   Kind
	Points []Point
}

// BuildInfo records per-index build statistics.
type BuildInfo struct {
	Kind            Kind
	Height          int
	Nodes           int
	SpanningRecords int
	Stats           segidx.Stats
	// Pool holds the buffer pool counters accumulated over the whole run
	// (build plus query sweep); the hit rate shows how well the working
	// set fit the pool budget.
	Pool      segidx.PoolStats
	BuildTime time.Duration
}

// Result holds a completed experiment.
type Result struct {
	Spec   Spec
	Curves []Curve
	Builds []BuildInfo
}

// Build constructs and fully loads one index of the given kind for the
// spec (bulk packing for KindPackedRTree, per-record inserts otherwise),
// returning the loaded index and the build wall time.
func Build(spec Spec, kind Kind) (*segidx.Index, time.Duration, error) {
	data := spec.Dataset.Generate(spec.Tuples, spec.Seed)
	if kind == KindPackedRTree {
		recs := make([]segidx.BulkRecord, len(data))
		for i, r := range data {
			recs[i] = segidx.BulkRecord{Rect: r, ID: segidx.RecordID(i + 1)}
		}
		opts := append([]segidx.Option{
			segidx.WithLeafNodeBytes(spec.LeafBytes),
			segidx.WithNodeGrowth(spec.Growth),
		}, spec.ExtraOptions...)
		start := time.Now()
		idx, err := segidx.BulkLoadRTree(recs, 1.0, opts...)
		if err != nil {
			return nil, 0, fmt.Errorf("harness: %v: %w", kind, err)
		}
		return idx, time.Since(start), nil
	}
	idx, err := buildIndex(spec, kind)
	if err != nil {
		return nil, 0, fmt.Errorf("harness: %v: %w", kind, err)
	}
	start := time.Now()
	for i, r := range data {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			idx.Close()
			return nil, 0, fmt.Errorf("harness: %v insert %d: %w", kind, i, err)
		}
	}
	return idx, time.Since(start), nil
}

// Run executes the experiment, writing progress lines to progress (may be
// nil).
func Run(spec Spec, progress io.Writer) (*Result, error) {
	if progress == nil {
		progress = io.Discard
	}
	res := &Result{Spec: spec}
	for _, kind := range spec.Kinds {
		idx, buildTime, err := Build(spec, kind)
		if err != nil {
			return nil, err
		}
		if spec.CheckInvariants {
			if err := idx.CheckInvariants(); err != nil {
				idx.Close()
				return nil, fmt.Errorf("harness: %v invariants: %w", kind, err)
			}
		}
		rep, err := idx.Analyze()
		if err != nil {
			idx.Close()
			return nil, err
		}
		fmt.Fprintf(progress, "%-17s built: %d tuples in %v, height %d, %d nodes, %d spanning records\n",
			kind, spec.Tuples, buildTime.Round(time.Millisecond), rep.Height, rep.Nodes, rep.SpanningRecords)

		curve := Curve{Kind: kind}
		for _, qar := range spec.QARs {
			queries := workload.Queries(qar, spec.QueriesPerQAR, spec.Seed)
			before := idx.Stats()
			for _, q := range queries {
				if _, err := idx.Search(q); err != nil {
					idx.Close()
					return nil, err
				}
			}
			after := idx.Stats()
			avg := float64(after.SearchNodeAccesses-before.SearchNodeAccesses) / float64(len(queries))
			curve.Points = append(curve.Points, Point{QAR: qar, AvgNodes: avg})
		}
		res.Curves = append(res.Curves, curve)
		res.Builds = append(res.Builds, BuildInfo{
			Kind:            kind,
			Height:          rep.Height,
			Nodes:           rep.Nodes,
			SpanningRecords: rep.SpanningRecords,
			Stats:           idx.Stats(),
			Pool:            idx.PoolStats(),
			BuildTime:       buildTime,
		})
		if err := idx.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(progress, "%-17s swept %d QARs x %d queries\n", kind, len(spec.QARs), spec.QueriesPerQAR)
	}
	return res, nil
}

func buildIndex(spec Spec, kind Kind) (*segidx.Index, error) {
	opts := []segidx.Option{
		segidx.WithLeafNodeBytes(spec.LeafBytes),
		segidx.WithNodeGrowth(spec.Growth),
		segidx.WithBranchReserve(spec.BranchReserve),
		segidx.WithLeafPromotion(spec.LeafPromotion),
		segidx.WithCoalescing(spec.CoalesceEvery, spec.CoalesceCandidates),
	}
	opts = append(opts, spec.ExtraOptions...)
	est := segidx.SkeletonEstimate{
		Tuples:          spec.Tuples,
		Domain:          segidx.Box(workload.DomainLo, workload.DomainLo, workload.DomainHi, workload.DomainHi),
		PredictFraction: float64(spec.PredictSample) / float64(spec.Tuples),
	}
	switch kind {
	case KindRTree:
		return segidx.NewRTree(opts...)
	case KindSRTree:
		return segidx.NewSRTree(opts...)
	case KindSkeletonRTree:
		return segidx.NewSkeletonRTree(est, opts...)
	case KindSkeletonSRTree:
		return segidx.NewSkeletonSRTree(est, opts...)
	default:
		return nil, fmt.Errorf("harness: unknown kind %d", int(kind))
	}
}
