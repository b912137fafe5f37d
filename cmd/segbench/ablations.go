package main

import (
	"fmt"
	"io"

	"segidx/internal/harness"
	"segidx/internal/workload"
)

// variant is one configuration in an ablation sweep.
type variant struct {
	label  string
	mutate func(*harness.Spec)
}

// runAblation executes the DESIGN.md ablation experiments A1-A5: each
// varies one design parameter the paper fixes (or leaves open) and reruns
// the QAR sweep, writing each result to out.
func runAblation(out io.Writer, name string, tuples, queries int, seed uint64, csv, check bool, progress io.Writer) error {
	var (
		ds       workload.Dataset
		kinds    []harness.Kind
		variants []variant
	)
	switch name {
	case "reserve":
		// A1: the paper reserves 2/3 of non-leaf entries for branches.
		ds = workload.I3
		kinds = []harness.Kind{harness.KindSRTree, harness.KindSkeletonSRTree}
		for _, f := range []struct {
			label string
			v     float64
		}{{"reserve=1/2", 0.5}, {"reserve=2/3 (paper)", 2.0 / 3.0}, {"reserve=3/4", 0.75}} {
			f := f
			variants = append(variants, variant{f.label, func(s *harness.Spec) { s.BranchReserve = f.v }})
		}
	case "nodesize":
		// A2: tactic 2 — doubling node sizes vs fixed 1 KiB everywhere.
		ds = workload.I3
		kinds = harness.AllKinds()
		variants = []variant{
			{"growth=2 (paper)", func(s *harness.Spec) { s.Growth = 2 }},
			{"growth=1 (fixed 1KiB)", func(s *harness.Spec) { s.Growth = 1 }},
		}
	case "predict":
		// A3: distribution-prediction sample size (paper: 5-10% works well).
		ds = workload.I2
		kinds = []harness.Kind{harness.KindSkeletonRTree, harness.KindSkeletonSRTree}
		for _, f := range []struct {
			label string
			frac  float64
		}{{"sample=1%", 0.01}, {"sample=5%", 0.05}, {"sample=10%", 0.10}} {
			f := f
			variants = append(variants, variant{f.label, func(s *harness.Spec) {
				s.PredictSample = int(float64(s.Tuples) * f.frac)
				if s.PredictSample < 1 {
					s.PredictSample = 1
				}
			}})
		}
	case "coalesce":
		// A4: adaptive coalescing on vs off.
		ds = workload.I2
		kinds = []harness.Kind{harness.KindSkeletonRTree, harness.KindSkeletonSRTree}
		variants = []variant{
			{"coalesce every 1000 (paper)", func(s *harness.Spec) { s.CoalesceEvery = 1000 }},
			{"coalesce off", func(s *harness.Spec) { s.CoalesceEvery = 0 }},
		}
	case "packing":
		// A6: static packed R-Tree (the [ROUS85] alternative the paper's
		// skeletons replace with a dynamic construction) vs the paper's
		// index types, on short and skewed interval data.
		for _, d := range []workload.Dataset{workload.I1, workload.I3} {
			spec := harness.NewSpec(fmt.Sprintf("Ablation packing: %s, %d tuples", d, tuples), d, tuples)
			spec.Kinds = []harness.Kind{
				harness.KindRTree, harness.KindSkeletonSRTree, harness.KindPackedRTree,
			}
			spec.QueriesPerQAR = queries
			spec.Seed = seed
			spec.CheckInvariants = check
			res, err := harness.Run(spec, progress)
			if err != nil {
				return err
			}
			emit(out, res, csv, false, false)
		}
		return nil
	case "leafpromo":
		// A5: the leaf-promotion design choice DESIGN.md documents.
		ds = workload.I3
		kinds = []harness.Kind{harness.KindSRTree, harness.KindSkeletonSRTree}
		variants = []variant{
			{"leaf promotion on (default)", func(s *harness.Spec) { s.LeafPromotion = true }},
			{"leaf promotion off", func(s *harness.Spec) { s.LeafPromotion = false }},
		}
	default:
		return fmt.Errorf("unknown ablation %q (want reserve, nodesize, predict, coalesce, leafpromo, packing)", name)
	}

	for _, v := range variants {
		spec := harness.NewSpec(fmt.Sprintf("Ablation %s: %s (%s, %d tuples)", name, v.label, ds, tuples), ds, tuples)
		spec.Kinds = kinds
		spec.QueriesPerQAR = queries
		spec.Seed = seed
		spec.CheckInvariants = check
		v.mutate(&spec)
		res, err := harness.Run(spec, progress)
		if err != nil {
			return err
		}
		emit(out, res, csv, false, false)
	}
	return nil
}
