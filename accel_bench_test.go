package segidx_test

import (
	"runtime"
	"testing"

	"segidx"
	"segidx/internal/harness"
	"segidx/internal/workload"
)

// routeShape is one query shape of BenchmarkRouteShapes.
type routeShape struct {
	name    string
	queries []segidx.Rect
}

// routeShapes draws count queries of each shape BenchmarkRouteShapes
// sweeps: the extreme vertical shapes, narrow in X (the hot dimension) and
// spanning all of Y — a slice and a 2 % range —, a 10 %×10 % box, and a
// point on one of recs.
func routeShapes(recs []segidx.Rect, count int, seed uint64) []routeShape {
	const span = workload.DomainHi - workload.DomainLo
	rng := workload.NewRNG(seed)
	shapes := []routeShape{{name: "slice"}, {name: "range-2pct"}, {name: "box-10pct"}, {name: "point"}}
	for i := 0; i < count; i++ {
		x := rng.Uniform(workload.DomainLo, workload.DomainHi-span/10)
		y := rng.Uniform(workload.DomainLo, workload.DomainHi-span/10)
		r := recs[rng.Intn(len(recs))]
		shapes[0].queries = append(shapes[0].queries, segidx.Box(x, workload.DomainLo, x, workload.DomainHi))
		shapes[1].queries = append(shapes[1].queries, segidx.Box(x, workload.DomainLo, x+span/50, workload.DomainHi))
		shapes[2].queries = append(shapes[2].queries, segidx.Box(x, y, x+span/10, y+span/10))
		shapes[3].queries = append(shapes[3].queries, segidx.Point((r.Min[0]+r.Max[0])/2, r.Min[1]))
	}
	return shapes
}

// BenchmarkRouteShapes times Count per query shape on a 50 000-record
// skeleton SR-Tree with a sidecar (WithStabAccel(0, 10)) in each hybrid
// mode. always and off time the two sides, and auto should match the
// faster one on every slice, range and box cell; points always go to the
// tree (DESIGN §12). The three modes' cells of one shape run back to
// back, so a noisy host skews them alike. sidecar/op is the share of
// queries the mode sent to the sidecar.
func BenchmarkRouteShapes(b *testing.B) {
	modes := []segidx.HybridMode{segidx.HybridAuto, segidx.HybridAlways, segidx.HybridOff}
	for _, ds := range []workload.Dataset{workload.I1, workload.I2, workload.I3, workload.R2, workload.TI} {
		b.Run(ds.String(), func(b *testing.B) {
			spec := harness.NewSpec("route-shapes", ds, 50_000)
			shapes := routeShapes(ds.Generate(spec.Tuples, spec.Seed), 1024, spec.Seed+1)
			idxs := make([]*segidx.Index, len(modes))
			for i, mode := range modes {
				spec.ExtraOptions = []segidx.Option{segidx.WithStabAccel(0, 10), segidx.WithHybridMode(mode)}
				idx, _, err := harness.Build(spec, harness.KindSkeletonSRTree)
				if err != nil {
					b.Fatal(err)
				}
				defer idx.Close()
				if len(idx.AccelStats()) != 1 {
					b.Fatal("no sidecar attached")
				}
				for _, sh := range shapes {
					for _, q := range sh.queries {
						if _, err := idx.Count(q); err != nil {
							b.Fatal(err)
						}
					}
				}
				idxs[i] = idx
			}
			runtime.GC() // collect the builds' garbage now, not inside the first timed cell
			for _, sh := range shapes {
				for i, idx := range idxs {
					b.Run(sh.name+"/"+modes[i].String(), func(b *testing.B) {
						side0, tree0 := accelRoutes(idx)
						b.ResetTimer()
						for n := 0; n < b.N; n++ {
							if _, err := idx.Count(sh.queries[n%len(sh.queries)]); err != nil {
								b.Fatal(err)
							}
						}
						b.StopTimer()
						side, tree := accelRoutes(idx)
						b.ReportMetric(float64(side-side0)/float64(side-side0+tree-tree0), "sidecar/op")
					})
				}
			}
		})
	}
}
