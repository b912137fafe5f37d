package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/histogram"
	"segidx/internal/node"
	"segidx/internal/page"
)

func domain1000() geom.Rect { return geom.Rect2(0, 0, 1000, 1000) }

func skeletonConfig(spanning bool) Config {
	cfg := smallConfig(spanning)
	cfg.CoalesceEvery = 100
	cfg.CoalesceCandidates = 10
	return cfg
}

func TestSkeletonBuildShape(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			tr, err := NewInMemory(skeletonConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			est := Estimate{Tuples: 2000, Domain: domain1000()}
			if err := tr.BuildSkeleton(est); err != nil {
				t.Fatal(err)
			}
			if tr.Height() < 3 {
				t.Fatalf("skeleton height %d, want >= 3 for 2000 tuples with capacity-4 leaves", tr.Height())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Leaf regions must tile the domain exactly.
			var leafArea float64
			var leaves int
			var walk func(id page.ID)
			walk = func(id page.ID) {
				n, err := tr.fetch(id, nil)
				if err != nil {
					t.Fatal(err)
				}
				if n.IsLeaf() {
					leaves++
					if !n.HasRegion() {
						t.Fatal("skeleton leaf without region")
					}
					leafArea += n.Region.Area()
					if !domain1000().Contains(n.Region) {
						t.Fatalf("leaf region %v escapes the domain", n.Region)
					}
				}
				for _, b := range n.Branches {
					walk(b.Child)
				}
			}
			walk(tr.root)
			if math.Abs(leafArea-domain1000().Area()) > 1e-6 {
				t.Fatalf("leaf regions cover area %g, domain is %g", leafArea, domain1000().Area())
			}
			if leaves < 500/4 {
				t.Fatalf("only %d pre-allocated leaves for 2000 tuples", leaves)
			}
		})
	}
}

func TestSkeletonRequiresEmptyTree(t *testing.T) {
	tr, err := NewInMemory(skeletonConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.Point(1, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.BuildSkeleton(Estimate{Tuples: 100, Domain: domain1000()}); err != ErrNotEmpty {
		t.Fatalf("BuildSkeleton on non-empty tree = %v, want ErrNotEmpty", err)
	}
}

func TestSkeletonEstimateValidation(t *testing.T) {
	tr, err := NewInMemory(skeletonConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	bad := []Estimate{
		{Tuples: 0, Domain: domain1000()},
		{Tuples: 100, Domain: geom.Rect{Min: []float64{0}, Max: []float64{1}}},
		{Tuples: 100, Domain: geom.Rect2(0, 0, 0, 1000)}, // degenerate dim
		{Tuples: 100, Domain: domain1000(), Hists: make([]*histogram.Histogram, 1)},
	}
	for i, est := range bad {
		if err := tr.BuildSkeleton(est); err == nil {
			t.Errorf("case %d: invalid estimate accepted", i)
		}
	}
}

func TestSkeletonSmallInputIsSingleLeaf(t *testing.T) {
	tr, err := NewInMemory(skeletonConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BuildSkeleton(Estimate{Tuples: 3, Domain: domain1000()}); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d, want 1", tr.Height())
	}
	if err := tr.Insert(geom.Point(5, 5), 1); err != nil {
		t.Fatal(err)
	}
	if got := searchIDs(t, tr, domain1000()); !idsEqual(got, []node.RecordID{1}) {
		t.Fatalf("search = %v", got)
	}
}

func TestSkeletonMatchesModelUnderLoad(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			tr, err := NewInMemory(skeletonConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BuildSkeleton(Estimate{Tuples: 2000, Domain: domain1000()}); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(53))
			m := newModel()
			for i := 0; i < 3000; i++ { // 1.5x the estimate: splits must engage
				r := randSegment(rng)
				id := node.RecordID(i + 1)
				if err := tr.Insert(r, id); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				m.insert(r, id)
				if i%1000 == 999 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("after %d: %v", i+1, err)
					}
				}
			}
			for q := 0; q < 200; q++ {
				query := randQuery(rng)
				got := searchIDs(t, tr, query)
				want := m.search(query)
				if !idsEqual(got, want) {
					t.Fatalf("query %v diverged: got %d want %d", query, len(got), len(want))
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSkeletonNonUniformPartitioning(t *testing.T) {
	// An exponential-ish histogram in X must make low-X partitions
	// narrower than high-X ones (Figure 6).
	hx, err := histogram.New(0, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 20000; i++ {
		v := rng.ExpFloat64() * 120
		if v > 1000 {
			continue
		}
		hx.Add(v)
	}
	tr, err := NewInMemory(skeletonConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	est := Estimate{
		Tuples: 2000,
		Domain: domain1000(),
		Hists:  []*histogram.Histogram{hx, nil}, // X skewed, Y uniform
	}
	if err := tr.BuildSkeleton(est); err != nil {
		t.Fatal(err)
	}
	// Root branches: the leftmost X partition must be much narrower than
	// the rightmost.
	root, err := tr.fetch(tr.root, nil)
	if err != nil {
		t.Fatal(err)
	}
	minW, maxW := math.Inf(1), 0.0
	for _, b := range root.Branches {
		w := b.Rect.Length(0)
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if len(root.Branches) < 2 {
		t.Skip("root has a single partition; skew not observable at this level")
	}
	if maxW < 2*minW {
		t.Errorf("partition widths min=%g max=%g do not reflect the skew", minW, maxW)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingMergesSparseLeaves(t *testing.T) {
	cfg := skeletonConfig(false)
	cfg.CoalesceEvery = 50
	tr, err := NewInMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Overestimate heavily: 5000 expected, only 600 inserted, all in one
	// corner — most pre-allocated leaves stay empty and should coalesce.
	if err := tr.BuildSkeleton(Estimate{Tuples: 5000, Domain: domain1000()}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	m := newModel()
	for i := 0; i < 600; i++ {
		r := geom.Point(rng.Float64()*100, rng.Float64()*100)
		id := node.RecordID(i + 1)
		if err := tr.Insert(r, id); err != nil {
			t.Fatal(err)
		}
		m.insert(r, id)
	}
	st := tr.Stats()
	if st.Coalesces == 0 {
		t.Fatal("no coalescing on a heavily over-provisioned skeleton")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Correctness preserved.
	for q := 0; q < 100; q++ {
		query := randQuery(rng)
		if !idsEqual(searchIDs(t, tr, query), m.search(query)) {
			t.Fatal("coalesced tree diverged from model")
		}
	}
}

func TestSkeletonWithDeletes(t *testing.T) {
	tr, err := NewInMemory(skeletonConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BuildSkeleton(Estimate{Tuples: 1000, Domain: domain1000()}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	m := newModel()
	live := []node.RecordID{}
	next := node.RecordID(1)
	for step := 0; step < 2000; step++ {
		if len(live) == 0 || rng.Intn(4) != 0 {
			r := randSegment(rng)
			if err := tr.Insert(r, next); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			m.insert(r, next)
			live = append(live, next)
			next++
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if _, err := tr.Delete(id, m.rects[id]); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			m.delete(id)
		}
		if step%500 == 499 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for q := 0; q < 10; q++ {
				query := randQuery(rng)
				if !idsEqual(searchIDs(t, tr, query), m.search(query)) {
					t.Fatalf("step %d: diverged", step)
				}
			}
		}
	}
}

func TestSkeletonShapeRespectsFanout(t *testing.T) {
	tr, err := NewInMemory(skeletonConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, tuples := range []int{1, 10, 100, 1000, 10000, 100000} {
		perDim, err := tr.skeletonShape(tuples)
		if err != nil {
			t.Fatalf("tuples=%d: %v", tuples, err)
		}
		if perDim[len(perDim)-1] != 1 {
			t.Fatalf("tuples=%d: top level has %d partitions, want 1", tuples, perDim[len(perDim)-1])
		}
		for l := 1; l < len(perDim); l++ {
			prev, p := perDim[l-1], perDim[l]
			if p > prev {
				t.Fatalf("tuples=%d level %d: %d partitions above %d below", tuples, l, p, prev)
			}
			perParent := (prev + p - 1) / p
			if perParent*perParent > tr.branchCap(l) {
				t.Fatalf("tuples=%d level %d: %d children per parent exceeds capacity %d",
					tuples, l, perParent*perParent, tr.branchCap(l))
			}
		}
	}
}

// TestSkeletonDeleteMissThenInsert is a regression test: a delete that
// matches nothing still dismantles the skeleton's pre-built empty leaves
// (they are underfull by construction), so the condense pipeline must run
// even when zero records were removed — otherwise the root is left as a
// branchless non-leaf and the next insert panics in chooseBranch.
func TestSkeletonDeleteMissThenInsert(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
			tr, err := NewInMemory(skeletonConfig(spanning))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BuildSkeleton(Estimate{Tuples: 450, Domain: domain1000()}); err != nil {
				t.Fatal(err)
			}
			n, err := tr.Delete(12345, domain1000())
			if err != nil || n != 0 {
				t.Fatalf("Delete(missing) = (%d, %v), want (0, nil)", n, err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after no-op delete: %v", err)
			}
			if err := tr.Insert(geom.Rect2(88, 59, 100, 72), 1); err != nil {
				t.Fatalf("insert after no-op delete: %v", err)
			}
			got, err := tr.Search(domain1000())
			if err != nil || len(got) != 1 || got[0].ID != 1 {
				t.Fatalf("Search = (%v, %v), want the one inserted record", got, err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
