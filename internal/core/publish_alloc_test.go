//go:build !race

package core

// The race detector instruments allocations and defeats the measurement,
// so this file is excluded from -race builds.

import (
	"testing"

	"segidx/internal/node"
	"segidx/internal/workload"
)

// TestPublishAllocs pins the allocations of one steady-state Insert and
// one Delete. Sealing at publish replaced the compaction the copy-on-write
// clone made at first mutation: the same one flat array per changed node,
// so neither operation may cost more than before it. The budgets are the
// counts measured before the move (they did not change with it).
func TestPublishAllocs(t *testing.T) {
	const runs = 400
	for _, c := range []struct {
		name        string
		skeleton    bool
		insert, del float64
	}{
		{"skeleton-sr-tree", true, 27, 26},
		{"r-tree", false, 68, 24},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := cloneBudgetTree(t, c.skeleton)
			rects := workload.I3.Generate(runs+1, 3)
			next := 0
			ins := testing.AllocsPerRun(runs, func() {
				if err := tr.Insert(rects[next], node.RecordID(1<<32+next)); err != nil {
					t.Fatal(err)
				}
				next++
			})
			next = 0
			del := testing.AllocsPerRun(runs, func() {
				if n, err := tr.Delete(node.RecordID(1<<32+next), rects[next]); err != nil || n != 1 {
					t.Fatalf("Delete = (%d, %v)", n, err)
				}
				next++
			})
			t.Logf("allocs per Insert %g, per Delete %g", ins, del)
			if ins > c.insert || del > c.del {
				t.Fatalf("allocs per Insert %g, per Delete %g; budget is %g and %g", ins, del, c.insert, c.del)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
