package core

import (
	"fmt"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/store"
)

// fuzzOps decodes a byte stream into a bounded tree workload. Layout per
// operation: 1 opcode byte, then coordinate bytes (2 per coordinate,
// mapping to [0, 1000]); the stream ends when the bytes run out.
type fuzzOps struct {
	data []byte
	pos  int
}

func (o *fuzzOps) more() bool { return o.pos < len(o.data) }

func (o *fuzzOps) byte() byte {
	if !o.more() {
		return 0
	}
	b := o.data[o.pos]
	o.pos++
	return b
}

func (o *fuzzOps) coord() float64 {
	hi, lo := o.byte(), o.byte()
	return float64(uint16(hi)<<8|uint16(lo)) * 1000 / 65535
}

func (o *fuzzOps) rect() geom.Rect {
	x1, y1, x2, y2 := o.coord(), o.coord(), o.coord(), o.coord()
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return geom.Rect2(x1, y1, x2, y2)
}

// The write path clones a page only when it changes it, so its failure mode
// is a node changed through a read pin: visible to snapshots that should be
// isolated from it, and — the frame being clean — never written back. The
// two helpers below are the oracle for that; both fuzz targets use them.

// frozenAcross runs one mutating step with a snapshot pinned just before it
// and, once the step has published, requires the snapshot's full scan to be
// pre, the model's cut from before the step.
func frozenAcross(t *testing.T, tr *Tree, pre []node.RecordID, step func()) {
	t.Helper()
	want := make(map[node.RecordID]bool, len(pre))
	for _, id := range pre {
		want[id] = true
	}
	v := tr.Snapshot()
	defer v.Release()
	step()
	if got := snapIDSet(t, v); !sameIDSet(got, want) || v.Len() != len(want) {
		t.Fatalf("snapshot pinned before the op scans %d records (Len %d) after it published; the model's pre-op cut holds %d",
			len(got), v.Len(), len(want))
	}
}

// portions lists every stored record portion with its level, in visit order.
func portions(t *testing.T, tr *Tree) []string {
	t.Helper()
	var out []string
	if err := tr.VisitPortions(func(level int, e Entry) bool {
		out = append(out, fmt.Sprint(level, e.ID, e.Rect))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// reopensAsLive flushes the tree, reopens its store as a second tree and
// requires that one to be sound and to hold exactly the live tree's
// portions: a change made to a clean frame is missing from the store.
func reopensAsLive(t *testing.T, tr *Tree, st store.Store) {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(tr.Config(), st)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("reopened tree: %v", err)
	}
	live, stored := portions(t, tr), portions(t, re)
	if re.Len() != tr.Len() || fmt.Sprint(live) != fmt.Sprint(stored) {
		t.Fatalf("reopened tree holds %d records in %d portions, live tree %d in %d (or they differ in place)",
			re.Len(), len(stored), tr.Len(), len(live))
	}
}

// flushEvery is how many mutations the fuzz targets let pass between
// flushes, so later operations meet clean frames as well as dirty ones.
const flushEvery = 8

// FuzzTreeOps drives a tree and the brute-force model through the same
// decoded operation stream — the differential oracle — checking after every
// step that searches agree, Len matches, and every structural invariant
// still holds. Both spanning modes run on each input.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 255, 255, 255, 255})  // one big insert
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 2}) // insert then delete
	f.Add([]byte{2, 0, 0, 0, 0, 255, 255, 255, 255})  // search empty
	{
		// Enough inserts to force splits, then interleaved deletes and
		// searches.
		var seed []byte
		for i := 0; i < 24; i++ {
			seed = append(seed, 0, byte(i*7), byte(i*11), byte(i*7+3), byte(i*11+5), byte(i), byte(i*3), byte(i), byte(i*3))
		}
		for i := 0; i < 8; i++ {
			seed = append(seed, 1, byte(i*2)) // delete
			seed = append(seed, 2, 0, 0, 0, 0, 200, 0, 200, 0)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip() // bound per-input work; long streams add no new shapes
		}
		for _, spanning := range []bool{false, true} {
			t.Run(fmt.Sprintf("spanning=%v", spanning), func(t *testing.T) {
				st := store.NewMemStore()
				tr, err := New(smallConfig(spanning), st)
				if err != nil {
					t.Fatal(err)
				}
				m := newModel()
				ops := &fuzzOps{data: data}
				nextID := node.RecordID(1)
				var live []node.RecordID

				for mutations := 0; ops.more(); {
					switch ops.byte() % 3 {
					case 0: // insert
						r := ops.rect()
						id := nextID
						nextID++
						frozenAcross(t, tr, m.search(domain1000()), func() {
							if err := tr.Insert(r, id); err != nil {
								t.Fatalf("Insert(%v, %d): %v", r, id, err)
							}
						})
						m.insert(r, id)
						live = append(live, id)
					case 1: // delete a live record (or a missing one when none)
						if len(live) == 0 {
							if n, err := tr.Delete(9999, domain1000()); err != nil || n != 0 {
								t.Fatalf("Delete(missing) = (%d, %v), want (0, nil)", n, err)
							}
							continue
						}
						i := int(ops.byte()) % len(live)
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						frozenAcross(t, tr, m.search(domain1000()), func() {
							n, err := tr.Delete(id, m.rects[id])
							if err != nil {
								t.Fatalf("Delete(%d): %v", id, err)
							}
							if n != 1 {
								t.Fatalf("Delete(%d) removed %d records, want 1", id, n)
							}
						})
						m.delete(id)
					case 2: // search
						q := ops.rect()
						got := searchIDs(t, tr, q)
						want := m.search(q)
						if !idsEqual(got, want) {
							t.Fatalf("Search(%v) = %v, model says %v", q, got, want)
						}
						continue // no mutation; skip the invariant walk
					}
					if tr.Len() != len(m.rects) {
						t.Fatalf("Len() = %d, model holds %d", tr.Len(), len(m.rects))
					}
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("invariants violated mid-stream: %v", err)
					}
					if mutations++; mutations%flushEvery == 0 {
						if err := tr.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}

				// Final cross-check over the whole domain, then of the store
				// against the live tree.
				got := searchIDs(t, tr, domain1000())
				if want := m.search(domain1000()); !idsEqual(got, want) {
					t.Fatalf("final full-domain search %v, model says %v", got, want)
				}
				reopensAsLive(t, tr, st)
			})
		}
	})
}
