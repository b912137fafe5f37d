package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"segidx/internal/geom"
)

// model is the brute-force reference every sampled answer is checked
// against: an append-only log of record versions, each alive from the
// mutation that inserted it until the mutation that deleted it. Keeping
// dead versions makes it answer "what did the index hold after mutation
// k", which is what a read through a pinned snapshot must return while the
// writer carries on.
//
// Mutations are numbered by the model itself (seq), not by the engine's
// commit epoch: the facade's epoch and a view's epoch are on different
// scales for a predictive skeleton index. A writer holds mu across the
// engine call and the model update; a reader that wants an exact check
// holds mu while it pins its snapshot and takes a cut, so view and cut
// name the same state. Scans run without the lock: the log grows by whole
// chunks that never move, a chunk is in place before any cut that covers
// it is handed out, versions below a cut are immutable except died, and
// died is atomic.
type model struct {
	mu     sync.Mutex
	seq    uint64 // mutations recorded so far
	n      int    // versions logged so far
	chunks [maxChunks]*[chunkLen]version
	cur    map[uint64]int // id -> index of its live version
}

const (
	chunkLen  = 1 << 14
	maxChunks = 1 << 12 // 67M versions: hours of writing
)

// version holds its rectangle inline (xlo, ylo, xhi, yhi) so the log is
// pointer-free and costs the collector nothing to scan.
type version struct {
	id   uint64
	c    [4]float64
	born uint64        // seq of the inserting mutation
	died atomic.Uint64 // seq of the deleting mutation, 0 while alive
}

// rect views the version's coordinates; the view stays valid because the
// log never moves and coordinates never change.
func (v *version) rect() geom.Rect { return geom.Rect{Min: v.c[0:2:2], Max: v.c[2:4:4]} }

// cut names one state of the model: everything up to mutation seq, found
// among the first n versions.
type cut struct {
	seq uint64
	n   int
}

// newModel returns an empty model expecting about records live records.
func newModel(records int) *model {
	return &model{cur: make(map[uint64]int, records)}
}

// at returns version i of the log.
func (m *model) at(i int) *version { return &m.chunks[i/chunkLen][i%chunkLen] }

// insertLocked records that id now maps to rect. The caller holds mu.
func (m *model) insertLocked(id uint64, rect geom.Rect) error {
	if rect.Dims() != 2 {
		return fmt.Errorf("model: %d-dimensional rectangle", rect.Dims())
	}
	if m.n == maxChunks*chunkLen {
		return fmt.Errorf("model: version log full at %d", m.n)
	}
	if _, dup := m.cur[id]; dup {
		return fmt.Errorf("model: id %d inserted twice", id)
	}
	if m.n%chunkLen == 0 {
		m.chunks[m.n/chunkLen] = new([chunkLen]version)
	}
	m.seq++
	v := m.at(m.n)
	v.id, v.born = id, m.seq
	v.c = [4]float64{rect.Min[0], rect.Min[1], rect.Max[0], rect.Max[1]}
	m.cur[id] = m.n
	m.n++
	return nil
}

// removeLocked records the deletion of id and returns the rectangle it
// held. The caller holds mu.
func (m *model) removeLocked(id uint64) (geom.Rect, error) {
	i, ok := m.cur[id]
	if !ok {
		return geom.Rect{}, fmt.Errorf("model: delete of absent id %d", id)
	}
	m.seq++
	m.at(i).died.Store(m.seq)
	delete(m.cur, id)
	return m.at(i).rect(), nil
}

// rectLocked returns the rectangle id currently holds. The caller holds mu.
func (m *model) rectLocked(id uint64) (geom.Rect, bool) {
	i, ok := m.cur[id]
	if !ok {
		return geom.Rect{}, false
	}
	return m.at(i).rect(), true
}

// nowLocked returns the cut naming the current state. The caller holds mu.
func (m *model) nowLocked() cut { return cut{seq: m.seq, n: m.n} }

func (m *model) now() cut {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nowLocked()
}

// liveLocked reports the number of live records. The caller holds mu.
func (m *model) liveLocked() int { return len(m.cur) }

// ids scans the log and returns, ascending, the ids of the versions alive
// at c whose rectangle satisfies pred.
func (m *model) ids(c cut, pred func(geom.Rect) bool) []uint64 {
	var out []uint64
	for base := 0; base < c.n; base += chunkLen {
		chunk := m.chunks[base/chunkLen][:min(chunkLen, c.n-base)]
		for i := range chunk {
			v := &chunk[i]
			if v.born > c.seq {
				continue
			}
			if d := v.died.Load(); d != 0 && d <= c.seq {
				continue
			}
			if pred(v.rect()) {
				out = append(out, v.id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// intersecting and containingPoint are the two predicates the workloads
// use: a range search reports what intersects q, a stab what contains p.
func intersecting(q geom.Rect) func(geom.Rect) bool {
	return func(r geom.Rect) bool { return r.Intersects(q) }
}

func containingPoint(p []float64) func(geom.Rect) bool {
	return func(r geom.Rect) bool { return r.ContainsPoint(p) }
}

// sameIDs reports whether got, once sorted and deduplicated (a streaming
// search may report a cut record once per portion), equals want. It
// reorders got.
func sameIDs(got, want []uint64) bool {
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	k := 0
	for i, id := range got {
		if i == 0 || id != got[i-1] {
			got[k] = id
			k++
		}
	}
	got = got[:k]
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
