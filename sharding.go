package segidx

import (
	"errors"
	"fmt"
	"sync/atomic"

	"segidx/internal/core"
	"segidx/internal/fanout"
	"segidx/internal/forest"
	"segidx/internal/store"
)

// This file holds what spreads an index over its shards: the per-shard
// configuration, file layout and bulk-load partition that assemble and
// open (segidx.go) use, the scatter-gather read path shared by the index
// and its snapshots, the breakage latch, and the shard-introspection API.
// Records are placed by ID (forest.RouteID), so any shard may hold a match
// for any query: every read visits every shard, and the per-shard results
// need no cross-shard deduplication. An index built without WithShards has
// one shard and answers all of it the same way.

// newIndex assembles an index over its shard engines and the stores Close
// closes (Index.stores). Every shard must be configured identically (dims,
// page sizes, spanning mode), and shards that come with data must hold
// only records RouteID places on them; newIndex reads no page to check
// either (CheckInvariants does).
func newIndex(shards []core.Engine, stores []store.Store) *Index {
	x := &Index{shards: shards, stores: stores}
	x.idx = x
	x.readers = make([]core.Reader, len(shards))
	for i, s := range shards {
		x.readers[i] = s
	}
	x.scanPool.New = func() any {
		sc := &scanCtx{}
		sc.visit = func(e core.Entry) bool {
			if sc.fn(e) {
				return true
			}
			sc.stopped = true
			return false
		}
		sc.visitL = func(level int, e core.Entry) bool {
			if sc.levelFn(level, e) {
				return true
			}
			sc.stopped = true
			return false
		}
		return sc
	}
	return x
}

// guard returns the latched breakage, if any. It allocates nothing.
func (x *Index) guard() error {
	if p := x.broken.Load(); p != nil {
		return *p
	}
	return nil
}

// note latches err when it carries store.ErrBroken. First breakage wins.
// The box is allocated only on the latch path: taking the parameter's own
// address would heap-move it on every call and break the zero-allocation
// read gates.
func (x *Index) note(err error) {
	if err == nil || !errors.Is(err, store.ErrBroken) {
		return
	}
	boxed := new(error)
	*boxed = err
	x.broken.CompareAndSwap(nil, boxed)
}

// reads is the scatter-gather read path over one set of shard readers:
// the live engines (embedded in Index) or pinned shard views (embedded in
// forestView). Both answer every core.Reader method from here.
type reads struct {
	idx      *Index // breakage latch, parallelism, scan pool
	readers  []core.Reader
	released atomic.Bool // set by forestView.Release; never on a live index
}

// scanCtx carries one streaming query across shards. Its visit closures
// are bound once at construction and capture only the scanCtx itself, so
// a pooled scanCtx makes the multi-shard wrapping allocation-free: the
// per-call state (the caller's fn, the stop flag) is written into fields
// the closures read through the pointer.
type scanCtx struct {
	fn      func(core.Entry) bool
	levelFn func(int, core.Entry) bool
	stopped bool
	visit   func(core.Entry) bool
	visitL  func(int, core.Entry) bool
}

// begin is the entry check of every read: a released view, then a latched
// breakage. The shards check the rectangle.
func (x *reads) begin() error {
	if x.released.Load() {
		return core.ErrSnapshotReleased
	}
	return x.idx.guard()
}

// scatter fans op across every shard and gathers the per-shard result
// slices, merging without copying when at most one shard produced results.
func (x *reads) scatter(query Rect, op func(core.Reader, Rect) ([]Entry, error)) ([]Entry, error) {
	if err := x.begin(); err != nil {
		return nil, err
	}
	results := make([][]Entry, len(x.readers))
	err := fanout.Run(nil, x.idx.Parallelism(), len(x.readers), func(i int) error {
		res, err := op(x.readers[i], query)
		results[i] = res
		return err
	})
	if err != nil {
		x.idx.note(err)
		return nil, err
	}
	// Gather. One non-empty shard hands its slice through unchanged, as a
	// forest of one always does, at no re-allocation.
	total, nonEmpty, last := 0, 0, -1
	for i, res := range results {
		if len(res) > 0 {
			total += len(res)
			nonEmpty++
			last = i
		}
	}
	switch nonEmpty {
	case 0:
		return nil, nil
	case 1:
		return results[last], nil
	}
	out := make([]Entry, 0, total)
	for _, res := range results {
		out = append(out, res...)
	}
	return out, nil
}

// stream runs a streaming query over the shards sequentially, honoring
// fn's early stop across shard boundaries. The pooled scan context keeps
// the wrapping allocation-free, preserving the per-shard zero-allocation
// read path.
func (x *reads) stream(query Rect,
	op func(core.Reader, Rect, func(Entry) bool) error,
	fn func(Entry) bool,
) error {
	if err := x.begin(); err != nil {
		return err
	}
	sc := x.idx.scanPool.Get().(*scanCtx)
	sc.fn, sc.stopped = fn, false
	var err error
	for _, s := range x.readers {
		if err = op(s, query, sc.visit); err != nil || sc.stopped {
			break
		}
	}
	sc.fn = nil
	x.idx.scanPool.Put(sc)
	x.idx.note(err)
	return err
}

// forestView is a pinned scatter-gather snapshot: the index's read path
// over per-shard views.
type forestView struct {
	reads
	views []core.View
}

// Epoch implements core.View: the sum of the pinned shard epochs, on the
// same scale as Index.CommitEpoch.
func (v *forestView) Epoch() uint64 {
	var e uint64
	for _, sv := range v.views {
		e += sv.Epoch()
	}
	return e
}

// Release implements core.View: unpins every shard view. Idempotent.
func (v *forestView) Release() {
	if !v.released.CompareAndSwap(false, true) {
		return
	}
	for _, sv := range v.views {
		sv.Release()
	}
}

// checkPlacement verifies the cross-shard invariant: every ID stored in
// shard i routes to i. An ID routes to one shard, so this also rules out a
// record split across two, and it catches a shard file that another index
// or another slot of this one wrote.
func (x *Index) checkPlacement() error {
	if len(x.shards) == 1 {
		return nil
	}
	for i, s := range x.shards {
		var ferr error
		err := s.VisitPortions(func(_ int, e core.Entry) bool {
			if got := x.ShardOf(e.ID); got != i {
				ferr = fmt.Errorf("segidx: record %d stored in shard %d but routed to %d", e.ID, i, got)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// shardConfig derives one shard's configuration: a pool budget is split
// evenly so sharding does not multiply memory.
func shardConfig(cfg core.Config, shards int) core.Config {
	if cfg.PoolBytes > 0 {
		cfg.PoolBytes = max(cfg.PoolBytes/shards, 1)
	}
	return cfg
}

// shardPath is where shard i of n keeps its pages under path ("" keeps
// them in memory). One shard lives at the path itself, with no manifest —
// the layout a lone tree has always had, so every such file opens as a
// forest of one; several live at path.shard<i> (each with its own ".wal"
// when durable) beside the manifest at path, which is written once, when
// the forest is created.
func shardPath(path string, i, n int) string {
	if path == "" || n == 1 {
		return path
	}
	return fmt.Sprintf("%s.shard%d", path, i)
}

// partitionByShard splits bulk-load records by their ID's home shard, so
// records sharing an ID land together and a logical record never
// straddles shards.
func partitionByShard(records []BulkRecord, n int) [][]BulkRecord {
	if n == 1 {
		return [][]BulkRecord{records}
	}
	parts := make([][]BulkRecord, n)
	for _, r := range records {
		s := forest.RouteID(r.ID, n)
		parts[s] = append(parts[s], r)
	}
	return parts
}

// Shards reports how many independent trees back this index (1 unless
// built with WithShards).
func (x *Index) Shards() int { return len(x.shards) }

// ShardOf reports the shard that holds, or would hold, the record with the
// given ID: a fixed hash of the ID alone, the same for every index with the
// same shard count. Writers that each own the IDs of one shard never
// contend on a write lock.
func (x *Index) ShardOf(id RecordID) int { return forest.RouteID(id, len(x.shards)) }

// FlushShard persists one shard's dirty pages and commits that shard
// alone — the group-commit primitive for writers pinned to distinct
// shards.
func (x *Index) FlushShard(i int) error {
	if err := x.guard(); err != nil {
		return err
	}
	if i < 0 || i >= len(x.shards) {
		return fmt.Errorf("segidx: shard %d out of range [0, %d)", i, len(x.shards))
	}
	err := x.shards[i].Flush()
	x.note(err)
	return err
}

// ShardStats returns per-shard activity counters. (*Index).Stats is their
// field-wise sum.
func (x *Index) ShardStats() []Stats {
	out := make([]Stats, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.Stats()
	}
	return out
}

// ShardPoolStats returns per-shard buffer pool counters. (*Index).PoolStats
// is their field-wise sum.
func (x *Index) ShardPoolStats() []PoolStats {
	out := make([]PoolStats, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.PoolStats()
	}
	return out
}

// ShardLens returns each shard's logical record count; the sum equals Len.
func (x *Index) ShardLens() []int {
	out := make([]int, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.Len()
	}
	return out
}
