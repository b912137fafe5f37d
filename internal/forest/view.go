package forest

import "segidx/internal/core"

// CommitEpoch reports the sum of the shards' commit epochs: a monotonic
// stamp that increases whenever any shard commits a mutation and is stable
// while the forest is quiescent. The HTTP result cache keys on it.
func (f *Forest) CommitEpoch() uint64 {
	var e uint64
	for _, s := range f.shards {
		e += s.CommitEpoch()
	}
	return e
}

// Snapshot pins one view per shard and returns a core.View over the
// union. Each shard view is a true MVCC snapshot (lock-free reads,
// copy-on-write isolation), so queries on the returned view never block
// behind writers on any shard.
//
// Shard views are pinned in shard order, not atomically across shards: a
// write committing while Snapshot runs may be visible in a later-pinned
// shard but not an earlier one. Since a logical record lives wholly inside
// one shard, each record is still seen atomically (entirely at its shard's
// pinned epoch); only cross-record, cross-shard ordering is relaxed —
// exactly the guarantee concurrent scatter-gather queries already have.
// Pinned under the forest's quiescence the view is exact.
func (f *Forest) Snapshot() core.View {
	v := &forestView{views: make([]core.View, len(f.shards))}
	v.f = f
	v.readers = make([]core.Reader, len(f.shards))
	for i, s := range f.shards {
		sv := s.Snapshot()
		v.views[i], v.readers[i] = sv, sv
	}
	return v
}

// forestView is a pinned scatter-gather snapshot: the forest's read path
// over per-shard views.
type forestView struct {
	reads
	views []core.View
}

// Epoch implements core.View: the sum of the pinned shard epochs, on the
// same scale as Forest.CommitEpoch.
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
