package segidx

import (
	"errors"
	"fmt"

	"segidx/internal/core"
	"segidx/internal/forest"
	"segidx/internal/store"
)

// This file holds what the public facade needs only for a sharded index
// forest (internal/forest): the per-shard configuration, path and
// bulk-load partition that assemble (segidx.go) uses behind WithShards,
// the manifest-driven reopen for Open/OpenDurable, and the
// shard-introspection API. Every Index method in segidx.go works unchanged
// on a forest — *forest.Forest satisfies the engine interface — so
// sharding is purely a construction-time decision.

// shardConfig derives one shard's configuration: a pool budget is split
// evenly so sharding does not multiply memory.
func shardConfig(cfg core.Config, shards int) core.Config {
	if cfg.PoolBytes > 0 {
		cfg.PoolBytes = max(cfg.PoolBytes/shards, 1)
	}
	return cfg
}

// shardPath is where shard i's pages live ("" keeps them in memory).
func (o *options) shardPath(i int) string {
	if o.path == "" {
		return ""
	}
	return forest.ShardPath(o.path, i)
}

// openForest reassembles a persisted forest from its manifest for Open
// and OpenDurable. Each shard store is opened (replaying its WAL when
// durable), its metadata verified against the manifest — a shard whose
// durable epoch is ahead of the manifest cannot result from any crash of
// the flush protocol and is rejected as corruption — and the routing map
// and covers are rebuilt from the stored portions.
func openForest(path string, durable bool, opts []Option) (*Index, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	mf, m, err := forest.OpenManifest(store.OS, path)
	if err != nil {
		return nil, err
	}
	shards := make([]forest.Shard, 0, m.Shards)
	fail := func(err error) (*Index, error) {
		for _, s := range shards {
			err = errors.Join(err, s.Store.Close())
		}
		return nil, errors.Join(err, mf.Close())
	}
	o.path, o.durable = path, durable
	var first *core.Tree // shard 0, which names the kind and the dims
	cfg := shardConfig(o.cfg, m.Shards)
	for i := 0; i < m.Shards; i++ {
		st, err := o.openStore(o.shardPath(i))
		if err != nil {
			return fail(err)
		}
		t, err := o.openTree(cfg, st)
		switch {
		case err != nil:
			err = fmt.Errorf("segidx: forest shard %d: %w", i, err)
		case t.FlushEpoch() > m.Epoch:
			err = fmt.Errorf("segidx: forest shard %d at epoch %d, ahead of manifest epoch %d: %w",
				i, t.FlushEpoch(), m.Epoch, store.ErrBroken)
		case i > 0 && t.Config().Spanning != first.Config().Spanning:
			err = fmt.Errorf("segidx: forest shard %d spanning=%v differs from shard 0", i, t.Config().Spanning)
		}
		if err != nil {
			return fail(errors.Join(err, st.Close()))
		}
		if i == 0 {
			first = t
		}
		shards = append(shards, forest.Shard{Eng: t, Store: st})
	}
	f, err := forest.New(shards, forest.Config{
		Dims:     first.Config().Dims,
		Manifest: mf,
		Epoch:    m.Epoch,
		Rebuild:  true,
	})
	if err != nil {
		return fail(err)
	}
	f.SetParallelism(o.par)
	return newIndex(f, nil, reopenedKind(first), false, o), nil
}

// partitionByShard splits bulk-load records by their routed shard.
// Duplicate IDs are pinned to their first record's shard so a logical
// record never straddles shards.
func partitionByShard(records []BulkRecord, n int) [][]BulkRecord {
	parts := make([][]BulkRecord, n)
	pinned := make(map[RecordID]int, len(records))
	for _, r := range records {
		s, ok := pinned[r.ID]
		if !ok {
			s = forest.RouteRect(r.Rect, n)
			pinned[r.ID] = s
		}
		parts[s] = append(parts[s], r)
	}
	return parts
}

// asForest returns the underlying forest, or nil for a single-tree index.
func (x *Index) asForest() *forest.Forest {
	f, _ := x.eng.(*forest.Forest)
	return f
}

// Shards reports how many independent trees back this index (1 unless
// built with WithShards).
func (x *Index) Shards() int {
	if f := x.asForest(); f != nil {
		return f.Shards()
	}
	return 1
}

// ShardOf reports the shard an insert of r would route to by the
// rectangle-center hash. An insert reusing a live record ID instead stays
// on that ID's home shard regardless of its rectangle. Always 0 on an
// unsharded index.
func (x *Index) ShardOf(r Rect) int {
	if f := x.asForest(); f != nil {
		return f.Route(r)
	}
	return 0
}

// FlushShard persists one shard's dirty pages at the forest's current
// epoch without committing a new manifest epoch — the group-commit
// primitive for writers pinned to distinct shards. On an unsharded index,
// FlushShard(0) is Flush.
func (x *Index) FlushShard(i int) error {
	if f := x.asForest(); f != nil {
		return f.FlushShard(i)
	}
	if i != 0 {
		return fmt.Errorf("segidx: shard %d out of range [0, 1)", i)
	}
	return x.eng.Flush()
}

// ShardStats returns per-shard activity counters (one element on an
// unsharded index). (*Index).Stats is their field-wise sum.
func (x *Index) ShardStats() []Stats {
	if f := x.asForest(); f != nil {
		return f.ShardStats()
	}
	return []Stats{x.eng.Stats()}
}

// ShardPoolStats returns per-shard buffer pool counters (one element on
// an unsharded index). (*Index).PoolStats is their field-wise sum.
func (x *Index) ShardPoolStats() []PoolStats {
	if f := x.asForest(); f != nil {
		return f.ShardPoolStats()
	}
	return []PoolStats{x.eng.PoolStats()}
}

// ShardLens returns each shard's logical record count (one element on an
// unsharded index); the sum equals Len.
func (x *Index) ShardLens() []int {
	if f := x.asForest(); f != nil {
		return f.ShardLens()
	}
	return []int{x.eng.Len()}
}
