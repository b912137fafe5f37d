package segidx

import (
	"segidx/internal/core"
	"segidx/internal/forest"
)

// This file holds what the public facade needs to spread an index over its
// shards (internal/forest): the per-shard configuration, file layout and
// bulk-load partition that assemble and open (segidx.go) use, and the
// shard-introspection API. An index built without WithShards has one shard
// and answers all of it the same way.

// shardConfig derives one shard's configuration: a pool budget is split
// evenly so sharding does not multiply memory.
func shardConfig(cfg core.Config, shards int) core.Config {
	if cfg.PoolBytes > 0 {
		cfg.PoolBytes = max(cfg.PoolBytes/shards, 1)
	}
	return cfg
}

// shardPath is where shard i of n keeps its pages ("" keeps them in
// memory). One shard lives at the path itself, with no manifest — the
// layout a lone tree has always had, so every such file opens as a forest
// of one; several live at path.shard<i> beside the manifest at path.
func (o *options) shardPath(i, n int) string {
	if o.path == "" || n == 1 {
		return o.path
	}
	return forest.ShardPath(o.path, i)
}

// partitionByShard splits bulk-load records by their routed shard.
// Duplicate IDs are pinned to their first record's shard so a logical
// record never straddles shards.
func partitionByShard(records []BulkRecord, n int) [][]BulkRecord {
	if n == 1 {
		return [][]BulkRecord{records}
	}
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

// Shards reports how many independent trees back this index (1 unless
// built with WithShards).
func (x *Index) Shards() int { return x.f.Shards() }

// ShardOf reports the shard an insert of r would route to by the
// rectangle-center hash. An insert reusing a live record ID instead stays
// on that ID's home shard regardless of its rectangle.
func (x *Index) ShardOf(r Rect) int { return x.f.Route(r) }

// FlushShard persists one shard's dirty pages at the forest's current
// epoch without committing a new manifest epoch — the group-commit
// primitive for writers pinned to distinct shards.
func (x *Index) FlushShard(i int) error { return x.f.FlushShard(i) }

// ShardStats returns per-shard activity counters. (*Index).Stats is their
// field-wise sum.
func (x *Index) ShardStats() []Stats { return x.f.ShardStats() }

// ShardPoolStats returns per-shard buffer pool counters. (*Index).PoolStats
// is their field-wise sum.
func (x *Index) ShardPoolStats() []PoolStats { return x.f.ShardPoolStats() }

// ShardLens returns each shard's logical record count; the sum equals Len.
func (x *Index) ShardLens() []int { return x.f.ShardLens() }
