package segidx

import (
	"errors"
	"fmt"

	"segidx/internal/core"
	"segidx/internal/forest"
	"segidx/internal/skeleton"
	"segidx/internal/store"
)

// This file wires the sharded index forest (internal/forest) into the
// public facade: construction behind WithShards, manifest-sniffing reopen
// in Open/OpenDurable, sharded bulk loading, and the shard-introspection
// API. Every Index method in segidx.go works unchanged on a forest —
// *forest.Forest satisfies the engine interface — so sharding is purely a
// construction-time decision.

// shardConfig derives one shard's configuration from the resolved
// options: an explicit per-shard budget wins; otherwise a global pool
// budget is split evenly so sharding does not multiply memory.
func shardConfig(cfg core.Config, shards, budget int) core.Config {
	if budget > 0 {
		cfg.PoolBytes = budget
	} else if cfg.PoolBytes > 0 {
		per := cfg.PoolBytes / shards
		if per < 1 {
			per = 1
		}
		cfg.PoolBytes = per
	}
	return cfg
}

// buildForest constructs a fresh n-shard forest for build().
func buildForest(kind string, spanning bool, est *SkeletonEstimate, o *options) (*Index, error) {
	n := o.shards
	cfg := o.cfg
	cfg.Spanning = spanning
	if est == nil {
		cfg.CoalesceEvery = 0
	}
	scfg := shardConfig(cfg, n, o.shardBudget)
	perTuples := 0
	if est != nil {
		if est.Tuples < 1 {
			return nil, fmt.Errorf("segidx: skeleton estimate of %d tuples", est.Tuples)
		}
		// Each shard receives roughly 1/n of the input; skeleton
		// pre-construction sizes each shard for its share.
		perTuples = (est.Tuples + n - 1) / n
	}

	var mf *forest.ManifestFile
	var err error
	if o.path != "" {
		if mf, err = forest.CreateManifest(store.OS, o.path, n); err != nil {
			return nil, err
		}
	}
	shards := make([]forest.Shard, 0, n)
	fail := func(err error) (*Index, error) {
		for _, s := range shards {
			err = errors.Join(err, s.Store.Close())
		}
		if mf != nil {
			err = errors.Join(err, mf.Close())
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		st, err := o.openShardStore(i)
		if err != nil {
			return fail(err)
		}
		var eng forest.Engine
		switch {
		case est == nil:
			var t *core.Tree
			if t, err = core.New(scfg, st); err == nil {
				eng, err = t, o.attachStabAccel(t, nil)
			}
		case est.PredictFraction > 0:
			var p *skeleton.Predictor
			if p, err = skeleton.New(scfg, st, est.Domain, perTuples, est.PredictFraction); err == nil {
				if o.accelOn {
					p.SetAttach(func(t *core.Tree) error { return o.attachStabAccel(t, est) })
				}
				eng = p
			}
		default:
			var t *core.Tree
			if t, err = core.NewSkeleton(scfg, st, core.Estimate{
				Tuples: perTuples,
				Domain: est.Domain,
				Hists:  est.Histograms,
			}); err == nil {
				eng, err = t, o.attachStabAccel(t, est)
			}
		}
		if err != nil {
			return fail(errors.Join(err, st.Close()))
		}
		shards = append(shards, forest.Shard{Eng: eng, Store: st})
	}
	f, err := forest.New(shards, forest.Config{Dims: scfg.Dims, Manifest: mf})
	if err != nil {
		return fail(err)
	}
	f.SetParallelism(o.par)
	return newIndex(f, nil, kind, false, o), nil
}

// openShardStore opens shard i's page store under the forest path.
func (o *options) openShardStore(i int) (store.Store, error) {
	if o.path == "" {
		return store.NewMemStore(), nil
	}
	sp := forest.ShardPath(o.path, i)
	if o.durable {
		return store.OpenWALStore(sp)
	}
	return store.OpenFileStore(sp)
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
	var spanning bool
	for i := 0; i < m.Shards; i++ {
		st, err := o.openShardStore(i)
		if err != nil {
			return fail(err)
		}
		meta, err := core.ReadMeta(st)
		if err != nil {
			return fail(errors.Join(fmt.Errorf("segidx: forest shard %d: %w", i, err), st.Close()))
		}
		if meta.FlushEpoch > m.Epoch {
			return fail(errors.Join(fmt.Errorf(
				"segidx: forest shard %d at epoch %d, ahead of manifest epoch %d: %w",
				i, meta.FlushEpoch, m.Epoch, store.ErrBroken), st.Close()))
		}
		if i == 0 {
			spanning = meta.Spanning
		} else if meta.Spanning != spanning {
			return fail(errors.Join(fmt.Errorf(
				"segidx: forest shard %d spanning=%v differs from shard 0", i, meta.Spanning), st.Close()))
		}
		cfg := shardConfig(o.cfg, m.Shards, o.shardBudget)
		cfg.Dims = meta.Dims
		cfg.Sizes.LeafBytes = meta.LeafBytes
		cfg.Sizes.Growth = meta.Growth
		cfg.Spanning = meta.Spanning
		t, err := core.Open(cfg, st)
		if err != nil {
			return fail(errors.Join(fmt.Errorf("segidx: forest shard %d: %w", i, err), st.Close()))
		}
		if err := o.attachStabAccel(t, nil); err != nil {
			return fail(errors.Join(err, st.Close()))
		}
		shards = append(shards, forest.Shard{Eng: t, Store: st})
	}
	dims := shards[0].Eng.(*core.Tree).Config().Dims
	f, err := forest.New(shards, forest.Config{
		Dims:     dims,
		Manifest: mf,
		Epoch:    m.Epoch,
		Rebuild:  true,
	})
	if err != nil {
		return fail(err)
	}
	f.SetParallelism(o.par)
	kind := "r-tree"
	if spanning {
		kind = "sr-tree"
	}
	return newIndex(f, nil, kind, false, o), nil
}

// bulkLoadForest partitions the records by their routed shard and packs
// each shard independently. Duplicate IDs are pinned to their first
// record's shard so a logical record never straddles shards.
func bulkLoadForest(records []BulkRecord, fill float64, o *options) (*Index, error) {
	n := o.shards
	cfg := o.cfg
	cfg.Spanning = false
	cfg.CoalesceEvery = 0
	scfg := shardConfig(cfg, n, o.shardBudget)

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

	var mf *forest.ManifestFile
	var err error
	if o.path != "" {
		if mf, err = forest.CreateManifest(store.OS, o.path, n); err != nil {
			return nil, err
		}
	}
	shards := make([]forest.Shard, 0, n)
	fail := func(err error) (*Index, error) {
		for _, s := range shards {
			err = errors.Join(err, s.Store.Close())
		}
		if mf != nil {
			err = errors.Join(err, mf.Close())
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		st, err := o.openShardStore(i)
		if err != nil {
			return fail(err)
		}
		t, err := core.BulkLoad(scfg, st, parts[i], fill)
		if err == nil {
			err = o.attachStabAccel(t, nil)
		}
		if err != nil {
			return fail(errors.Join(err, st.Close()))
		}
		shards = append(shards, forest.Shard{Eng: t, Store: st})
	}
	f, err := forest.New(shards, forest.Config{Dims: scfg.Dims, Manifest: mf, Rebuild: true})
	if err != nil {
		return fail(err)
	}
	f.SetParallelism(o.par)
	return newIndex(f, nil, "packed-r-tree", false, o), nil
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
