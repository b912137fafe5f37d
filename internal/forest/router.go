package forest

import (
	"math"
	"sync"

	"segidx/internal/geom"
	"segidx/internal/node"
)

// RouteRect picks the home shard for a rectangle among n shards by
// hashing its center, word-wise FNV-1a over the raw float bits of
// Min[d]+Max[d] per dimension (the sum is twice the center; dividing
// first would only discard a mantissa bit). Center hashing keeps a
// record's placement independent of its extent, so re-inserting the same
// interval always lands on the same shard, and the high bits of the hash
// are used for the modulus because FNV-1a mixes them best.
func RouteRect(r geom.Rect, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for d := range r.Min {
		h ^= math.Float64bits(r.Min[d] + r.Max[d])
		h *= 1099511628211
	}
	return int((h >> 33) % uint64(n))
}

// idStripes stripes the record-ID → shard map. 64 stripes keeps writer
// contention negligible without a per-ID lock.
const idStripes = 64

type idStripe struct {
	mu sync.RWMutex
	m  map[node.RecordID]uint32
}

// idMap records which shard owns each live record ID. A record must live
// wholly inside one shard: Insert with a reused ID extends the existing
// logical record, so the forest must route the new portion to the shard
// already holding the ID regardless of where the new rectangle hashes.
// Mappings are never removed — Delete keeps the entry so a later re-insert
// of the ID stays on its historical shard, which costs a few words per
// ever-seen ID and buys stable routing without a liveness census.
type idMap struct {
	stripes [idStripes]idStripe
}

func (im *idMap) stripe(id node.RecordID) *idStripe {
	return &im.stripes[uint64(id)*0x9E3779B97F4A7C15>>58%idStripes]
}

// lookup returns the shard owning id, or -1 if the forest has never seen
// it.
func (im *idMap) lookup(id node.RecordID) int {
	s := im.stripe(id)
	s.mu.RLock()
	got, ok := s.m[id]
	s.mu.RUnlock()
	if !ok {
		return -1
	}
	return int(got)
}

// assign binds id to the shard want unless it already has an owner, and
// returns the binding shard either way.
func (im *idMap) assign(id node.RecordID, want int) int {
	s := im.stripe(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if got, ok := s.m[id]; ok {
		return int(got)
	}
	if s.m == nil {
		s.m = make(map[node.RecordID]uint32)
	}
	s.m[id] = uint32(want)
	return want
}

// record re-binds id to shard during rebuild from durable shards; it
// reports false when id was already bound to a different shard (a record
// split across shards — corruption).
func (im *idMap) record(id node.RecordID, shard int) bool {
	s := im.stripe(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if got, ok := s.m[id]; ok {
		return int(got) == shard
	}
	if s.m == nil {
		s.m = make(map[node.RecordID]uint32)
	}
	s.m[id] = uint32(shard)
	return true
}

// cover tracks the grow-only bounding rectangle of everything ever
// inserted into one shard, letting queries skip shards that cannot hold a
// match. It never shrinks on Delete — a stale-large cover is sound (at
// worst an extra shard is scanned), while shrinking would need a census.
type cover struct {
	mu  sync.RWMutex
	set bool
	r   geom.Rect
}

// grow expands the cover to include r. Coordinates are updated in place,
// so after the first call growing allocates nothing.
func (c *cover) grow(r geom.Rect) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.set {
		c.r = r.Clone()
		c.set = true
		return
	}
	for d := range r.Min {
		if r.Min[d] < c.r.Min[d] {
			c.r.Min[d] = r.Min[d]
		}
		if r.Max[d] > c.r.Max[d] {
			c.r.Max[d] = r.Max[d]
		}
	}
}

// intersects reports whether the cover overlaps q. An empty cover
// intersects nothing.
func (c *cover) intersects(q geom.Rect) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.set && c.r.Intersects(q)
}

// contains reports whether the cover fully contains q — the sound prune
// test for SearchContaining/Stab, where a match must contain the probe.
func (c *cover) contains(q geom.Rect) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.set && c.r.Contains(q)
}

// freeze copies the cover into dst, a fresh cover owned by a pinned view.
func (c *cover) freeze(dst *cover) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.set {
		dst.set, dst.r = true, c.r.Clone()
	}
}
