package forest

import (
	"fmt"
	"math"
	"sync"

	"segidx/internal/core"
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

// router is the routing state of a forest of two or more shards: which
// shard owns each record ID, and every shard's cover. A forest of one shard
// has a nil router — there is nothing to route, nothing to prune and nothing
// to rebuild, so it keeps no per-ID and no per-cover state and opens without
// reading a page. Every method accepts the nil receiver, which is where the
// one-shard case lives; forest.go never asks how many shards it has.
type router struct {
	ids    *idMap
	covers []cover
}

func newRouter(shards int) *router {
	if shards == 1 {
		return nil
	}
	return &router{ids: new(idMap), covers: make([]cover, shards)}
}

// assign returns the home shard of an insert: the shard already owning id
// if the ID was ever seen, else the one r hashes to, which then owns it.
func (rt *router) assign(id node.RecordID, r geom.Rect) int {
	if rt == nil {
		return 0
	}
	return rt.ids.assign(id, RouteRect(r, len(rt.covers)))
}

// owner returns the shard owning id, or -1 if no shard can hold it.
func (rt *router) owner(id node.RecordID) int {
	if rt == nil {
		return 0
	}
	return rt.ids.lookup(id)
}

// grow expands shard's cover to include r.
func (rt *router) grow(shard int, r geom.Rect) {
	if rt != nil {
		rt.covers[shard].grow(r)
	}
}

// intersects reports whether shard may hold a record intersecting q.
func (rt *router) intersects(shard int, q geom.Rect) bool {
	return rt == nil || rt.covers[shard].intersects(q)
}

// contains reports whether shard may hold a record containing q.
func (rt *router) contains(shard int, q geom.Rect) bool {
	return rt == nil || rt.covers[shard].contains(q)
}

// freeze returns the router of a pinned view: copies of the covers, which
// the live forest keeps growing, over the shared ID map.
func (rt *router) freeze() *router {
	if rt == nil {
		return nil
	}
	out := &router{ids: rt.ids, covers: make([]cover, len(rt.covers))}
	for i := range rt.covers {
		rt.covers[i].freeze(&out.covers[i])
	}
	return out
}

// rebuild reconstructs the ID map and the covers from the shards' stored
// portions, for shards that come with data (reopen, bulk load). A record
// found in two shards fails it.
func (rt *router) rebuild(shards []core.Engine) error {
	if rt == nil {
		return nil
	}
	for i, s := range shards {
		var conflict node.RecordID
		bad := false
		err := s.VisitPortions(func(_ int, e core.Entry) bool {
			if !rt.ids.record(e.ID, i) {
				conflict, bad = e.ID, true
				return false
			}
			rt.covers[i].grow(e.Rect)
			return true
		})
		if err != nil {
			return fmt.Errorf("forest: rebuild shard %d: %w", i, err)
		}
		if bad {
			return fmt.Errorf("forest: record %d stored in two shards (corrupt forest)", conflict)
		}
	}
	return nil
}

// check verifies the cross-shard invariant: every stored ID is routed to
// the shard that holds it. An ID routes to one shard, so this also rules
// out a record stored in two.
func (rt *router) check(shards []core.Engine) error {
	if rt == nil {
		return nil
	}
	for i, s := range shards {
		var ferr error
		err := s.VisitPortions(func(_ int, e core.Entry) bool {
			if got := rt.ids.lookup(e.ID); got != i {
				ferr = fmt.Errorf("forest: record %d stored in shard %d but routed to %d", e.ID, i, got)
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
