package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"segidx"
)

// TestCacheLRU exercises the cache in isolation: LRU eviction order,
// epoch invalidation, replacement, and the disabled configuration.
func TestCacheLRU(t *testing.T) {
	c := newCache(2)
	c.put("a", 0, []byte("A"))
	c.put("b", 0, []byte("B"))
	if v, ok := c.get("a", 0); !ok || string(v) != "A" {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.put("c", 0, []byte("C"))
	if _, ok := c.get("b", 0); ok {
		t.Fatalf("b survived eviction")
	}
	if _, ok := c.get("a", 0); !ok {
		t.Fatalf("a evicted out of LRU order")
	}

	// Epoch invalidation: entries stored at epoch 0 miss at epoch 1 and
	// are removed.
	if _, ok := c.get("a", 1); ok {
		t.Fatalf("stale-epoch entry served")
	}
	s := c.stats()
	if s.Invalidations != 1 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation, 1 eviction", s)
	}
	if s.Entries != 1 { // "c" remains
		t.Fatalf("entries = %d, want 1", s.Entries)
	}

	// Replacement updates value and epoch in place.
	c.put("c", 1, []byte("C1"))
	if v, ok := c.get("c", 1); !ok || string(v) != "C1" {
		t.Fatalf("replaced entry = %q, %v", v, ok)
	}

	// Disabled cache: never stores, never hits, never counts a hit.
	d := newCache(0)
	d.put("x", 0, []byte("X"))
	if _, ok := d.get("x", 0); ok {
		t.Fatalf("disabled cache returned a hit")
	}
	if ds := d.stats(); ds.Hits != 0 || ds.Entries != 0 {
		t.Fatalf("disabled cache stats = %+v", ds)
	}
}

// idsOf extracts the sorted record IDs from one result fragment.
func idsOf(t *testing.T, frag json.RawMessage) []uint64 {
	t.Helper()
	var entries []entryJSON
	if err := json.Unmarshal(frag, &entries); err != nil {
		t.Fatalf("unmarshal entries: %v", err)
	}
	ids := make([]uint64, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// mirrorIDs runs the same query directly against an index and returns the
// sorted IDs.
func mirrorIDs(t *testing.T, idx *segidx.Index, q segidx.Rect) []uint64 {
	t.Helper()
	entries, err := idx.Search(q)
	if err != nil {
		t.Fatalf("mirror Search: %v", err)
	}
	ids := make([]uint64, len(entries))
	for i, e := range entries {
		ids[i] = uint64(e.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestCacheDifferential proves cached responses ≡ fresh engine responses
// across interleaved mutations: a server (sharded, cached) and a plain
// mirror index receive the identical operation stream; after every
// mutation round each query in a fixed, deliberately repeated set must
// return the same ID set from both — no matter whether the server
// answered from cache or engine. If epoch invalidation ever served a
// stale entry, the ID sets would diverge at the next mutation round.
//
// The served index is a predicted skeleton whose per-shard sample (5 of 50
// expected) outlasts the first round, so the op stream carries each
// shard's staging-to-skeleton swap: entries cached under a staging epoch
// must never be served for the built skeleton.
func TestCacheDifferential(t *testing.T) {
	srvIdx, err := segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{
		Tuples:          200,
		Domain:          segidx.Box(0, 0, 1000, 1000),
		PredictFraction: 0.1,
	}, segidx.WithDims(2), segidx.WithShards(4))
	if err != nil {
		t.Fatalf("server index: %v", err)
	}
	defer srvIdx.Close()
	mirror, err := segidx.NewSRTree(segidx.WithDims(2))
	if err != nil {
		t.Fatalf("mirror index: %v", err)
	}
	defer mirror.Close()

	s := New(srvIdx, Config{CacheEntries: 64})
	rng := rand.New(rand.NewPCG(42, 1991))
	randBox := func() segidx.Rect {
		x := rng.Float64() * 900
		y := rng.Float64() * 900
		return segidx.Box(x, y, x+rng.Float64()*100, y+rng.Float64()*100)
	}

	// A fixed query set, smaller than the traffic it serves, so queries
	// repeat and hit the cache between mutation rounds.
	queries := make([]segidx.Rect, 16)
	for i := range queries {
		queries[i] = randBox()
	}

	live := map[uint64]segidx.Rect{}
	nextID := uint64(1)
	postOK := func(path, body string) mutationResponse {
		t.Helper()
		rec := do(t, s, "POST", path, body)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d (%s)", path, rec.Code, rec.Body.String())
		}
		var resp mutationResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp
	}

	var lastEpoch uint64
	checkAll := func(round int) {
		t.Helper()
		if e := s.Epoch(); e < lastEpoch {
			t.Fatalf("round %d: cache epoch went from %d back to %d", round, lastEpoch, e)
		} else {
			lastEpoch = e
		}
		for qi, q := range queries {
			// Ask twice: first answer may be fresh, second is served from
			// cache; both must equal the mirror.
			want := mirrorIDs(t, mirror, q)
			for pass := 0; pass < 2; pass++ {
				body := fmt.Sprintf(`{"rect": {"min": [%g, %g], "max": [%g, %g]}}`,
					q.Min[0], q.Min[1], q.Max[0], q.Max[1])
				rec := do(t, s, "POST", "/search", body)
				if rec.Code != 200 {
					t.Fatalf("round %d query %d: status %d", round, qi, rec.Code)
				}
				var resp queryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				got := idsOf(t, resp.Results[0])
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("round %d query %d pass %d: served %v, mirror %v (cached=%d)",
						round, qi, pass, got, want, resp.Cached)
				}
			}
		}
	}

	for round := 0; round < 30; round++ {
		// Mutate both sides identically: a few inserts, sometimes a
		// delete, occasionally a bulk load.
		switch round % 3 {
		case 0, 1:
			for i := 0; i < 8; i++ {
				r := randBox()
				body, _ := json.Marshal(map[string]any{
					"id":   nextID,
					"rect": map[string]any{"min": r.Min, "max": r.Max},
				})
				postOK("/insert", string(body))
				if err := mirror.Insert(r, segidx.RecordID(nextID)); err != nil {
					t.Fatalf("mirror insert: %v", err)
				}
				live[nextID] = r
				nextID++
			}
			if round%2 == 1 && len(live) > 0 {
				// Delete one live record from both sides.
				var id uint64
				for id = range live {
					break
				}
				r := live[id]
				body, _ := json.Marshal(map[string]any{
					"id":   id,
					"hint": map[string]any{"min": r.Min, "max": r.Max},
				})
				resp := postOK("/delete", string(body))
				if resp.Applied != 1 {
					t.Fatalf("delete id %d applied %d", id, resp.Applied)
				}
				if n, err := mirror.Delete(segidx.RecordID(id), r); err != nil || n != 1 {
					t.Fatalf("mirror delete: %d, %v", n, err)
				}
				delete(live, id)
			}
		case 2:
			recs := make([]map[string]any, 5)
			for i := range recs {
				r := randBox()
				recs[i] = map[string]any{
					"id":   nextID,
					"rect": map[string]any{"min": r.Min, "max": r.Max},
				}
				if err := mirror.Insert(r, segidx.RecordID(nextID)); err != nil {
					t.Fatalf("mirror insert: %v", err)
				}
				live[nextID] = r
				nextID++
			}
			body, _ := json.Marshal(map[string]any{"records": recs})
			postOK("/bulkload", string(body))
		}
		checkAll(round)
	}

	if srvIdx.Len() != mirror.Len() {
		t.Fatalf("server Len %d != mirror Len %d", srvIdx.Len(), mirror.Len())
	}
	// The cache must actually have been exercised for the test to mean
	// anything.
	cs := s.cache.stats()
	if cs.Hits == 0 || cs.Invalidations == 0 {
		t.Fatalf("cache saw no traffic: %+v", cs)
	}
}

// TestConcurrentReadersWriters is the -race stress test: concurrent HTTP
// readers (search/stab/count, hitting and filling the cache) against
// concurrent writers (insert/delete) on a sharded durable index over real
// HTTP connections. The assertions are structural — no failed requests,
// an epoch that moved, and a final Len consistent with the applied
// mutations — while the race detector checks the rest.
func TestConcurrentReadersWriters(t *testing.T) {
	dir := t.TempDir()
	idx, err := segidx.NewSRTree(
		segidx.WithDims(2),
		segidx.WithShards(4),
		segidx.WithDurableFile(filepath.Join(dir, "forest.db")),
	)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	defer idx.Close()

	s := New(idx, Config{CacheEntries: 128, FlushEvery: 50})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		writers        = 4
		readers        = 8
		opsPerWriter   = 150
		readsPerReader = 300
	)

	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	post := func(client *http.Client, path, body string) (int, error) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for i := 0; i < opsPerWriter; i++ {
				id := uint64(w*opsPerWriter + i + 1)
				x, y := rng.Float64()*1000, rng.Float64()*1000
				body := fmt.Sprintf(`{"id": %d, "rect": {"min": [%g, %g], "max": [%g, %g]}}`,
					id, x, y, x+10, y+10)
				status, err := post(client, "/insert", body)
				if err != nil {
					errCh <- fmt.Errorf("writer %d insert: %w", w, err)
					return
				}
				if status != 200 {
					errCh <- fmt.Errorf("writer %d insert: status %d", w, status)
					return
				}
				// Occasionally delete what we just inserted.
				if i%10 == 9 {
					body := fmt.Sprintf(`{"id": %d, "hint": {"min": [%g, %g], "max": [%g, %g]}}`,
						id, x, y, x+10, y+10)
					status, err := post(client, "/delete", body)
					if err != nil || status != 200 {
						errCh <- fmt.Errorf("writer %d delete: status %d, %v", w, status, err)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := ts.Client()
			rng := rand.New(rand.NewPCG(uint64(r), 99))
			for i := 0; i < readsPerReader; i++ {
				// A small query vocabulary maximizes cache interaction.
				x := float64(int(rng.Float64()*10)) * 100
				y := float64(int(rng.Float64()*10)) * 100
				var path, body string
				switch i % 3 {
				case 0:
					path = "/search"
					body = fmt.Sprintf(`{"rect": {"min": [%g, %g], "max": [%g, %g]}}`, x, y, x+150, y+150)
				case 1:
					path = "/stab"
					body = fmt.Sprintf(`{"point": [%g, %g]}`, x+5, y+5)
				case 2:
					path = "/count"
					body = fmt.Sprintf(`{"rect": {"min": [%g, %g], "max": [%g, %g]}}`, x, y, x+150, y+150)
				}
				status, err := post(client, path, body)
				if err != nil {
					errCh <- fmt.Errorf("reader %d %s: %w", r, path, err)
					return
				}
				if status != 200 {
					errCh <- fmt.Errorf("reader %d %s: status %d", r, path, status)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	const deletesPerWriter = opsPerWriter / 10
	wantLen := writers * (opsPerWriter - deletesPerWriter)
	if idx.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", idx.Len(), wantLen)
	}
	wantEpoch := uint64(writers * (opsPerWriter + deletesPerWriter))
	if got := s.Epoch(); got != wantEpoch {
		t.Fatalf("epoch = %d, want %d", got, wantEpoch)
	}
}
