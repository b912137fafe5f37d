package forest

import (
	"math/rand"
	"testing"

	"segidx/internal/node"
)

func TestRouteIDDeterministicAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		id := node.RecordID(rng.Uint64())
		for _, n := range []int{1, 2, 3, 4, 8, MaxShards} {
			s := RouteID(id, n)
			if s < 0 || s >= n {
				t.Fatalf("RouteID(%d, %d) = %d out of range", id, n, s)
			}
			if s2 := RouteID(id, n); s2 != s {
				t.Fatalf("RouteID not deterministic: %d vs %d", s, s2)
			}
		}
	}
	// The placement is part of the file format: these values must never
	// change, or every stored forest would fail CheckInvariants.
	for _, c := range []struct {
		id      node.RecordID
		n, want int
	}{{0, 4, 0}, {1, 4, 1}, {2, 4, 3}, {1 << 40, 8, 7}, {12345, 3, 2}, {7, 2, 1}} {
		if got := RouteID(c.id, c.n); got != c.want {
			t.Errorf("RouteID(%d, %d) = %d, want %d", c.id, c.n, got, c.want)
		}
	}
}

// TestRouteIDSpreads checks that the ID mix spreads the ID patterns
// callers actually use — sequential IDs, and IDs strided by the shard
// count — within 5 % of an even share on every shard.
func TestRouteIDSpreads(t *testing.T) {
	const perShard = 20000
	for _, n := range []int{2, 3, 4, 8} {
		for _, stride := range []int{1, n} {
			counts := make([]int, n)
			for i := 0; i < n*perShard; i++ {
				counts[RouteID(node.RecordID(1+i*stride), n)]++
			}
			for s, c := range counts {
				if c < perShard*95/100 || c > perShard*105/100 {
					t.Errorf("n=%d stride=%d: shard %d got %d, want %d ± 5 %% (counts %v)",
						n, stride, s, c, perShard, counts)
				}
			}
		}
	}
}
