package forest

import (
	"fmt"

	"segidx/internal/core"
	"segidx/internal/node"
)

// RouteID picks the home shard of a record among n shards from its ID
// alone: the splitmix64 finalizer mixes the ID's bits, and the high half of
// the mix is reduced modulo n. A record's shard is therefore a pure
// function of its ID — an insert reusing an ID lands on the shard already
// holding it, and nothing needs to be remembered to route a later delete.
// The mix is part of the file format (manifest version 2): changing it
// strands every stored record on the wrong shard.
func RouteID(id node.RecordID, n int) int {
	if n <= 1 {
		return 0
	}
	z := uint64(id)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int((z >> 32) % uint64(n))
}

// checkPlacement verifies the cross-shard invariant: every ID stored in
// shard i routes to i. An ID routes to one shard, so this also rules out a
// record split across two, and it catches a shard file that another index
// or another slot of this one wrote.
func checkPlacement(shards []core.Engine) error {
	if len(shards) == 1 {
		return nil
	}
	for i, s := range shards {
		var ferr error
		err := s.VisitPortions(func(_ int, e core.Entry) bool {
			if got := RouteID(e.ID, len(shards)); got != i {
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
