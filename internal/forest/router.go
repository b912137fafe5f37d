package forest

import "segidx/internal/node"

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
