package seqdb

import "sort"

// PoolShardStats is one buffer-pool shard's hit/miss/eviction counters.
type PoolShardStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// IndexPoolStats reports one index's lock-striped buffer pool, shard by
// shard; under concurrent searches an even spread of hits across shards is
// the sign the striping is doing its job.
type IndexPoolStats struct {
	Index  string
	Shards []PoolShardStats
}

// PoolStats returns per-shard buffer pool counters for every open index,
// sorted by index name. On a sharded root each entry's Shards concatenates
// the pool shards of every database shard, in shard order.
func (db *DB) PoolStats() []IndexPoolStats {
	out := []IndexPoolStats{}
	at := map[string]int{}
	for _, p := range db.parts {
		p.mu.RLock()
		for name, oi := range p.indexes {
			i, ok := at[name]
			if !ok {
				i = len(out)
				at[name] = i
				out = append(out, IndexPoolStats{Index: name})
			}
			for _, s := range oi.ix.Tree.PoolShardStats() {
				out[i].Shards = append(out[i].Shards, PoolShardStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions})
			}
		}
		p.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// PinnedPages returns how many buffer-pool frames the open indexes hold
// pinned right now: zero whenever no search is in flight, on every path out
// of one — a failed page read included. Indexes read through mmap pin
// nothing.
func (db *DB) PinnedPages() int {
	n := 0
	for _, p := range db.parts {
		p.mu.RLock()
		for _, oi := range p.indexes {
			n += oi.ix.Tree.PinnedPages()
		}
		p.mu.RUnlock()
	}
	return n
}
