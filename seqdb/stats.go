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
// sorted by index name.
func (db *DB) PoolStats() []IndexPoolStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]IndexPoolStats, 0, len(db.indexes))
	for name, oi := range db.indexes {
		ss := oi.ix.Tree.PoolShardStats()
		shards := make([]PoolShardStats, len(ss))
		for i, s := range ss {
			shards[i] = PoolShardStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions}
		}
		out = append(out, IndexPoolStats{Index: name, Shards: shards})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// PinnedPages returns how many buffer-pool frames the open indexes hold
// pinned right now: zero whenever no search is in flight, on every path out
// of one — a failed page read included. Indexes read through mmap pin
// nothing.
func (db *DB) PinnedPages() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, oi := range db.indexes {
		n += oi.ix.Tree.PinnedPages()
	}
	return n
}
