package seqdb

import (
	"context"
	"fmt"
)

// SearchOptions is the last argument of every search entry point. No
// option in it changes a search.
type SearchOptions struct {
	// Parallelism is ignored: every search is one serial traversal
	// (HACKING.md "Searches are serial"). The field stays only because the
	// benchmark under bench/ sets it.
	Parallelism int
}

// SearchWith runs a similarity search through the named index: every
// subsequence with time warping distance at most eps from q, sorted by
// (sequence, start, end). No false dismissals. Concurrent calls on the same
// index run in parallel on the one shared handle. When ctx is canceled or
// its deadline passes the traversal aborts through the engine's early-stop
// path and ctx.Err() is returned — a canceled search returns an error,
// never a silently truncated answer set.
func (db *DB) SearchWith(ctx context.Context, indexName string, q []float64, eps float64, opts SearchOptions) ([]Match, SearchStats, error) {
	return db.coord.Search(ctx, indexName, q, eps)
}

// SearchVisitWith streams answers to fn instead of materializing them: fn
// is called once per answer, from the calling goroutine, in the (sequence,
// start, end) order SearchWith returns; returning false stops the search.
// Use it when a permissive threshold would produce answer sets too large to
// hold in memory. After a cancellation no further answers are delivered to
// fn. Shard 0's answers stream as its search finds them; on a sharded root
// shard i's follow as soon as shards 0..i have completed, while later shards
// still search.
func (db *DB) SearchVisitWith(ctx context.Context, indexName string, q []float64, eps float64, fn func(Match) bool, opts SearchOptions) (SearchStats, error) {
	if fn == nil {
		return SearchStats{}, fmt.Errorf("seqdb: nil visitor")
	}
	return db.coord.SearchVisit(ctx, indexName, q, eps, fn)
}

// Search is SearchVisitWith on one part, in its own numbering: the
// coordinator's shard.Backend.
func (p *part) Search(ctx context.Context, indexName string, q []float64, eps float64, fn func(Match) bool) (SearchStats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	oi, ok := p.indexes[indexName]
	if !ok {
		return SearchStats{}, errNoIndex(indexName)
	}
	return oi.ix.SearchVisit(ctx, q, eps, p.publicVisitor(fn))
}

// SearchKNNWith returns the k subsequences nearest to q under the time
// warping distance, through the named index, in position order. See
// SearchWith for the matching semantics; nearest-neighbor search expands
// the threshold until k answers are certain, and every expansion round runs
// under ctx as one search of every shard.
func (db *DB) SearchKNNWith(ctx context.Context, indexName string, q []float64, k int, opts SearchOptions) ([]Match, SearchStats, error) {
	return db.coord.SearchKNN(ctx, indexName, q, k)
}

// DistanceBound is the bound a k-NN's rounds stop at, over one part's index
// (core.Index.DistanceBound).
func (p *part) DistanceBound(indexName string, q []float64) (float64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	oi, ok := p.indexes[indexName]
	if !ok {
		return 0, errNoIndex(indexName)
	}
	return oi.ix.DistanceBound(q), nil
}
