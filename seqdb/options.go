package seqdb

import (
	"context"
	"fmt"

	"twsearch/internal/core"
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
	db.mu.RLock()
	defer db.mu.RUnlock()
	oi, ok := db.indexes[indexName]
	if !ok {
		return nil, SearchStats{}, errNoIndex(indexName)
	}
	ms, stats, err := oi.ix.Search(ctx, q, eps)
	if err != nil {
		return nil, stats, err
	}
	return db.publicMatches(ms), stats, nil
}

// SearchVisitWith streams answers to fn instead of materializing them: fn
// is called once per answer, from the calling goroutine, in the serial
// traversal's delivery order (not position order); returning false stops
// the search. Use it when a permissive threshold would produce answer sets
// too large to hold in memory. After a cancellation no further answers are
// delivered to fn.
func (db *DB) SearchVisitWith(ctx context.Context, indexName string, q []float64, eps float64, fn func(Match) bool, opts SearchOptions) (SearchStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	oi, ok := db.indexes[indexName]
	if !ok {
		return SearchStats{}, errNoIndex(indexName)
	}
	if fn == nil {
		return SearchStats{}, fmt.Errorf("seqdb: nil visitor")
	}
	return oi.ix.SearchVisit(ctx, q, eps, func(m core.Match) bool {
		return fn(Match{
			SeqID:    db.data.Seq(m.Ref.Seq).ID,
			Seq:      m.Ref.Seq,
			Start:    m.Ref.Start,
			End:      m.Ref.End,
			Distance: m.Distance,
		})
	})
}

// SearchKNNWith returns the k subsequences nearest to q under the time
// warping distance, through the named index, in position order. See
// SearchWith for the matching semantics; nearest-neighbor search expands
// the threshold until k answers are certain, and every expansion round runs
// under ctx.
func (db *DB) SearchKNNWith(ctx context.Context, indexName string, q []float64, k int, opts SearchOptions) ([]Match, SearchStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	oi, ok := db.indexes[indexName]
	if !ok {
		return nil, SearchStats{}, errNoIndex(indexName)
	}
	ms, stats, err := oi.ix.SearchKNN(ctx, q, k)
	if err != nil {
		return nil, stats, err
	}
	return db.publicMatches(ms), stats, nil
}
