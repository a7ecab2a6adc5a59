package server

import (
	"context"

	"twsearch/seqdb"
)

// source is what the server mounts under a database name: the methods
// *seqdb.DB and *seqdb.ShardedDB share, which answer the search-shaped and
// the metadata requests of the wire protocol. Every handler is therefore
// agnostic about whether a database is sharded.
type source interface {
	// SearchVisitWith streams a range search's answers to fn; returning
	// false stops the search. Sharded databases deliver in global
	// (sequence, start, end) order.
	SearchVisitWith(ctx context.Context, index string, q []float64, eps float64, fn func(seqdb.Match) bool, opts seqdb.SearchOptions) (seqdb.SearchStats, error)
	// SearchKNNWith returns the k nearest subsequences in position order.
	SearchKNNWith(ctx context.Context, index string, q []float64, k int, opts seqdb.SearchOptions) ([]seqdb.Match, seqdb.SearchStats, error)
	// SeqScanCtx runs the exhaustive sequential-scan baseline.
	SeqScanCtx(ctx context.Context, q []float64, eps float64) ([]seqdb.Match, seqdb.SearchStats, error)
	// Stats returns the dataset summary.
	Stats() seqdb.Stats
	// PoolStats returns each open index's buffer-pool counters.
	PoolStats() []seqdb.IndexPoolStats
	// Indexes lists the open indexes' names.
	Indexes() []string
	// Index returns one open index's metadata.
	Index(name string) (seqdb.IndexInfo, error)
}
