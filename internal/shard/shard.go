// Package shard implements horizontal sharding for twsearch: one logical
// sequence database split across N self-contained index shards, searched by
// a scatter-gather coordinator that fans a query out shard-parallel and
// merges the result streams back into the global order.
//
// The design follows kmcp's partition-then-merge shape: every shard is a
// complete database (its own data file, suffix-tree indexes and buffer
// pools), so capacity grows by adding shards instead of by growing one
// tree, and each shard is searched through the existing, unmodified engine.
// Because the range search over each shard is complete for that shard's
// sequences and a subsequence lives in exactly one shard, the union of the
// per-shard answer sets is exactly the unsharded answer set — the paper's
// no-false-dismissal contract survives sharding untouched (Niennattrakul et
// al. use the same argument for partitioned DTW indexes). The same fact
// makes k-NN the engine's own threshold-expansion loop (core.RunKNN) run
// over the scatter-gather range search: one round over the shards is one
// round of the unsharded loop.
//
// The partitioner is deterministic and contiguous: shard i holds a
// consecutive block of the global sequence numbering. That choice makes the
// merge trivial and exact — every match of shard i precedes every match of
// shard i+1 in the global (sequence, start, end) order, so a scatter-gather
// search delivers shard i's sorted matches as soon as shards 0..i have
// completed, while later shards are still running.
package shard

import "fmt"

// ManifestName is the file that marks a directory as a sharded database
// root and records the partitioning.
const ManifestName = "MANIFEST.shards"

// AssignContiguous names the contiguous block partitioner — the only
// assignment function so far; the manifest records it so a future
// hash-assigned layout cannot be silently misread as a contiguous one.
const AssignContiguous = "contiguous"

// Range is one shard's slice of the global sequence numbering: Count
// sequences starting at global sequence number Start.
type Range struct {
	Start int
	Count int
}

// End returns the exclusive upper bound of the range.
func (r Range) End() int { return r.Start + r.Count }

// Match is one answer subsequence — the type behind the public seqdb.Match.
// Start/End index the sequence's values as a half-open interval; Distance is
// the exact time warping distance from the query. A shard reports Seq in its
// own numbering; the coordinator maps it to the global one.
type Match struct {
	SeqID    string
	Seq      int
	Start    int
	End      int
	Distance float64
}

// Options carries the per-search execution options that travel to every
// shard of a fanned-out query.
type Options struct {
	// Parallelism is the intra-query worker hint forwarded to each shard's
	// engine; the shards themselves always run concurrently with each other.
	Parallelism int
}

// Contiguous deterministically assigns n sequences to shards contiguous
// blocks: the first n%shards shards hold one extra sequence, so any two
// builds over the same inputs produce byte-identical shard contents.
func Contiguous(n, shards int) ([]Range, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	if n < 0 {
		return nil, fmt.Errorf("shard: negative sequence count %d", n)
	}
	base, rem := n/shards, n%shards
	out := make([]Range, shards)
	start := 0
	for i := range out {
		count := base
		if i < rem {
			count++
		}
		out[i] = Range{Start: start, Count: count}
		start += count
	}
	return out, nil
}
