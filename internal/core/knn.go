package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// SearchKNNOpts returns the k subsequences with the smallest time warping
// distance to q (ties broken by position), found by iterative threshold
// expansion: the range search at a threshold ε is complete, so as soon as
// it yields at least k answers the k smallest of them are exactly the k
// nearest neighbors. The threshold starts at the scale of one query step
// and quadruples until enough answers appear.
//
// On a window-constrained or length-filtered index, "nearest" is relative
// to that index's semantics: band-constrained distances, answers no shorter
// than the index's floor. If fewer than k subsequences are reachable at all
// (a narrow band can make every distance infinite), the reachable ones are
// returned.
//
// Every expansion round runs under ctx as one (possibly parallel) range
// search, so a cancellation aborts mid-round and returns ctx.Err(), and the
// rounds — and therefore the result and the accumulated stats — are
// byte-identical to the serial call at every parallelism level.
func (ix *Index) SearchKNNOpts(ctx context.Context, q []float64, k int, opts SearchOptions) ([]Match, SearchStats, error) {
	if err := CheckQuery(q); err != nil {
		return nil, SearchStats{}, err
	}
	step := 0.0
	for i := 1; i < len(q); i++ {
		step += math.Abs(q[i] - q[i-1])
	}
	return RunKNN(ctx, k, step/float64(len(q)), func(m Match) float64 { return m.Distance }, func(ctx context.Context, eps float64) ([]Match, SearchStats, error) {
		return ix.run(ctx, q, eps, nil, opts)
	})
}

// RunKNN is the threshold-expansion loop behind every k-NN entry point: the
// scalar and the vector index, and the shard coordinator, whose search is the
// scatter-gather over its shards. search runs one complete range search
// under ctx at the threshold it is given and returns the answers in position
// order; as soon as a round yields at least k, the k smallest by dist — ties
// at the k-th distance going to the earliest positions — are exactly the k
// nearest neighbors, returned still in position order. The first threshold
// is step — the query's mean step, so exact occurrences surface in the first
// round or two — and it quadruples until enough answers appear. The stats of
// every round accumulate. Query validation is the caller's (CheckQuery) or
// search's; a NaN step — what a non-finite query makes — is refused here,
// since every round would run at a NaN threshold.
func RunKNN[M any](ctx context.Context, k int, step float64, dist func(M) float64, search func(ctx context.Context, eps float64) ([]M, SearchStats, error)) ([]M, SearchStats, error) {
	if k <= 0 {
		return nil, SearchStats{}, errors.New("core: k must be positive")
	}
	if !(step >= 0) {
		return nil, SearchStats{}, fmt.Errorf("core: k-NN step %v is not a non-negative number", step)
	}
	eps := step + 1e-9
	var total SearchStats
	for {
		matches, stats, err := search(ctx, eps)
		total.Add(stats)
		if err != nil {
			return nil, total, err
		}
		// Termination: enough answers, or a threshold past any plausible
		// distance — everything reachable has been found (window/length
		// constraints can exclude the rest).
		if len(matches) >= k || eps > 1e18 {
			if len(matches) > k {
				// Rank the indices stably by distance, keep the first k and
				// put them back in index order: position order survives.
				rank := make([]int, len(matches))
				for i := range rank {
					rank[i] = i
				}
				sort.SliceStable(rank, func(i, j int) bool {
					return dist(matches[rank[i]]) < dist(matches[rank[j]])
				})
				rank = rank[:k]
				sort.Ints(rank)
				for i, j := range rank { // i <= j: nothing still needed is overwritten
					matches[i] = matches[j]
				}
				matches = matches[:k]
			}
			total.Answers = uint64(len(matches))
			return matches, total, nil
		}
		eps *= 4
	}
}
