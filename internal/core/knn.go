package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"twsearch/internal/dtw"
)

// QueryStep is the mean base distance between consecutive points of q, a
// point-major query of dimension dim: RunKNN's first threshold.
func QueryStep(q []float64, dim int) float64 {
	n := len(q) / dim
	step := 0.0
	for i := dim; i < len(q); i += dim {
		s := 0.0
		for k := i; k < i+dim; k++ {
			s += dtw.Base(q[k], q[k-dim])
		}
		step += s
	}
	return step / float64(n)
}

// DistanceBound is RunKNN's bound for q over the index's data. The base
// distance sums over dimensions, so the value spans do, in the same order.
func (ix *Index) DistanceBound(q []float64) float64 {
	dim := len(ix.lo)
	span := 0.0
	for k := 0; k < dim; k++ {
		lo, hi := ix.lo[k], ix.hi[k]
		for i := k; i < len(q); i += dim {
			lo, hi = min(lo, q[i]), max(hi, q[i])
		}
		span += hi - lo
	}
	return DistanceBound(ix.maxLen, len(q)/dim, span)
}

// DistanceBound returns a number no finite time warping distance between a
// query of qLen elements and a subsequence at most maxLen long exceeds when
// no base distance exceeds span: a warping path has at most maxLen+qLen-1
// cells. The margin covers the rounding of a sum of that many terms.
func DistanceBound(maxLen, qLen int, span float64) float64 {
	n := float64(maxLen + qLen - 1)
	return n * span * (1 + n*0x1p-52)
}

// RunKNN is the threshold-expansion loop behind every k-NN search — the
// shard coordinator's, whose search is the scatter-gather over its shards,
// at every shard count. search runs one complete range search under ctx at
// the threshold it is given and returns the answers in position order; the
// range search at a threshold is complete, so as soon as a round yields at
// least k, the k smallest by dist — ties at the k-th distance going to the
// earliest positions — are exactly the k nearest neighbors, returned still
// in position order. The first threshold is step — the query's mean step,
// so exact occurrences surface in the first round or two — and it
// quadruples until enough answers appear or a round has run at or past
// bound, an upper bound of every finite distance (DistanceBound): that
// round found every reachable subsequence, and fewer than k are returned
// when that is all there is (a narrow band can make every distance
// infinite). On a window-constrained or length-filtered index "nearest" is
// relative to that index's semantics: band-constrained distances, answers
// no shorter than its floor. The stats of every round accumulate. Query
// validation is the caller's (CheckQuery) or search's; a NaN step — what a
// non-finite query makes — or bound is refused here.
func RunKNN[M any](ctx context.Context, k int, step, bound float64, dist func(M) float64, search func(ctx context.Context, eps float64) ([]M, SearchStats, error)) ([]M, SearchStats, error) {
	if k <= 0 {
		return nil, SearchStats{}, errors.New("core: k must be positive")
	}
	if !(step >= 0) {
		return nil, SearchStats{}, fmt.Errorf("core: k-NN step %v is not a non-negative number", step)
	}
	if !(bound >= 0) {
		return nil, SearchStats{}, fmt.Errorf("core: k-NN distance bound %v is not a non-negative number", bound)
	}
	eps := step + 1e-9
	var total SearchStats
	for {
		matches, stats, err := search(ctx, eps)
		total.Add(stats)
		if err != nil {
			return nil, total, err
		}
		if len(matches) >= k || eps >= bound {
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
