package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"twsearch/internal/core"
)

// Stats re-exports the engine's per-search work counters: the coordinator
// merges one per shard, exactly once, at the join barrier.
type Stats = core.SearchStats

// Backend is one shard as the coordinator sees it: a complete database that
// answers range searches (and scans) over its own slice of the sequences.
// Matches come back in the shard's local (sequence, start, end) order with
// shard-local sequence numbers; the coordinator adds the shard's base
// offset. seqdb's in-process shard of a ShardedDB and a test fake implement
// it.
type Backend interface {
	// Search runs a range search through the named index and returns the
	// complete local answer set sorted by (sequence, start, end).
	Search(ctx context.Context, index string, q []float64, eps float64) ([]Match, Stats, error)
	// Scan runs the exhaustive sequential-scan baseline.
	Scan(ctx context.Context, q []float64, eps float64) ([]Match, Stats, error)
	// DistanceBound returns a number no finite distance between q and a
	// subsequence the named index can return exceeds (core.DistanceBound).
	DistanceBound(index string, q []float64) (float64, error)
}

// PartialError reports a scatter-gather search in which one or more shards
// failed. Answered lists the shards that returned complete results (their
// matches may already have been streamed to the caller), Failed the shards
// that did not; Cause is the first failure in shard order. Unwrap exposes
// the cause, so errors.Is sees through to context.DeadlineExceeded, a
// wire error code, or whatever the shard reported.
type PartialError struct {
	Answered []int
	Failed   []int
	Cause    error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("shard: %d/%d shards answered (failed %v): %v",
		len(e.Answered), len(e.Answered)+len(e.Failed), e.Failed, e.Cause)
}

// Unwrap exposes the first underlying shard failure.
func (e *PartialError) Unwrap() error { return e.Cause }

// Coordinator fans one search out over every shard in parallel and merges
// the streams back in global order. It is stateless between calls and safe
// for concurrent use: per-search state lives on the stack of each call.
type Coordinator struct {
	backends []Backend
	bases    []int
}

// NewCoordinator assembles a coordinator from the shard backends and the
// manifest ranges that place each shard in the global sequence numbering.
func NewCoordinator(backends []Backend, ranges []Range) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, errors.New("shard: no backends")
	}
	if len(backends) != len(ranges) {
		return nil, fmt.Errorf("shard: %d backends but %d manifest ranges", len(backends), len(ranges))
	}
	bases := make([]int, len(ranges))
	for i, r := range ranges {
		bases[i] = r.Start
	}
	return &Coordinator{backends: backends, bases: bases}, nil
}

// Shards returns the number of shards behind the coordinator.
func (c *Coordinator) Shards() int { return len(c.backends) }

// gather runs one scatter-gather round: `run` executes on every backend
// concurrently, and completed shards' matches (rebased to global sequence
// numbers) are delivered to fn strictly in shard order — which, with the
// contiguous partitioner, is the global (sequence, start, end) order.
// Delivery of shard i begins as soon as shards 0..i have completed, while
// later shards are still searching, so the head of a large answer stream
// reaches the caller before the slowest shard finishes.
//
// Work counters are aggregated exactly at the join barrier: each worker
// owns its private Stats slot and the driver sums the slots only after
// wg.Wait.
func (c *Coordinator) gather(
	ctx context.Context,
	run func(ctx context.Context, b Backend) ([]Match, Stats, error),
	fn func(Match) bool,
) (Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(c.backends)
	matches := make([][]Match, n)
	errs := make([]error, n)
	stats := make([]Stats, n)
	done := make([]chan struct{}, n)
	started := time.Now()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		done[i] = make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done[i])
			ms, st, err := run(ctx, c.backends[i])
			if err != nil {
				errs[i] = err
				return
			}
			rebase(ms, c.bases[i])
			matches[i] = ms
			stats[i] = st
		}(i)
	}

	// Ordered incremental delivery: wait for each shard in shard order and
	// stream its (already sorted) matches. The close of done[i] orders the
	// worker's writes before the reads here. A visitor stop or a shard
	// failure cancels the remaining shards; delivery never resumes after
	// either, so the delivered stream is always an exact prefix of the
	// global order.
	stopped := false
	var firstErr error
	for i := 0; i < n && !stopped && firstErr == nil; i++ {
		<-done[i]
		if errs[i] != nil {
			firstErr = errs[i]
			cancel()
			break
		}
		for _, m := range matches[i] {
			if !fn(m) {
				stopped = true
				cancel()
				break
			}
		}
	}
	wg.Wait()

	var merged Stats
	for i := range stats {
		merged.Add(stats[i])
	}
	merged.Elapsed = time.Since(started)
	if firstErr == nil || stopped {
		return merged, nil
	}
	var answered, failed []int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			failed = append(failed, i)
		} else {
			answered = append(answered, i)
		}
	}
	return merged, &PartialError{Answered: answered, Failed: failed, Cause: firstErr}
}

// checkRange refuses, before any shard is asked, a query or threshold every
// shard would refuse: the failure is the request's, not a partial outage.
func checkRange(q []float64, eps float64) error {
	if err := core.CheckQuery(q); err != nil {
		return err
	}
	return core.CheckThreshold(eps)
}

// rebase maps a shard's local sequence numbers into the global numbering.
func rebase(ms []Match, base int) {
	for i := range ms {
		ms[i].Seq += base
	}
}

// SearchVisit streams a range search's answers to fn in global (sequence,
// start, end) order; returning false stops the search and cancels the
// remaining shards. The answer set — matches and exact distances — is
// identical to the unsharded search over the same data at any shard count.
func (c *Coordinator) SearchVisit(ctx context.Context, index string, q []float64, eps float64, fn func(Match) bool) (Stats, error) {
	if err := checkRange(q, eps); err != nil {
		return Stats{}, err
	}
	return c.gather(ctx, func(ctx context.Context, b Backend) ([]Match, Stats, error) {
		return b.Search(ctx, index, q, eps)
	}, fn)
}

// Search materializes a range search's full answer set in global order. Like
// the unsharded search, an empty answer set is an empty slice, not nil.
func (c *Coordinator) Search(ctx context.Context, index string, q []float64, eps float64) ([]Match, Stats, error) {
	out := []Match{}
	stats, err := c.SearchVisit(ctx, index, q, eps, func(m Match) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// Scan fans the exhaustive sequential-scan baseline out over the shards.
func (c *Coordinator) Scan(ctx context.Context, q []float64, eps float64) ([]Match, Stats, error) {
	if err := checkRange(q, eps); err != nil {
		return nil, Stats{}, err
	}
	out := []Match{}
	stats, err := c.gather(ctx, func(ctx context.Context, b Backend) ([]Match, Stats, error) {
		return b.Scan(ctx, q, eps)
	}, func(m Match) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// SearchKNN returns the k globally nearest subsequences in (sequence,
// start, end) order — byte-identical to the unsharded SearchKNN, because it
// is the engine's own expansion loop over the coordinator's range search:
// the union of the shards' complete answers at a threshold is the complete
// global answer there, so a scatter-gather round is a round of the unsharded
// loop, and its bound is the largest of the shards'. A failed shard fails
// the call with a *PartialError: its round's, or, when it could not give
// its bound, one that names only it, before any round runs.
func (c *Coordinator) SearchKNN(ctx context.Context, index string, q []float64, k int) ([]Match, Stats, error) {
	if err := core.CheckQuery(q); err != nil {
		return nil, Stats{}, err
	}
	step := 0.0
	for i := 1; i < len(q); i++ {
		step += math.Abs(q[i] - q[i-1])
	}
	bound := 0.0
	for i, b := range c.backends {
		bi, err := b.DistanceBound(index, q)
		if err != nil {
			return nil, Stats{}, &PartialError{Failed: []int{i}, Cause: err}
		}
		bound = max(bound, bi)
	}
	return core.RunKNN(ctx, k, step/float64(len(q)), bound, func(m Match) float64 { return m.Distance }, func(ctx context.Context, eps float64) ([]Match, Stats, error) {
		return c.Search(ctx, index, q, eps)
	})
}

// PositionCompare orders matches by (sequence, start, end) — the engine's
// deterministic output order, and the one comparison every layer that sorts
// matches (coordinator, client) shares — in the form slices.SortFunc takes.
func PositionCompare(a, b Match) int {
	if a.Seq != b.Seq {
		return cmp.Compare(a.Seq, b.Seq)
	}
	if a.Start != b.Start {
		return cmp.Compare(a.Start, b.Start)
	}
	return cmp.Compare(a.End, b.End)
}
