package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"twsearch/internal/core"
)

// Stats re-exports the engine's per-search work counters: the coordinator
// merges one per shard, exactly once, at the join barrier.
type Stats = core.SearchStats

// Backend is one shard as the coordinator sees it: a complete database that
// answers range searches (and scans) over its own slice of the sequences.
// Answers stream to the visitor in the shard's local (sequence, start, end)
// order with shard-local sequence numbers; the coordinator adds the shard's
// base offset. Each shard of a seqdb.DB implements it, and so does this
// package's test fake, which fails and stalls shards on cue.
type Backend interface {
	// Search runs a range search through the named index and hands every
	// answer to fn in (sequence, start, end) order; fn returning false
	// stops the search.
	Search(ctx context.Context, index string, q []float64, eps float64, fn func(Match) bool) (Stats, error)
	// Scan runs the exhaustive sequential-scan baseline, delivering as
	// Search does.
	Scan(ctx context.Context, q []float64, eps float64, fn func(Match) bool) (Stats, error)
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
	// dim is the dimension of every shard's points and of every query.
	dim int
}

// NewCoordinator assembles a coordinator from the shard backends, the
// manifest ranges that place each shard in the global sequence numbering,
// and the dimension of the shards' points.
func NewCoordinator(backends []Backend, ranges []Range, dim int) (*Coordinator, error) {
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
	return &Coordinator{backends: backends, bases: bases, dim: dim}, nil
}

// gather runs one scatter-gather round: run executes on every backend, and
// the answers (rebased to global sequence numbers) reach fn strictly in
// shard order — which, with the contiguous partitioner, is the global
// (sequence, start, end) order. Shard 0 runs on the calling goroutine and
// streams straight to fn; shards 1..n-1 search concurrently into buffers,
// each delivered once the shards before it are, while later shards still
// search. A database of one shard so costs no goroutine, no buffer and no
// merge, and its failure is returned as the shard reported it.
//
// A visitor stop or a shard failure cancels the remaining shards; delivery
// never resumes after either, so the delivered stream is always an exact
// prefix of the global order. Work counters are summed after every shard
// has returned.
func (c *Coordinator) gather(
	ctx context.Context,
	run func(ctx context.Context, b Backend, fn func(Match) bool) (Stats, error),
	fn func(Match) bool,
) (Stats, error) {
	n := len(c.backends)
	if n == 1 {
		return run(ctx, c.backends[0], rebased(fn, c.bases[0]))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	matches := make([][]Match, n)
	errs := make([]error, n)
	stats := make([]Stats, n)
	done := make([]chan struct{}, n)
	started := time.Now()

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		done[i] = make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done[i])
			stats[i], errs[i] = run(ctx, c.backends[i], rebased(func(m Match) bool {
				matches[i] = append(matches[i], m)
				return true
			}, c.bases[i]))
		}(i)
	}

	stopped := false
	deliver := func(m Match) bool {
		stopped = !fn(m)
		return !stopped
	}
	stats[0], errs[0] = run(ctx, c.backends[0], rebased(deliver, c.bases[0]))
	firstErr := errs[0]
	// The close of done[i] orders shard i's writes before the reads here.
	for i := 1; i < n && !stopped && firstErr == nil; i++ {
		<-done[i]
		if firstErr = errs[i]; firstErr != nil {
			break
		}
		for _, m := range matches[i] {
			if !deliver(m) {
				break
			}
		}
	}
	cancel()
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

// rebased returns fn seeing a shard's answers under global sequence
// numbers: its local ones plus base.
func rebased(fn func(Match) bool, base int) func(Match) bool {
	if base == 0 {
		return fn
	}
	return func(m Match) bool {
		m.Seq += base
		return fn(m)
	}
}

// checkRange refuses, before any shard is asked, a query or threshold every
// shard would refuse: the failure is the request's, not a partial outage.
// One shard's own refusal is already the request's, so a database of one
// shard leaves the check to it.
func (c *Coordinator) checkRange(q []float64, eps float64) error {
	if len(c.backends) == 1 {
		return nil
	}
	if err := core.CheckQuery(q, c.dim); err != nil {
		return err
	}
	return core.CheckThreshold(eps)
}

// SearchVisit streams a range search's answers to fn in global (sequence,
// start, end) order; returning false stops the search and cancels the
// remaining shards. The answer set — matches and exact distances — is
// identical to the unsharded search over the same data at any shard count.
func (c *Coordinator) SearchVisit(ctx context.Context, index string, q []float64, eps float64, fn func(Match) bool) (Stats, error) {
	if err := c.checkRange(q, eps); err != nil {
		return Stats{}, err
	}
	return c.gather(ctx, func(ctx context.Context, b Backend, fn func(Match) bool) (Stats, error) {
		return b.Search(ctx, index, q, eps, fn)
	}, fn)
}

// Search materializes a range search's full answer set in global order.
func (c *Coordinator) Search(ctx context.Context, index string, q []float64, eps float64) ([]Match, Stats, error) {
	return collect(func(fn func(Match) bool) (Stats, error) {
		return c.SearchVisit(ctx, index, q, eps, fn)
	})
}

// Scan fans the exhaustive sequential-scan baseline out over the shards and
// materializes its answers in global order.
func (c *Coordinator) Scan(ctx context.Context, q []float64, eps float64) ([]Match, Stats, error) {
	if err := c.checkRange(q, eps); err != nil {
		return nil, Stats{}, err
	}
	return collect(func(fn func(Match) bool) (Stats, error) {
		return c.gather(ctx, func(ctx context.Context, b Backend, fn func(Match) bool) (Stats, error) {
			return b.Scan(ctx, q, eps, fn)
		}, fn)
	})
}

// collect materializes the answers visit streams. Like the engine's, an
// empty answer set is an empty slice, not nil.
func collect(visit func(fn func(Match) bool) (Stats, error)) ([]Match, Stats, error) {
	out := []Match{}
	stats, err := visit(func(m Match) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// SearchKNN returns the k globally nearest subsequences in (sequence,
// start, end) order, because it is the engine's own expansion loop over the
// coordinator's range search: the union of the shards' complete answers at
// a threshold is the complete global answer there, so a scatter-gather
// round is a round of the unsharded loop, and its bound is the largest of
// the shards'. A shard that cannot give its bound fails the call before any
// round runs — on a database of more than one shard with a *PartialError
// that names only it — and a failed round fails it as the round did.
func (c *Coordinator) SearchKNN(ctx context.Context, index string, q []float64, k int) ([]Match, Stats, error) {
	bound := 0.0
	for i, b := range c.backends {
		bi, err := b.DistanceBound(index, q)
		if err != nil {
			if len(c.backends) > 1 {
				err = &PartialError{Failed: []int{i}, Cause: err}
			}
			return nil, Stats{}, err
		}
		bound = max(bound, bi)
	}
	if err := core.CheckQuery(q, c.dim); err != nil {
		return nil, Stats{}, err
	}
	return core.RunKNN(ctx, k, core.QueryStep(q, c.dim), bound, func(m Match) float64 { return m.Distance }, func(ctx context.Context, eps float64) ([]Match, Stats, error) {
		return c.Search(ctx, index, q, eps)
	})
}
