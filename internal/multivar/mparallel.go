package multivar

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"twsearch/internal/disktree"
	"twsearch/internal/suffixtree"
)

// SearchOptions tunes how a single multivariate search executes; the zero
// value is the serial traversal. See core.SearchOptions — the semantics are
// identical: results are byte-identical to serial at every worker count.
type SearchOptions struct {
	// Parallelism is the maximum number of worker goroutines; <= 1 means
	// serial. The engine takes the value as given.
	Parallelism int
}

// SearchOpts is Search with execution options.
func (ix *Index) SearchOpts(q [][]float64, eps float64, opts SearchOptions) ([]Match, Stats, error) {
	if opts.Parallelism <= 1 {
		return ix.search(q, eps, nil)
	}
	return ix.searchParallel(q, eps, nil, opts.Parallelism)
}

// SearchVisitOpts is SearchVisit with execution options. fn is always
// called from the calling goroutine, in the serial delivery order.
func (ix *Index) SearchVisitOpts(q [][]float64, eps float64, fn func(Match) bool, opts SearchOptions) (Stats, error) {
	if fn == nil {
		return Stats{}, errors.New("multivar: nil visitor")
	}
	if opts.Parallelism <= 1 {
		_, stats, err := ix.search(q, eps, fn)
		return stats, err
	}
	_, stats, err := ix.searchParallel(q, eps, fn, opts.Parallelism)
	return stats, err
}

// SearchKNNOpts is SearchKNN with execution options: each threshold-
// expansion round runs as one (possibly parallel) range search.
func (ix *Index) SearchKNNOpts(q [][]float64, k int, opts SearchOptions) ([]Match, Stats, error) {
	return ix.searchKNN(q, k, opts)
}

// mparTask mirrors core.parTask for the multivariate engine: one frontier
// subtree plus the forked prefix rows and path state a worker needs to
// resume the serial DFS there. Index order is DFS rank.
type mparTask struct {
	ptr    disktree.Ptr
	prefix *Table // read-only once published; workers CopyFrom it

	runBroken bool
	firstRun  int
	firstSym  suffixtree.Symbol
	base0     float64

	// envSum/envBase0 resume the envelope row tier at the fork depth; see
	// core.parTask.
	envSum   float64
	envBase0 float64

	frontierMark int
}

type mparResult struct {
	matches []Match
	err     error
}

// searchParallel mirrors core.Index.searchParallel — frontier expansion,
// work-stealing workers over forked tables, ordered merge, single exact
// pass over the merged candidate shards — without the context plumbing
// (the multivariate engine has no cancellation path).
func (ix *Index) searchParallel(q [][]float64, eps float64, visit func(Match) bool, par int) ([]Match, Stats, error) {
	if len(q) == 0 {
		return nil, Stats{}, errors.New("multivar: empty query")
	}
	for i, p := range q {
		if len(p) != ix.Data.Dim() {
			return nil, Stats{}, fmt.Errorf("multivar: query point %d has %d dims, want %d", i, len(p), ix.Data.Dim())
		}
	}
	if eps < 0 {
		return nil, Stats{}, errors.New("multivar: negative distance threshold")
	}
	started := time.Now()
	s := ix.queries.acquire(ix, q, eps, nil)
	defer ix.queries.release(s)

	root := s.node(0)
	if err := s.rd.ReadNodeInto(ix.Tree.Root(), root); err != nil {
		return nil, Stats{}, err
	}
	s.stats.NodesVisited++

	// Frontier expansion; same placement rule as core (a root fanout that
	// dwarfs the worker count splits at depth 1, otherwise at depth 2).
	if len(root.Children) >= 4*par {
		prefix := s.table.Fork(0)
		for i := range root.Children {
			s.tasks = append(s.tasks, mparTask{ptr: root.Children[i].Ptr, prefix: prefix})
		}
	} else {
		s.spawnLevel = 1
		for i := range root.Children {
			if s.stopped {
				break
			}
			if err := s.processEdge(root.Children[i].Ptr, 1, false, 0); err != nil {
				return nil, Stats{}, err
			}
		}
		s.spawnLevel = 0
	}
	tasks := s.tasks

	var stop atomic.Bool
	var cursor atomic.Int64
	results := make([]mparResult, len(tasks))
	nw := par
	if nw > len(tasks) {
		nw = len(tasks)
	}
	workers := make([]*msearcher, nw)
	for i := range workers {
		w := ix.queries.acquire(ix, q, eps, nil)
		w.extStop = &stop
		w.readAhead = true
		workers[i] = w
	}
	done := make(chan int, len(tasks))
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		w := workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k := int(cursor.Add(1)) - 1
				if k >= len(tasks) {
					return
				}
				t := &tasks[k]
				w.table.CopyFrom(t.prefix)
				w.firstSym = t.firstSym
				w.base0 = t.base0
				w.envBase0 = t.envBase0
				w.setEnvSum(w.table.Depth(), t.envSum)
				from := len(w.matches)
				err := w.processEdge(t.ptr, 1, t.runBroken, t.firstRun)
				results[k] = mparResult{
					matches: w.matches[from:len(w.matches):len(w.matches)],
					err:     err,
				}
				done <- k
				if err != nil || w.stopped {
					stop.Store(true)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Stitched delivery in DFS-rank order while workers run.
	var out []Match
	visitorStopped := false
	deliver := func(ms []Match) {
		if visitorStopped {
			return
		}
		for i := range ms {
			if visit == nil {
				out = append(out, ms[i])
				continue
			}
			if !visit(ms[i]) {
				visitorStopped = true
				stop.Store(true)
				return
			}
		}
	}
	frontier := s.matches
	completed := make([]bool, len(tasks))
	nextRank, frontDelivered := 0, 0
	for k := range done { // closed once every worker has exited
		completed[k] = true
		for nextRank < len(tasks) && completed[nextRank] {
			t := &tasks[nextRank]
			deliver(frontier[frontDelivered:t.frontierMark])
			frontDelivered = t.frontierMark
			deliver(results[nextRank].matches)
			nextRank++
		}
	}

	var taskErr error
	for k := range results {
		if results[k].err != nil {
			taskErr = results[k].err
			break
		}
	}
	filterCells := s.table.Cells()
	for _, w := range workers {
		filterCells += w.table.Cells()
		s.stats.NodesVisited += w.stats.NodesVisited
		s.stats.Candidates += w.stats.Candidates
		s.stats.Answers += w.stats.Answers
		s.stats.EnvelopePruned += w.stats.EnvelopePruned
		s.stats.LBCells += w.stats.LBCells
		s.pend.MergeFrom(&w.pend)
		ix.queries.release(w)
	}
	if taskErr != nil {
		return nil, Stats{}, taskErr
	}

	s.stopped = visitorStopped
	if !s.stopped {
		deliver(frontier[frontDelivered:])
	}

	s.visit = visit
	s.matches = out
	s.postProcess()
	out = s.matches

	s.stats.FilterCells = filterCells
	s.stats.PostCells = s.post.Cells()
	s.stats.Elapsed = time.Since(started)
	sortMatches(out)
	s.matches = nil // ownership transfers to the caller; release must not pool it
	return out, s.stats, nil
}

// spawnSubtreeTasks queues every child of n as a parallel task, sharing one
// fork of the prefix rows; see core.searcher.spawnSubtreeTasks.
func (s *msearcher) spawnSubtreeTasks(n *disktree.Node, runBroken bool, firstRun int) {
	prefix := s.table.Fork(s.table.Depth())
	var envSum float64
	if s.envOn {
		envSum = s.envSums[s.table.Depth()]
	}
	for i := range n.Children {
		s.tasks = append(s.tasks, mparTask{
			ptr:          n.Children[i].Ptr,
			prefix:       prefix,
			runBroken:    runBroken,
			firstRun:     firstRun,
			firstSym:     s.firstSym,
			base0:        s.base0,
			envSum:       envSum,
			envBase0:     s.envBase0,
			frontierMark: len(s.matches),
		})
	}
}

// setEnvSum seeds the envelope prefix sum at a task's fork depth; shallower
// entries are never read by the resumed descent.
func (s *msearcher) setEnvSum(depth int, sum float64) {
	for len(s.envSums) <= depth {
		s.envSums = append(s.envSums, 0)
	}
	s.envSums[depth] = sum
}
