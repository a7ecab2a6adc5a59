package core

import (
	"sync"
	"sync/atomic"

	"twsearch/internal/disktree"
	"twsearch/internal/dtw"
	"twsearch/internal/suffixtree"
)

// SearchOptions tunes how a single search call executes. The zero value is
// the serial traversal every existing entry point uses.
type SearchOptions struct {
	// Parallelism is the maximum number of worker goroutines one search may
	// use to walk disjoint subtrees concurrently; <= 1 means serial. The
	// engine takes the value as given — callers that want to track the
	// machine pass min(runtime.GOMAXPROCS(0), desired) — because results
	// are byte-identical to serial at any worker count, and tests rely on
	// exercising multi-worker schedules even on small machines.
	Parallelism int
}

// parTask is one unit of parallel work: a subtree hanging off the frontier,
// plus everything a worker needs to resume the traversal there exactly as
// the serial DFS would have entered it — the forked prefix rows of the
// cumulative table (the paper's R_d sharing cut at the frontier) and the
// leading-run state of the path. Tasks are created in DFS order; a task's
// index is its DFS rank, which the merge uses to reassemble serial order.
type parTask struct {
	ptr    disktree.Ptr
	prefix *dtw.Rows // read-only once published; workers CopyFrom it

	runBroken bool
	firstRun  int
	firstSym  suffixtree.Symbol
	base0     float64
	// pendD and pendDist are the path's deferred collect (processEdge): the
	// task's subtree is collected with them wherever its descents stop.
	pendD    int
	pendDist float64

	// envSum is the envelope row gate's LB_Keogh prefix sum at the fork
	// depth, and envBase0 its per-shift discount unit — the two scalars a
	// worker needs to resume the gate exactly where the serial descent
	// would have been.
	envSum   float64
	envBase0 float64

	// frontierMark is how many filter-pass matches the frontier expansion
	// had emitted when this task was queued: in serial order, those matches
	// precede this task's subtree.
	frontierMark int
}

// parResult is what one completed task hands back to the merge.
type parResult struct {
	matches []Match
	err     error
}

// frontierRootFanout decides where the task frontier sits: when the root
// already has at least this many children per worker (identity trees, whose
// fanout is the alphabet), splitting at depth 1 gives plenty of tasks;
// otherwise the expansion descends one more level so tasks are grandchild
// subtrees — on a categorized tree that is O(c²) tasks from O(c) cheap
// root edges.
const frontierRootFanout = 4

// searchParallel is the filter pass across par worker goroutines, merged back
// into serial order; Run's single ordered exact pass follows it on the
// driver s. The phases:
//
//  1. Frontier expansion (this goroutine): walk the tree down to a shallow
//     frontier exactly like the serial DFS, but queue each subtree below it
//     as a task instead of descending. Each task forks the cumulative
//     table's prefix rows, so the shared-prefix work is done (and counted)
//     exactly once.
//  2. Work stealing: workers pull tasks from an atomic cursor, rebuild the
//     entry state with the kernel's CopyFrom, and run the unmodified serial
//     processEdge over their subtree. Theorem 1/2/3 pruning decisions are
//     path-local, so every task prunes exactly as serial would.
//  3. Ordered merge (this goroutine): completed tasks are stitched back in
//     DFS-rank order — interleaved with the frontier's own matches at each
//     task's frontierMark — so a visitor sees the serial delivery order.
//     Candidate shards merge onto the driver's pending set (order-
//     independent by construction), and the driver is left holding the
//     visitor and the stitched matches for the exact pass.
func (s *searcher) searchParallel(bind BindFunc, visit func(Match) bool, par int) error {
	e := s.e
	root := s.node(0)
	if err := s.rd.ReadNodeInto(e.Tree.Root(), root); err != nil {
		return err
	}
	s.stats.NodesVisited++

	// Phase 1: frontier expansion.
	if len(root.Children) >= frontierRootFanout*par {
		prefix := s.kern.Fork(0)
		for i := range root.Children {
			s.tasks = append(s.tasks, parTask{ptr: root.Children[i].Ptr, prefix: prefix, pendDist: dtw.Inf})
		}
	} else {
		s.spawnLevel = 1
		for i := range root.Children {
			if s.stopped {
				break
			}
			if err := s.processEdge(root.Children[i].Ptr, 1, 0, false, 0, 0, dtw.Inf); err != nil {
				return err
			}
		}
		s.spawnLevel = 0
	}
	tasks := s.tasks

	// Phase 2: workers steal tasks. Searchers are acquired and released by
	// this goroutine so the pool hand-off stays single-owner; the stop flag
	// halts every worker on visitor stop, task error, or cancellation.
	var stop atomic.Bool
	var cursor atomic.Int64
	results := make([]parResult, len(tasks))
	nw := par
	if nw > len(tasks) {
		nw = len(tasks)
	}
	workers := make([]*searcher, nw)
	for i := range workers {
		w := e.queries.acquire(e, s.ctx, bind, s.eps)
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
				depth := t.prefix.Depth()
				w.kern.CopyFrom(t.prefix)
				w.firstSym = t.firstSym
				w.base0 = t.base0
				w.envBase0 = t.envBase0
				w.setEnvSum(depth, t.envSum)
				from := len(w.matches)
				err := w.processEdge(t.ptr, 1, depth, t.runBroken, t.firstRun, t.pendD, t.pendDist)
				results[k] = parResult{
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

	// Phase 3: stitched delivery in DFS-rank order while workers run.
	// deliver never touches stats — filter-pass answers were counted by
	// whichever searcher emitted them.
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

	// All workers have exited. Merge their counters and candidate shards,
	// pick the first error in DFS order (what the serial traversal would
	// have hit first), then hand the searchers back.
	var taskErr error
	for k := range results {
		if results[k].err != nil {
			taskErr = results[k].err
			break
		}
	}
	for _, w := range workers {
		if s.ctxErr == nil {
			s.ctxErr = w.ctxErr
		}
		filterCells, _ := w.kern.Cells()
		s.stats.FilterCells += filterCells
		s.stats.NodesVisited += w.stats.NodesVisited
		s.stats.Candidates += w.stats.Candidates
		s.stats.Answers += w.stats.Answers
		s.stats.EnvelopePruned += w.stats.EnvelopePruned
		s.stats.LBCells += w.stats.LBCells
		s.pend.MergeFrom(&w.pend)
		e.queries.release(w)
	}
	if taskErr != nil {
		return taskErr
	}

	// Remaining frontier matches follow the last task's subtree in serial
	// order. On cancellation or visitor stop nothing further is delivered,
	// matching the serial early-stop path — the exact pass included, which
	// emits straight to the visitor (serial order) or onto the stitched
	// result slice.
	s.stopped = visitorStopped || s.ctxErr != nil
	if !s.stopped {
		deliver(frontier[frontDelivered:])
	}
	s.visit = visit
	s.matches = out
	return nil
}

// spawnSubtreeTasks queues every child of n as a parallel task. The prefix
// rows computed so far are forked once and shared read-only by all of n's
// children; each task snapshots the path state a serial descent would carry
// into that child.
func (s *searcher) spawnSubtreeTasks(n *disktree.Node, depth int, runBroken bool, firstRun, pendD int, pendDist float64) {
	prefix := s.kern.Fork(depth)
	var envSum float64
	if s.envOn {
		envSum = s.envSums[depth]
	}
	for i := range n.Children {
		s.tasks = append(s.tasks, parTask{
			ptr:          n.Children[i].Ptr,
			prefix:       prefix,
			runBroken:    runBroken,
			firstRun:     firstRun,
			firstSym:     s.firstSym,
			base0:        s.base0,
			pendD:        pendD,
			pendDist:     pendDist,
			envSum:       envSum,
			envBase0:     s.envBase0,
			frontierMark: len(s.matches),
		})
	}
}

// setEnvSum seeds the envelope prefix sum at a parallel task's fork depth;
// shallower entries are never read by the resumed descent, so only the one
// slot matters.
//
//twlint:steady-state
func (s *searcher) setEnvSum(depth int, sum float64) {
	for len(s.envSums) <= depth {
		//lint:ignore steadystate pooled scratch: the prefix-sum slice grows once per context to the deepest fork depth, then every later task reuses the capacity
		s.envSums = append(s.envSums, 0)
	}
	s.envSums[depth] = sum
}
