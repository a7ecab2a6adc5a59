package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"twsearch/internal/disktree"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

// run executes one range search: every subsequence whose time warping
// distance from q is at most eps streams to visit (returning false stops
// the search) from the calling goroutine, in (sequence, start, end) order.
// It refuses an empty, misshapen or non-finite query and a negative or NaN
// threshold.
//
// When ctx is canceled or its deadline passes, the traversal aborts through
// the same early-stop path a visitor uses, no further answer is delivered
// and ctx.Err() is returned. Cancellation is checked every cancelMask+1 tree
// nodes, before every sequence's backward pass and every 256 of its rows,
// and every cancelMask+1 verified starts, so an abort costs at most 256
// backward rows or 64 starts' verification scans.
func (ix *Index) run(ctx context.Context, q []float64, eps float64, visit func(Match) bool) (SearchStats, error) {
	if err := CheckQuery(q, ix.Data.Dim()); err != nil {
		return SearchStats{}, err
	}
	if err := CheckThreshold(eps); err != nil {
		return SearchStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return SearchStats{}, err
	}
	started := time.Now()
	// Pool counters are index-wide: under concurrent searches the deltas
	// attribute other goroutines' traffic too. Matches stay byte-identical;
	// only these advisory counters blur.
	poolBefore := ix.Tree.PoolStats()
	pagesBefore := ix.Tree.PagesRead()

	s := ix.queries.acquire(ix, ctx, q, eps)
	defer ix.queries.release(s)

	s.visit = visit
	if err := s.filter(); err != nil {
		return SearchStats{}, err
	}
	s.postProcess()

	var gaps uint64
	s.stats.FilterCells, s.stats.PostCells, gaps = s.kern.Cells()
	s.stats.LBCells += gaps
	poolAfter := ix.Tree.PoolStats()
	s.stats.PoolHits = poolAfter.Hits - poolBefore.Hits
	s.stats.PoolMisses = poolAfter.Misses - poolBefore.Misses
	s.stats.PagesRead = ix.Tree.PagesRead() - pagesBefore
	s.stats.Elapsed = time.Since(started)
	return s.stats, s.ctxErr
}

// filter is the filter pass: the depth-first traversal from the root,
// which only adds to s.found (the verification pass, postProcess,
// delivers). It is the only phase of a search that reads the tree, so the
// tree's fault guard is armed around it alone: a page of a mapped tree cut
// since open fails the search with storage.ErrRead instead of the process,
// and a visitor's panic, which comes later, is not the guard's to see.
func (s *searcher) filter() (err error) {
	defer s.ix.Tree.GuardFaults().Recover(&err)
	root := s.node(0)
	if err := s.rd.ReadNodeInto(s.ix.Tree.Root(), root); err != nil {
		return err
	}
	s.stats.NodesVisited++
	for i := 0; i < len(root.Children) && !s.stopped; i++ {
		if err := s.processEdge(root.Children[i].Ptr, 1, 0, false, 0, 0, dtw.Inf); err != nil {
			return err
		}
	}
	return nil
}

// Search finds every subsequence whose time warping distance from q, a
// point-major query of the data's dimension, is at most eps — the paper's
// SimSearch-ST, SimSearch-ST_C or SimSearch-SST_C, selected by how the
// index was built. Results are sorted by (sequence, start, end), and the
// returned set is exactly what SeqScan returns: the guarantee is no false
// dismissals. When ctx is canceled or its deadline passes the search
// aborts and ctx.Err() is returned.
func (ix *Index) Search(ctx context.Context, q []float64, eps float64) ([]Match, SearchStats, error) {
	var ms []Match
	stats, err := ix.run(ctx, q, eps, func(m Match) bool {
		ms = append(ms, m)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return ms, stats, nil
}

// SearchVisit streams answers to fn instead of materializing them;
// returning false stops the search early. Use it when a permissive threshold
// would produce answer sets too large to hold in memory. fn is called from
// the calling goroutine, in the (sequence, start, end) order Search returns,
// once the filter pass has ended. After a cancellation no further answers
// are delivered to fn.
func (ix *Index) SearchVisit(ctx context.Context, q []float64, eps float64, fn func(Match) bool) (SearchStats, error) {
	if fn == nil {
		return SearchStats{}, errors.New("core: nil visitor")
	}
	return ix.run(ctx, q, eps, fn)
}

// CheckQuery refuses a query no search of data of dimension dim can
// answer: an empty one, one that is not a whole number of dim-dimensional
// points (ErrDimension), or one holding a NaN or an infinity — its distance
// to every subsequence would be NaN or +Inf, so the search would silently
// find nothing.
func CheckQuery(q []float64, dim int) error {
	if len(q) == 0 {
		return errors.New("core: empty query")
	}
	if len(q)%dim != 0 {
		return fmt.Errorf("core: a query of %d values is not a whole number of %d-dimensional points: %w", len(q), dim, ErrDimension)
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: query value %d is %v, not a finite number", i, v)
		}
	}
	return nil
}

// CheckThreshold refuses a distance threshold that is negative or NaN. A
// NaN compares false against every bound, so it would prune nothing and
// accept nothing: a full traversal for an empty answer. +Inf is a
// threshold — every subsequence is within it.
func CheckThreshold(eps float64) error {
	if !(eps >= 0) {
		return fmt.Errorf("core: distance threshold %v is not a non-negative number", eps)
	}
	return nil
}

// searcher is the pooled per-query execution context: every piece of
// mutable search state lives here, so the Index it runs against stays
// read-only and shareable across goroutines. One cumulative distance table
// (the kernel's) is shared by the whole traversal: descend = AddRow,
// backtrack = Truncate — the paper's R_d table-sharing. A searcher is reused
// across queries via queryPool; acquire rebinds everything per call.
type searcher struct {
	ix *Index
	// ctx carries the caller's cancellation; checkCancel folds it into the
	// stopped flag so aborts flow through the one early-stop path shared
	// with visitors. ctxErr records the reason for the final error return.
	ctx    context.Context
	ctxErr error
	eps    float64
	// kern holds the query, its two tables and its envelope; qLen is the
	// query's length.
	kern   Kernel
	qLen   int
	sparse bool

	stats SearchStats

	// found is what the filter pass found: the starts to verify, each with
	// an end (key: seqOffsets[seq]+start). postProcess scans each start
	// once, to its furthest end: every end whose exact distance is within
	// eps is an answer, and by the no-false-dismissal property those are
	// exactly the true answers at that start — so one table per start
	// verifies all its candidates at once, bounding post-processing by the
	// baseline's total work.
	found      findings
	seqOffsets []int
	// onHit is the method value s.verified, made once per pooled searcher;
	// the kernel's Verify calls it for every answer at the start
	// (vseq, vstart) under verification.
	onHit        func(end int, dist float64)
	vseq, vstart int
	// starts and ends hold one sequence's starts to verify and their
	// furthest ends for its backward pass, live its verdict on each; onMore
	// is the method value s.more that pass polls. All keep their capacity
	// across the queries of the pooled searcher.
	starts, ends []int32
	live         []bool
	onMore       func() bool
	// admitted holds the starts of the run admit offers that admission
	// leaves to verify; it keeps its capacity too.
	admitted []int32

	// nodes[level] is the scratch node for DFS level; collectNodes[level]
	// serves the leaf-collection recursion. Reuse keeps the traversal
	// allocation-free after warmup.
	nodes        []*disktree.Node
	collectNodes []*disktree.Node
	// rd reads every node of the traversal, holding the page of the last
	// one between reads; queryPool.release closes it, so no path out of a
	// search leaves a page pinned.
	rd disktree.Reader

	// firstSym and base0 describe the current root-to-here path's first
	// symbol: base0 = D_base-lb(q[0], interval(firstSym)) is the per-shift
	// discount of D_tw-lb2 (Definition 4).
	firstSym suffixtree.Symbol
	base0    float64

	// The envelope row gate. The kernel holds the query's Sakoe–Chiba
	// envelope under the filter window (constant on sparse trees, whose
	// filter is always unconstrained — which is exactly what makes the bound
	// shift-safe for D_tw-lb2 candidates; one envelope per dimension for
	// vectors, whose base distance and gap both sum over dimensions).
	// envSums[d] is the running LB_Keogh prefix: the sum of per-row envelope
	// gaps over the current path's first d rows; it lower-bounds every
	// filter distance at depth >= d, so a row whose new sum (minus the
	// sparse shift discount) exceeds eps is cut before its O(|Q|) table row
	// is computed. envBase0 is the first row's envelope gap — the per-shift
	// discount unit of the envelope bound, playing base0's role (each
	// shifted-away leading-run row contributed exactly envBase0 to the
	// sum). envOn switches the gate.
	envSums  []float64
	envBase0 float64
	envOn    bool

	// visit receives the answers; stopped records an early stop request.
	visit   func(Match) bool
	stopped bool
}

// checkCancel polls the context and converts a cancellation into the
// early-stop flag. The traversal calls it every cancelMask+1 nodes, the
// verification pass every cancelMask+1 verified starts; both are frequent
// enough to bound abort latency and rare enough to keep ctx.Err — a mutex
// round trip under a cancel context — off the hot path.
//
//twlint:steady-state
func (s *searcher) checkCancel() {
	if s.ctxErr != nil {
		return
	}
	if err := s.ctx.Err(); err != nil {
		s.ctxErr = err
		s.stopped = true
	}
}

// more polls the context for a backward pass and reports whether the
// search goes on.
//
//twlint:steady-state
func (s *searcher) more() bool {
	s.checkCancel()
	return !s.stopped
}

// cancelMask thins cancellation checks to one per 64 nodes, verified starts
// or scanned start positions.
const cancelMask = 63

// emit hands one answer to the visitor. After an early stop nothing
// further is delivered.
//
//twlint:steady-state
func (s *searcher) emit(m Match) {
	if !s.stopped {
		s.stats.Answers++
		s.stopped = !s.visit(m)
	}
}

func (s *searcher) node(level int) *disktree.Node {
	for len(s.nodes) <= level {
		s.nodes = append(s.nodes, &disktree.Node{})
	}
	return s.nodes[level]
}

func (s *searcher) collectNode(level int) *disktree.Node {
	for len(s.collectNodes) <= level {
		s.collectNodes = append(s.collectNodes, &disktree.Node{})
	}
	return s.collectNodes[level]
}

// processEdge walks the edge label into the node at ptr, adding one table
// row per symbol, noting whenever a row qualifies, pruning by Theorem 1
// (adjusted for the sparse shift discount), and recursing into children.
// depth is the number of filter rows on entry — the traversal counts them
// itself rather than asking the kernel — and runBroken/firstRun describe the
// path's leading equal-symbol run; the table is restored to its entry depth
// before returning.
//
// Deferred emission: a candidate only contributes its start and an end to
// the found list, so the path carries its deepest qualifying depth pendD (0:
// none yet) and its smallest qualifying filter distance pendDist — which
// only loosens bounds — from edge to edge, and the subtree below is
// collected once, where the descent stops: every leaf under a qualifying
// path is emitted once, not once per qualifying row above it. A leaf the
// descent reaches is not walked at all: all its starts go to verification
// (verifyLeaf), which covers whatever pendD would have. On an identity tree
// the filter rows are exact rows, and still only propose: verification
// decides every answer, at the scan's distance (THEORY.md §11).
//
//twlint:steady-state
func (s *searcher) processEdge(ptr disktree.Ptr, level, depth int, runBroken bool, firstRun, pendD int, pendDist float64) error {
	n := s.node(level)
	if err := s.rd.ReadNodeInto(ptr, n); err != nil {
		return err
	}
	s.stats.NodesVisited++
	if s.stats.NodesVisited&cancelMask == 0 {
		s.checkCancel()
	}
	if n.Leaf {
		s.verifyLeaf(n)
		return nil
	}

	// A label holds a terminator only at its end, where the text ends: the
	// walk stops there, having handled every prefix of the suffix, and
	// nothing lies below.
	label := s.ix.Store.Text(int(n.LabelSeq))[n.LabelStart:]
	descend := len(label) >= int(n.LabelLen)
	label = label[:min(len(label), int(n.LabelLen))]
	entryDepth := depth
	for _, sym := range label {
		x := depth // 0-based position of the row about to be added
		if x == 0 {
			s.firstSym = sym
			s.base0 = s.kern.Base0(sym)
			firstRun = 1
		} else if !runBroken {
			if sym == s.firstSym {
				firstRun++
			} else {
				runBroken = true
			}
		}
		// The sparse shift: the largest number of leading-run rows a
		// deeper candidate could shift away — (firstRun-1) once the run is
		// broken (every leaf below has exactly that run), or (maxRun-1)
		// while the path is still one run (deeper leaves may extend it).
		shift := 0
		if s.sparse {
			shift = firstRun - 1
			if !runBroken {
				shift = s.ix.maxRun - 1
			}
		}

		// Envelope row gate: the row's envelope gap extends the
		// LB_Keogh prefix sum, which lower-bounds every filter distance at
		// this depth or deeper — for shifted sparse candidates after
		// discounting envBase0 per shifted-away leading-run row. When the
		// discounted sum already exceeds eps, the O(|Q|) table row (and
		// everything below) is provably fruitless and is cut for the price
		// of one gap evaluation.
		if s.envOn {
			g := s.kern.Gap(x, sym)
			s.stats.LBCells++
			if x == 0 {
				s.envBase0 = g
			}
			newSum := s.envSums[x] + g
			envBound := newSum
			if shift > 0 {
				envBound = newSum - float64(shift)*s.envBase0
			}
			if envBound > s.eps && !s.ix.DisablePruning {
				s.stats.EnvelopePruned++
				descend = false
				break
			}
			if len(s.envSums) <= x+1 {
				//lint:ignore steadystate pooled scratch: the prefix-sum slice grows once per context to the deepest path ever walked, then every later query reuses the capacity
				s.envSums = append(s.envSums, 0)
			}
			s.envSums[x+1] = newSum
		}

		dist, minDist := s.kern.AddRow(sym)
		depth++
		d := depth

		// Candidate emission. For dense trees only dist counts; for sparse
		// trees a shifted start can lower the bound by up to
		// (firstRun-1)·base0, so collection may be warranted even when
		// dist > eps.
		emitBound := dist
		if s.sparse && firstRun > 1 {
			emitBound = dist - float64(firstRun-1)*s.base0
		}
		if emitBound <= s.eps {
			pendD = d
			if dist < pendDist {
				pendDist = dist
			}
		}

		// Branch pruning (Theorem 1). For sparse trees the row minimum must
		// be discounted by the largest shift any deeper candidate could
		// claim.
		pruneBound := minDist
		if shift > 0 {
			pruneBound = minDist - float64(shift)*s.base0
		}
		if pruneBound > s.eps && !s.ix.DisablePruning {
			descend = false
			break
		}

		// Answer-length cutoff for sparse+window: the shortest candidate a
		// depth-d row can produce has length d minus the largest shift; once
		// that exceeds |Q|+w every deeper candidate is infeasible under the
		// band. (Dense trees get this pruning from the banded table itself.)
		if s.sparse && s.ix.Window >= 0 && d-shift > s.qLen+s.ix.Window {
			descend = false
			break
		}
	}

	switch {
	case s.stopped:
	case !descend:
		// The descent ends here — pruned, gated or out of text.
		if pendD > 0 {
			if err := s.collect(n, 0, pendD, pendDist); err != nil {
				return err
			}
		}
	default:
		// n's Children may be overwritten by deeper levels reusing
		// scratch; deeper levels use level+1 though, and collect uses
		// its own pool, so iterating the slice here is safe.
		for i := range n.Children {
			if s.stopped {
				break
			}
			if err := s.processEdge(n.Children[i].Ptr, level+1, depth, runBroken, firstRun, pendD, pendDist); err != nil {
				return err
			}
		}
	}

	if depth > entryDepth {
		s.kern.Truncate(entryDepth)
	}
	return nil
}

// collect emits candidates for every leaf in the subtree below the inner
// node n (already read), at collection level level, for the depth d and
// filter distance dist of the path that qualified.
//
//twlint:steady-state
func (s *searcher) collect(n *disktree.Node, level, d int, dist float64) error {
	for i := range n.Children {
		c := s.collectNode(level)
		if err := s.rd.ReadNodeInto(n.Children[i].Ptr, c); err != nil {
			return err
		}
		if c.Leaf {
			s.emitLeaf(c, d, dist)
			continue
		}
		if err := s.collect(c, level+1, d, dist); err != nil {
			return err
		}
	}
	return nil
}

// emitLeaf produces the candidate for the stored suffix (pos, pos+d) and,
// on sparse trees, the D_tw-lb2 candidates for the non-stored suffixes
// inside the leaf's leading run (Definition 4: shift j up to
// min(runLen, d) - 1).
//
//twlint:steady-state
func (s *searcher) emitLeaf(leaf *disktree.Node, d int, dist float64) {
	seq := int(leaf.LabelSeq)
	pos := int(leaf.Pos)
	if dist <= s.eps {
		s.candidate(seq, pos, pos+d)
	}
	if !s.sparse {
		return
	}
	jMax := min(int(leaf.RunLen), d)
	for j := 1; j < jMax; j++ {
		if dist-float64(j)*s.base0 <= s.eps {
			s.candidate(seq, pos+j, pos+d)
		}
	}
}

// verifyLeaf hands every start a reached leaf stands for to verification,
// each up to the end of its sequence: the stored suffix and, on a sparse
// tree, the non-stored suffixes of its leading run. Below a leaf the path
// is one suffix, so filter rows there share nothing (R_d = 1) and would
// only decide again what the exact rows decide anyway, at no lower cost:
// verification abandons each start by Theorem 1 no later than the filter
// rows would have (THEORY.md §11), and computes only the live cells where
// a filter row, an identity tree's exact one included, computes |Q|.
//
//twlint:steady-state
func (s *searcher) verifyLeaf(leaf *disktree.Node) {
	seq, pos := int(leaf.LabelSeq), int(leaf.Pos)
	end := s.ix.seqLen(seq)
	stop := pos + 1
	if s.sparse {
		stop = pos + int(leaf.RunLen)
	}
	s.admit(seq, pos, min(stop, end-s.ix.minAnswerLen+1), end)
}

// candidate hands the subsequences of sequence seq that begin at start and
// end at most at end to verification, through admit. A start with no
// subsequence as long as the index's answer floor is dropped uncounted.
//
//twlint:steady-state
func (s *searcher) candidate(seq, start, end int) {
	if end-start < s.ix.minAnswerLen {
		return
	}
	s.admit(seq, start, start+1, end)
}

// admit counts the starts [from, to) of sequence seq as candidates and
// offers them to admission in one kernel call; each it admits joins the
// found list, to be verified up to end. A start admission dismisses is
// counted — the filter offered it — but not added: no subsequence of it is
// an answer (by its first value, or under a window by the windowed
// admission bound, THEORY.md §13), so it costs the search one base distance
// and a few gap terms instead of an entry, its share of the sort and its
// rows of the backward pass.
//
//twlint:steady-state
func (s *searcher) admit(seq, from, to, end int) {
	if to <= from {
		return
	}
	s.stats.Candidates += uint64(to - from)
	s.admitted = s.kern.Admit(seq, from, to, s.admitted[:0])
	off := s.seqOffsets[seq]
	for _, start := range s.admitted {
		s.found.add(off+int(start), end)
	}
}

// postProcess delivers what the filter pass found, one sequence at a time,
// in (sequence, start, end) order. The sorted list visits only this query's
// entries — O(entries), not a scan of the whole database — in (seq, start)
// order, since the global offset is monotone in (seq, start). For each
// sequence, one backward pass over its admitted starts dismisses every
// start no subsequence of which is within eps (dtw.Verifier.Backward,
// THEORY.md §12). Then, in position order, one kernel call per start the
// pass leaves live scans to the start's furthest end with Theorem-1 early
// abandon and reports every end with exact distance within eps. The dead
// starts were never added (admit); the rows of the others are computed only
// where a path within eps can still run (dtw.Verifier).
//
//twlint:steady-state
func (s *searcher) postProcess() {
	keys := s.found.sorted()
	seq, verified := 0, 0
	for i := 0; i < len(keys); {
		s.checkCancel()
		if s.stopped {
			break
		}
		off, _ := s.found.at(keys[i])
		for seq+1 < len(s.seqOffsets) && off >= s.seqOffsets[seq+1] {
			seq++
		}
		base := s.seqOffsets[seq]
		limit := base + s.ix.seqLen(seq)
		// The sequence's entries are keys[i:j].
		s.starts, s.ends = s.starts[:0], s.ends[:0]
		j := i
		for ; j < len(keys); j++ {
			off, end := s.found.at(keys[j])
			if off >= limit {
				break
			}
			//lint:ignore steadystate pooled scratch: starts and ends keep their capacity across the queries of the pooled searcher
			s.starts = append(s.starts, int32(off-base))
			//lint:ignore steadystate pooled scratch: as starts
			s.ends = append(s.ends, end)
		}
		if cap(s.live) < len(s.starts) {
			//lint:ignore steadystate pooled scratch: live grows once to the most admitted starts of one sequence, then is reused
			s.live = make([]bool, cap(s.starts))
		}
		live := s.live[:len(s.starts)]
		s.kern.Backward(seq, s.starts, s.ends, live, s.onMore)
		for k, start := range s.starts {
			if s.stopped {
				break
			}
			if !live[k] {
				continue
			}
			if verified&cancelMask == 0 {
				s.checkCancel()
			}
			verified++
			s.vseq, s.vstart = seq, int(start)
			s.kern.Verify(seq, int(start), int(s.ends[k]), s.onHit)
		}
		i = j
	}
	if s.stats.Candidates >= s.stats.Answers {
		s.stats.FalseAlarms = s.stats.Candidates - s.stats.Answers
	}
}

// verified emits the answer [vstart, end) of the start under verification,
// at its exact distance, when it is no shorter than the index's floor.
//
//twlint:steady-state
func (s *searcher) verified(end int, dist float64) {
	if end-s.vstart >= s.ix.minAnswerLen {
		s.emit(Match{
			Ref:      sequence.Ref{Seq: s.vseq, Start: s.vstart, End: end},
			Distance: dist,
		})
	}
}
