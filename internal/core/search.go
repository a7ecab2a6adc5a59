package core

import (
	"context"
	"time"

	"twsearch/internal/disktree"
	"twsearch/internal/dtw"
	"twsearch/internal/pending"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

// Run executes one range search: every subsequence whose time warping
// distance from the query bind supplies is at most eps — the paper's
// SimSearch-ST / SimSearch-ST_C / SimSearch-SST_C, selected by how the index
// was built. With a nil visit the answers are returned sorted by (sequence,
// start, end); otherwise they stream to visit (returning false stops the
// search) from the calling goroutine, filter-pass answers in DFS order, then
// verified answers in (seq, start) order. The guarantee is no false
// dismissals.
//
// When ctx is canceled or its deadline passes, the traversal aborts through
// the same early-stop path a visitor uses, no further answer is delivered
// and ctx.Err() is returned. Cancellation is checked every cancelMask+1 tree
// nodes and every cancelMask+1 post-processing groups, so an abort costs at
// most 64 groups' verification scans.
func (e *Engine) Run(ctx context.Context, bind BindFunc, eps float64, visit func(Match) bool) ([]Match, SearchStats, error) {
	if err := CheckThreshold(eps); err != nil {
		return nil, SearchStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, err
	}
	started := time.Now()
	// Pool counters are index-wide: under concurrent searches the deltas
	// attribute other goroutines' traffic too. Matches stay byte-identical;
	// only these advisory counters blur.
	poolBefore := e.Tree.PoolStats()
	pagesBefore := e.Tree.PagesRead()

	s := e.queries.acquire(e, ctx, bind, eps)
	defer e.queries.release(s)

	// The filter pass: the depth-first traversal from the root.
	s.visit = visit
	root := s.node(0)
	if err := s.rd.ReadNodeInto(e.Tree.Root(), root); err != nil {
		return nil, SearchStats{}, err
	}
	s.stats.NodesVisited++
	for i := 0; i < len(root.Children) && !s.stopped; i++ {
		if err := s.processEdge(root.Children[i].Ptr, 1, 0, false, 0, 0, dtw.Inf); err != nil {
			return nil, SearchStats{}, err
		}
	}
	s.postProcess()

	s.stats.FilterCells, s.stats.PostCells = s.kern.Cells()
	poolAfter := e.Tree.PoolStats()
	s.stats.PoolHits = poolAfter.Hits - poolBefore.Hits
	s.stats.PoolMisses = poolAfter.Misses - poolBefore.Misses
	s.stats.PagesRead = e.Tree.PagesRead() - pagesBefore
	s.stats.Elapsed = time.Since(started)
	if s.ctxErr != nil {
		return nil, s.stats, s.ctxErr
	}
	sortMatches(s.matches)
	matches := s.matches
	s.matches = nil // ownership transfers to the caller; release must not pool it
	return matches, s.stats, nil
}

// searcher is the pooled per-query execution context: every piece of
// mutable search state lives here, so the Engine it runs against stays
// read-only and shareable across goroutines. One cumulative distance table
// (the kernel's) is shared by the whole traversal: descend = AddRow,
// backtrack = Truncate — the paper's R_d table-sharing. A searcher is reused
// across queries via queryPool; acquire rebinds everything per call.
type searcher struct {
	e *Engine
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
	// exactStored marks stored-suffix filter distances as exact answers
	// (identity categorization with a band-consistent filter table).
	exactStored bool

	stats   SearchStats
	matches []Match

	// pend groups unverified candidates by (seq, start), keeping only the
	// furthest end per start (key: seqOffsets[seq]+start). PostProcess then
	// scans each touched start once: every end whose exact distance is
	// within eps is an answer, and by the no-false-dismissal property those
	// are exactly the true answers at that start — so one table per start
	// verifies all its candidates at once, bounding post-processing by the
	// baseline's total work. The epoch-stamped set makes per-query cost
	// O(candidates), not O(total elements): its backing arrays are
	// allocated once per pooled searcher and survive across queries.
	pend       pending.Set
	seqOffsets []int
	// onHit is the method value s.verified, made once per pooled searcher;
	// the kernel's Verify calls it for every answer at the start
	// (vseq, vstart) under verification.
	onHit        func(end int, dist float64)
	vseq, vstart int

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

	// visit, when set, receives answers as they are found instead of
	// accumulating them in matches; stopped records an early stop request.
	visit   func(Match) bool
	stopped bool
}

// checkCancel polls the context and converts a cancellation into the
// early-stop flag. The traversal calls it every cancelMask+1 nodes, the
// post-processing scan every cancelMask+1 pending groups; both are frequent
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

// cancelMask thins cancellation checks to one per 64 nodes, pending groups or
// scanned start positions.
const cancelMask = 63

// emit delivers one verified answer, either into the result slice or to the
// streaming visitor. After an early stop nothing further is delivered.
//
//twlint:steady-state
func (s *searcher) emit(m Match) {
	if s.stopped {
		return
	}
	s.stats.Answers++
	if s.visit != nil {
		if !s.visit(m) {
			s.stopped = true
		}
		return
	}
	//lint:ignore steadystate answer materialization: the slice is the result handed to the caller, so its growth is the answer set's own footprint, not per-query churn
	s.matches = append(s.matches, m)
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
// Deferred emission: on non-exact indexes a candidate only contributes its
// start and a max end to the pending table, so the path carries its deepest
// qualifying depth pendD (0: none yet) and its smallest qualifying filter
// distance pendDist — which only loosens bounds — from edge to edge, and the
// subtree below is collected once, where the descent stops: every leaf under
// a qualifying path is emitted once, not once per qualifying row above it.
// A leaf the descent reaches is not walked at all: all its starts go to
// verification (verifyLeaf), which covers whatever pendD would have. Exact
// indexes emit answers with per-depth distances, so they walk their leaves,
// collect at every qualifying depth and carry nothing.
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
	if n.Leaf && !s.exactStored {
		s.verifyLeaf(n)
		return nil
	}

	entryDepth := depth
	descend := true
	for i := 0; i < int(n.LabelLen); i++ {
		sym := s.e.Store.Sym(int(n.LabelSeq), int(n.LabelStart)+i)
		if suffixtree.IsTerminator(sym) {
			// The suffix ends here; all its prefixes were handled at
			// shallower depths. Nothing lies below a terminator.
			descend = false
			break
		}
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
			if s.sparse {
				j := firstRun - 1
				if !runBroken {
					j = s.e.maxRun - 1
				}
				if j > 0 {
					envBound = newSum - float64(j)*s.envBase0
				}
			}
			if envBound > s.eps && !s.e.DisablePruning {
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
			if s.exactStored {
				if err := s.collect(n, d, dist); err != nil {
					return err
				}
			} else {
				pendD = d
				if dist < pendDist {
					pendDist = dist
				}
			}
		}

		// Branch pruning (Theorem 1). For sparse trees the row minimum must
		// be discounted by the largest shift any deeper candidate could
		// claim: (firstRun-1) once the run is broken (every leaf below has
		// exactly that run), or (maxRun-1) while the path is still one run
		// (deeper leaves may extend it).
		pruneBound := minDist
		if s.sparse {
			j := firstRun - 1
			if !runBroken {
				j = s.e.maxRun - 1
			}
			if j > 0 {
				pruneBound = minDist - float64(j)*s.base0
			}
		}
		if pruneBound > s.eps && !s.e.DisablePruning {
			descend = false
			break
		}

		// Answer-length cutoff for sparse+window: the shortest candidate a
		// depth-d row can produce has length d minus the largest shift; once
		// that exceeds |Q|+w every deeper candidate is infeasible under the
		// band. (Dense trees get this pruning from the banded table itself.)
		if s.sparse && s.e.Window >= 0 {
			j := firstRun - 1
			if !runBroken {
				j = s.e.maxRun - 1
			}
			if d-j > s.qLen+s.e.Window {
				descend = false
				break
			}
		}
	}

	switch {
	case s.stopped:
	case !descend || n.Leaf:
		// The descent ends here — pruned, gated, out of text or at a leaf.
		if pendD > 0 {
			if err := s.collect(n, pendD, pendDist); err != nil {
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

// collect emits candidates for every leaf in the subtree rooted at the node
// n (already read), for the current depth d and filter distance dist.
//
//twlint:steady-state
func (s *searcher) collect(n *disktree.Node, d int, dist float64) error {
	if n.Leaf {
		s.emitLeaf(n, d, dist)
		return nil
	}
	return s.collectChildren(n, 0, d, dist)
}

//twlint:steady-state
func (s *searcher) collectChildren(n *disktree.Node, level, d int, dist float64) error {
	for i := range n.Children {
		c := s.collectNode(level)
		if err := s.rd.ReadNodeInto(n.Children[i].Ptr, c); err != nil {
			return err
		}
		if c.Leaf {
			s.emitLeaf(c, d, dist)
			continue
		}
		if err := s.collectChildren(c, level+1, d, dist); err != nil {
			return err
		}
	}
	return nil
}

// emitLeaf produces the candidate for the stored suffix (pos, pos+d) and,
// on sparse trees, the D_tw-lb2 candidates for the non-stored suffixes
// inside the leaf's leading run (Definition 4: shift j up to
// min(runLen, d) - 1). When the filter distance is exact (identity
// categorization, unshifted suffix) the stored suffix's candidate is an
// answer outright; a shifted one is only ever a candidate, since its
// discounted dist is a lower bound.
//
//twlint:steady-state
func (s *searcher) emitLeaf(leaf *disktree.Node, d int, dist float64) {
	seq := int(leaf.LabelSeq)
	pos := int(leaf.Pos)
	if dist <= s.eps {
		if s.exactStored {
			if d >= s.e.minAnswerLen {
				s.stats.Candidates++
				s.emit(Match{
					Ref:      sequence.Ref{Seq: seq, Start: pos, End: pos + d},
					Distance: dist,
				})
			}
		} else {
			s.candidate(seq, pos, pos+d)
		}
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

// verifyLeaf hands every start a leaf reached on a non-exact index stands
// for to verification, each up to the end of its sequence: the stored
// suffix and, on a sparse tree, the non-stored suffixes of its leading run.
// Below a leaf the path is one suffix, so interval rows there share nothing
// (R_d = 1) and would only decide again what the exact rows decide anyway,
// at no lower cost: verification abandons each start by Theorem 1 no later
// than the lower-bound rows would have (THEORY.md §11).
//
//twlint:steady-state
func (s *searcher) verifyLeaf(leaf *disktree.Node) {
	seq, pos := int(leaf.LabelSeq), int(leaf.Pos)
	end := s.e.seqLen(seq)
	starts := 1
	if s.sparse {
		starts = int(leaf.RunLen)
	}
	for j := 0; j < starts; j++ {
		s.candidate(seq, pos+j, end)
	}
}

// candidate hands the subsequences of sequence seq that begin at start and
// end at most at end to verification: the start joins its pending group,
// which keeps the furthest end. A start with no subsequence as long as the
// index's answer floor is dropped uncounted. A Dead start is counted as a
// candidate — the filter offered it — but admitted to no group: Verify
// would dismiss it on the same test before its first cell, so it costs the
// search one base distance instead of a pending entry, its share of the
// sort and a kernel call.
//
//twlint:steady-state
func (s *searcher) candidate(seq, start, end int) {
	if end-start < s.e.minAnswerLen {
		return
	}
	s.stats.Candidates++
	if s.kern.Dead(seq, start) {
		return
	}
	s.pend.Add(int32(s.seqOffsets[seq]+start), int32(end))
}

// postProcess verifies the pending groups: one kernel call per admitted
// start, scanning to the group's furthest end with Theorem-1 early abandon
// and reporting every end with exact distance within eps. The dead starts
// never joined a group (candidate); the rows of the others are computed
// only where a path within eps can still run (dtw.Verifier). Iterating the
// sorted touched offsets visits only this query's candidates —
// O(candidates), not a scan of the whole database — in the same (seq,
// start) order the dense scan used, since the global offset is monotone in
// (seq, start).
//
//twlint:steady-state
func (s *searcher) postProcess() {
	seq := 0
	for i, off := range s.pend.Sorted() {
		if i&cancelMask == 0 {
			s.checkCancel()
		}
		if s.stopped {
			break
		}
		for seq+1 < len(s.seqOffsets) && int(off) >= s.seqOffsets[seq+1] {
			seq++
		}
		s.vseq, s.vstart = seq, int(off)-s.seqOffsets[seq]
		s.kern.Verify(seq, s.vstart, int(s.pend.MaxEnd(off)), s.onHit)
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
	if end-s.vstart >= s.e.minAnswerLen {
		s.emit(Match{
			Ref:      sequence.Ref{Seq: s.vseq, Start: s.vstart, End: end},
			Distance: dist,
		})
	}
}
