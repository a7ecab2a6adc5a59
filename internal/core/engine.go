package core

import (
	"twsearch/internal/disktree"
	"twsearch/internal/dtw"
	"twsearch/internal/suffixtree"
)

// Engine is the index-side half of the one traversal engine: everything a
// search reads that does not depend on the element type. Index embeds it for
// scalar sequences and multivar.Index for vector ones; what differs between
// the two — base distance, envelope gap, the table rows — sits behind the
// Kernel each supplies. All of it is immutable at query time, and the
// per-query mutable state lives in pooled searchers, so one Engine serves
// any number of concurrent searches.
type Engine struct {
	// Store holds the categorized texts edge labels refer into.
	Store *suffixtree.TextStore
	Tree  *disktree.File
	// Window is the warping-window half-width, or -1.
	Window int
	// DisablePruning turns off the Theorem-1 branch pruning (R_p -> 1).
	// It exists only for the ablation benchmarks; results are unchanged,
	// only the work done.
	DisablePruning bool
	// DisableEnvelopes turns off the envelope row gate (the O(1)-per-row
	// prefilter in front of the table). Like DisablePruning it changes only
	// the work done, never the answers; the ablation benchmarks toggle it to
	// measure the gate.
	DisableEnvelopes bool

	// minAnswerLen mirrors the tree's suffix length filter: searches emit
	// only answers of at least this length.
	minAnswerLen int
	// maxRun is the longest equal-symbol run in any categorized sequence;
	// it bounds the D_tw-lb2 shift during sparse branch pruning.
	maxRun int
	// seqOffsets[i] is the global element offset of sequence i; searches
	// use it to key their pending candidate sets. totalElements is the sum
	// of all sequence lengths.
	seqOffsets    []int
	totalElements int
	// queries recycles per-query execution state (why a pointer: queryPool).
	queries *queryPool
	// newKernel equips a fresh pooled searcher with this index's kernel.
	newKernel func() Kernel
}

// Kernel is the element-type half of a search: the cumulative distance
// table of the filter pass, the exact table of the verification pass and
// the query's envelope, for one query at a time. The traversal owns every
// decision — what to prune, what is a candidate, what is an answer — and
// calls the kernel at most twice per filter row, never per cell: Gap and
// AddRow (Base0 once per path); and once per verified start, Verify. The
// lower bounds Gap and AddRow return may only prune through bound > eps,
// and never become a Match distance; TestNoFalseDismissalsAtTies (here and
// in multivar) holds both kernels to that with eps set to the exact
// distances of the scan's answers: the ties at which a >= in place of the >
// would dismiss an answer.
type Kernel interface {
	// QueryLen is the bound query's length; Exact reports that filter
	// distances over stored suffixes are exact distances (identity
	// categorization), so those candidates need no verification.
	QueryLen() int
	Exact() bool

	// Base0 returns D_base-lb(q[0], sym), the per-shift discount of
	// D_tw-lb2 (Definition 4) on a path whose first symbol is sym.
	Base0(sym suffixtree.Symbol) float64
	// Gap returns the gap between sym's value range and the query's
	// envelope at row x: a lower bound of every base distance the row could
	// produce.
	Gap(x int, sym suffixtree.Symbol) float64
	// AddRow appends the filter row for sym and returns its last column
	// (D_tw-lb of the path so far) and its minimum (Theorem 1's value).
	AddRow(sym suffixtree.Symbol) (dist, minDist float64)
	// Truncate pops filter rows until depth remain.
	Truncate(depth int)
	// Fork copies the first depth filter rows for a parallel task;
	// CopyFrom rebuilds a worker's filter table from such a copy.
	Fork(depth int) *dtw.Rows
	CopyFrom(prefix *dtw.Rows)

	// Verify scans, with the exact distance, the subsequences of sequence
	// seq that begin at start and end at most at end, and calls hit(e, d)
	// for each one, [start, e), whose distance d is at most the search's
	// threshold, in increasing e (dtw.Verifier.Scan): a start whose first
	// element alone is further than the threshold from the query's costs
	// no cell, and the scan stops at the first row Theorem 1 rules out.
	Verify(seq, start, end int, hit func(end int, dist float64))

	// Cells returns the table cells charged since the kernel was bound: one
	// per query element for a filter row, the cells computed for a
	// verification row.
	Cells() (filter, post uint64)
}

// BindFunc points a pooled kernel at one query: the filter table and the
// envelope (when envelopes is set) under filterWindow, the verifier under
// window with the search's eps as its threshold. The typed entry points
// supply it — only they know the query's element type — and the engine
// calls it once per searcher, on the calling goroutine, before the
// traversal starts.
type BindFunc func(k Kernel, filterWindow, window int, envelopes bool)

// NewEngine assembles the engine over a tree and the texts it was built
// from. window < 0 disables the warping-window constraint.
func NewEngine(tree *disktree.File, store *suffixtree.TextStore, window int, newKernel func() Kernel) Engine {
	e := Engine{
		Store:        store,
		Tree:         tree,
		Window:       window,
		minAnswerLen: tree.MinSuffixLen(),
		maxRun:       1,
		seqOffsets:   make([]int, store.Len()),
		queries:      &queryPool{},
		newKernel:    newKernel,
	}
	for i := range e.seqOffsets {
		syms := store.Text(i)
		e.seqOffsets[i] = e.totalElements
		e.totalElements += len(syms)
		run := 1
		for j := 1; j < len(syms); j++ {
			if syms[j] != syms[j-1] {
				run = 0
			}
			run++
			if run > e.maxRun {
				e.maxRun = run
			}
		}
	}
	return e
}

// MinAnswerLen returns the answer length floor the index was built with
// (0 = unrestricted).
func (e *Engine) MinAnswerLen() int { return e.minAnswerLen }

// seqLen returns the length of sequence seq.
func (e *Engine) seqLen(seq int) int {
	if seq+1 < len(e.seqOffsets) {
		return e.seqOffsets[seq+1] - e.seqOffsets[seq]
	}
	return e.totalElements - e.seqOffsets[seq]
}

// Close releases the underlying tree file.
func (e *Engine) Close() error { return e.Tree.Close() }
