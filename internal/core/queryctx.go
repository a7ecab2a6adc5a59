package core

import (
	"context"
	"sync"

	"twsearch/internal/dtw"
)

// queryPool recycles per-query execution state (searcher) across the
// searches of one index. The index itself is immutable at query time — the
// tree, scheme, texts and raw data never change during a search — so all
// mutation lives in the pooled searcher, and any number of goroutines can
// search one Engine concurrently, each holding its own searcher for the
// duration of the call.
//
// The pool lives behind a pointer on Engine (not inline) so the Engine value
// the typed indexes embed copies without copying a sync.Pool.
type queryPool struct {
	p sync.Pool
}

// acquire returns a searcher bound to this query, reusing a pooled one's
// allocations (the kernel's tables and caches, scratch nodes, pending set)
// when available. Callers must release it when the search finishes.
func (qp *queryPool) acquire(e *Engine, ctx context.Context, bind BindFunc, eps float64) *searcher {
	s, _ := qp.p.Get().(*searcher)
	if s == nil {
		s = &searcher{kern: e.newKernel()}
		s.onHit = s.verified
	}

	// On sparse trees the D_tw-lb2 shift moves a candidate's rows relative
	// to the query columns, so a Sakoe–Chiba band on the shared filter
	// table would be misaligned for shifted candidates and could dismiss
	// true answers. The unconstrained D_tw-lb is still a lower bound of the
	// band-constrained distance (constraints only increase D_tw), so for
	// sparse+window we filter unconstrained and let the banded
	// post-processing enforce the exact semantics; an explicit
	// answer-length cutoff (conclusion section) replaces the band's depth
	// pruning.
	filterWindow := e.Window
	sparse := e.Tree.Sparse()
	if sparse && e.Window >= 0 {
		filterWindow = -1
	}

	s.e = e
	s.rd.Reset(e.Tree)
	s.ctx = ctx
	s.ctxErr = nil
	s.eps = eps
	s.sparse = sparse
	s.seqOffsets = e.seqOffsets
	s.visit = nil
	s.stopped = false
	s.stats = SearchStats{}
	s.matches = nil // ownership of the previous slice passed to its caller
	s.firstSym = 0
	s.base0 = 0

	// The envelope gate runs under the same window as the filter table, so
	// its bounds are never tighter than what the table itself enforces.
	s.envOn = !e.DisableEnvelopes
	bind(s.kern, filterWindow, e.Window, s.envOn)
	s.qLen = s.kern.QueryLen()
	s.exactStored = s.kern.Exact() && filterWindow == e.Window
	s.pend.Reset(e.totalElements)
	if len(s.envSums) == 0 {
		s.envSums = append(s.envSums, 0)
	}
	s.envSums[0] = 0
	s.envBase0 = 0
	return s
}

// release returns a searcher to the pool, unpinning the page its reader
// still holds and dropping references to caller-owned state so nothing
// outlives the call it belongs to. (The kernel keeps the last query's
// slice header until its next bind; it is never read in between.)
func (qp *queryPool) release(s *searcher) {
	s.rd.Reset(nil)
	s.e = nil
	s.ctx = nil
	s.visit = nil
	s.matches = nil
	s.seqOffsets = nil
	qp.p.Put(s)
}

// scanTables recycles the cumulative table of the sequential-scan baseline,
// which has no index (and so no queryPool) to hang per-query state on.
var scanTables = sync.Pool{New: func() any { return &dtw.Table{} }}

// acquireScanTable returns a pooled table bound to q; hand it back with
// releaseScanTable.
func acquireScanTable(q []float64, window int) *dtw.Table {
	t := scanTables.Get().(*dtw.Table)
	t.Bind(q, window)
	return t
}

func releaseScanTable(t *dtw.Table) { scanTables.Put(t) }
