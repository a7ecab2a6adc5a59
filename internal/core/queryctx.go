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
// search one Index concurrently, each holding its own searcher for the
// duration of the call.
type queryPool struct {
	p sync.Pool
}

// acquire returns a searcher bound to the query q, reusing a pooled one's
// allocations (the kernel's tables and caches, scratch nodes, found list)
// when available. Callers must release it when the search finishes.
func (qp *queryPool) acquire(ix *Index, ctx context.Context, q []float64, eps float64) *searcher {
	s, _ := qp.p.Get().(*searcher)
	if s == nil {
		s = &searcher{kern: ix.newKernel()}
		s.onHit = s.verified
		s.onMore = s.more
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
	filterWindow := ix.Window
	sparse := ix.Tree.Sparse()
	if sparse && ix.Window >= 0 {
		filterWindow = -1
	}

	s.ix = ix
	s.rd.Reset(ix.Tree)
	s.ctx = ctx
	s.ctxErr = nil
	s.eps = eps
	s.sparse = sparse
	s.seqOffsets = ix.seqOffsets
	s.visit = nil
	s.stopped = false
	s.stats = SearchStats{}
	s.firstSym = 0
	s.base0 = 0

	// The envelope gate runs under the same window as the filter table, so
	// its bounds are never tighter than what the table itself enforces.
	s.envOn = !ix.DisableEnvelopes
	s.kern.Bind(q, filterWindow, ix.Window, eps, s.envOn)
	s.qLen = s.kern.QueryLen()
	s.found.reset()
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
	s.ix = nil
	s.ctx = nil
	s.visit = nil
	s.seqOffsets = nil
	qp.p.Put(s)
}

// scanTables recycles the cumulative table of the sequential-scan baseline,
// which has no index (and so no queryPool) to hang per-query state on.
var scanTables = sync.Pool{New: func() any { return &dtw.Table{} }}

// acquireScanTable returns a pooled table bound to q, point-major in
// dimension dim; hand it back with releaseScanTable.
func acquireScanTable(q []float64, dim, window int) *dtw.Table {
	t := scanTables.Get().(*dtw.Table)
	t.Bind(q, dim, window)
	return t
}

func releaseScanTable(t *dtw.Table) { scanTables.Put(t) }
