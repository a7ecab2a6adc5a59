package core

import (
	"cmp"
	"slices"
	"time"

	"twsearch/internal/sequence"
)

// Match is one answer subsequence: its location and its exact time warping
// distance from the query.
type Match struct {
	Ref      sequence.Ref
	Distance float64
}

// SearchStats records machine-independent work counters for one search —
// the numbers the benchmark harness reports next to wall-clock time, so the
// paper's shape comparisons survive hardware differences.
//
// The traversal counters — NodesVisited, FilterCells, PostCells,
// Candidates, FalseAlarms, Answers, EnvelopePruned, LBCells — are exact:
// one search counts them on its own pooled context, and they depend only on
// the index, the query and eps. PagesRead, PoolHits and PoolMisses are
// approximate: they are deltas of index-wide atomic counters, so they
// attribute every concurrent search's traffic to this one. Elapsed is wall
// clock. After an early stop (visitor returning false, cancellation) all
// counters reflect only the work actually done.
type SearchStats struct {
	// NodesVisited counts tree nodes read during filtering.
	NodesVisited uint64
	// FilterCells counts cumulative-distance-table cells computed while
	// filtering (the R_d·R_p-reduced work of Section 4.3).
	FilterCells uint64
	// PostCells counts table cells computed during post-processing (the
	// n·L̄·|Q| term of Sections 5.5/6.5): cells computed, not rows times
	// |Q| — a start dead on its first element costs none, and a row only
	// the cells a warping path within eps can still reach, inside the band.
	// A reached leaf's label costs exact cells here and no filter cells.
	PostCells uint64
	// Candidates counts filter emissions: the starts the verification pass
	// is handed, each standing for every prefix its one scan verifies. On a
	// non-exact index a leaf the traversal reaches contributes all its
	// starts — its suffix and, on a sparse tree, every shifted start of its
	// leading run — unfiltered; a leaf collected under a qualifying path
	// contributes the starts whose lower bound passed. Either way a start is
	// emitted once per query. An exact index emits per qualifying depth.
	Candidates uint64
	// FalseAlarms counts emissions not confirmed by exact verification
	// (0 when answers outnumber emissions). Since a reached leaf hands over
	// every start unfiltered, most of them are false alarms that cost a
	// first-element test and a few exact cells each.
	FalseAlarms uint64
	// Answers counts returned matches.
	Answers uint64
	// EnvelopePruned counts envelope row-gate prune events: edge rows cut
	// before their table row was computed.
	EnvelopePruned uint64
	// LBCells counts envelope gap evaluations — the O(1) work the gate
	// spends to avoid O(|Q|) table rows. Compare against the FilterCells it
	// saves: the gate pays one LBCell per row it examines.
	LBCells uint64
	// PagesRead counts physical page reads; PoolHits/PoolMisses count
	// buffer pool activity during this search.
	PagesRead  uint64
	PoolHits   uint64
	PoolMisses uint64
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
}

// Cells returns total table cells computed (filter + post-process).
func (s SearchStats) Cells() uint64 { return s.FilterCells + s.PostCells }

// Add accumulates other into s (for averaging over query workloads).
func (s *SearchStats) Add(other SearchStats) {
	s.NodesVisited += other.NodesVisited
	s.FilterCells += other.FilterCells
	s.PostCells += other.PostCells
	s.Candidates += other.Candidates
	s.FalseAlarms += other.FalseAlarms
	s.Answers += other.Answers
	s.EnvelopePruned += other.EnvelopePruned
	s.LBCells += other.LBCells
	s.PagesRead += other.PagesRead
	s.PoolHits += other.PoolHits
	s.PoolMisses += other.PoolMisses
	s.Elapsed += other.Elapsed
}

// sortMatches puts matches in deterministic (seq, start, end) order. The
// verification pass and the scans emit in that order already — only the
// filter-pass answers of an exact index arrive in DFS order — so the sort
// runs only when one pass over the slice finds it out of order.
func sortMatches(ms []Match) {
	if !slices.IsSortedFunc(ms, compareRefs) {
		slices.SortFunc(ms, compareRefs)
	}
}

func compareRefs(a, b Match) int {
	if c := cmp.Compare(a.Ref.Seq, b.Ref.Seq); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Ref.Start, b.Ref.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.Ref.End, b.Ref.End)
}
