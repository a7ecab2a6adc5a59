package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

// scalarKernel is the univariate Kernel: symbols are categories with value
// intervals, filter rows use D_base-lb against the interval (Definition 3),
// verification rows the exact base distance against the raw value, and the
// gate one Sakoe–Chiba envelope of the query.
type scalarKernel struct {
	data *sequence.Dataset
	// exact records that the scheme is the identity categorization, so
	// interval rows are exact rows.
	exact bool
	// intervals caches the scheme's symbol→interval map. It depends only on
	// the scheme, which is immutable and shared by every handle that shares
	// the searcher pool, so a pooled kernel computes it once.
	intervals []dtw.Interval

	q     []float64
	table dtw.Table
	// bases caches each symbol's interval row against the query, so a
	// filter row is a lookup and the DP.
	bases  dtw.BaseRows
	verify dtw.Verifier
	env    dtw.Envelope
}

func newScalarKernel(data *sequence.Dataset, scheme *categorize.Scheme) *scalarKernel {
	k := &scalarKernel{
		data:      data,
		exact:     scheme.Kind() == categorize.KindIdentity,
		intervals: make([]dtw.Interval, scheme.NumCategories()),
	}
	for i := range k.intervals {
		k.intervals[i] = scheme.Interval(categorize.Symbol(i))
	}
	return k
}

// Bind points the kernel at q: the filter table and the envelope (when
// envelopes is set) under filterWindow, the verifier under window with eps
// as its threshold.
func (k *scalarKernel) Bind(q []float64, filterWindow, window int, eps float64, envelopes bool) {
	k.q = q
	k.table.Bind(q, filterWindow)
	k.bases.Bind(len(q), len(k.intervals))
	k.verify.Bind(q, window, eps)
	if envelopes {
		k.env.Bind(q, filterWindow)
	}
}

func (k *scalarKernel) QueryLen() int { return len(k.q) }
func (k *scalarKernel) Exact() bool   { return k.exact }

func (k *scalarKernel) Base0(sym suffixtree.Symbol) float64 {
	iv := k.intervals[sym]
	return dtw.BaseInterval(k.q[0], iv.Lo, iv.Hi)
}

//twlint:steady-state
func (k *scalarKernel) Gap(x int, sym suffixtree.Symbol) float64 {
	iv := k.intervals[sym]
	elo, ehi := k.env.At(x)
	return dtw.GapInterval(iv.Lo, iv.Hi, elo, ehi)
}

//twlint:steady-state
func (k *scalarKernel) AddRow(sym suffixtree.Symbol) (dist, minDist float64) {
	row, cached := k.bases.Row(int32(sym))
	if !cached {
		iv := k.intervals[sym]
		for y, v := range k.q {
			row[y] = dtw.BaseInterval(v, iv.Lo, iv.Hi)
		}
	}
	return k.table.AddRowBase(row)
}

//twlint:steady-state
func (k *scalarKernel) Truncate(depth int) { k.table.Truncate(depth) }

//twlint:steady-state
func (k *scalarKernel) Dead(seq, start int) bool { return k.verify.Dead(k.data.Values(seq), start) }

//twlint:steady-state
func (k *scalarKernel) Verify(seq, start, end int, hit func(end int, dist float64)) {
	k.verify.Scan(k.data.Values(seq), start, end, hit)
}

func (k *scalarKernel) Cells() (filter, post uint64) { return k.table.Cells(), k.verify.Cells() }

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

// run is the typed front of Engine.Run: it rejects what only this layer can
// see (an empty, misshapen or non-finite query) and supplies the bind that
// points a pooled kernel of either dimension at q.
func (ix *Index) run(ctx context.Context, q []float64, eps float64, visit func(Match) bool) ([]Match, SearchStats, error) {
	if err := CheckQuery(q, ix.Data.Dim()); err != nil {
		return nil, SearchStats{}, err
	}
	return ix.Run(ctx, func(k Kernel, filterWindow, window int, envelopes bool) {
		k.(binder).Bind(q, filterWindow, window, eps, envelopes)
	}, eps, visit)
}

// binder is the typed half of both kernels: the scalar one and
// multivar.Kernel bind to a point-major query.
type binder interface {
	Bind(q []float64, filterWindow, window int, eps float64, envelopes bool)
}

// Search finds every subsequence whose time warping distance from q, a
// point-major query of the data's dimension, is at most eps; see
// Engine.Run. Results are sorted by (sequence, start, end),
// and the returned set is exactly what SeqScan returns. When ctx is canceled
// or its deadline passes the search aborts and ctx.Err() is returned.
func (ix *Index) Search(ctx context.Context, q []float64, eps float64) ([]Match, SearchStats, error) {
	return ix.run(ctx, q, eps, nil)
}

// SearchVisit streams answers to fn instead of materializing them;
// returning false stops the search early. Use it when a permissive threshold
// would produce answer sets too large to hold in memory. fn is called from
// the calling goroutine, filter-pass answers in DFS order, then
// post-processed answers in (seq, start) order. After a cancellation no
// further answers are delivered to fn.
func (ix *Index) SearchVisit(ctx context.Context, q []float64, eps float64, fn func(Match) bool) (SearchStats, error) {
	if fn == nil {
		return SearchStats{}, errors.New("core: nil visitor")
	}
	_, stats, err := ix.run(ctx, q, eps, fn)
	return stats, err
}
