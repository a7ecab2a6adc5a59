package core

import (
	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

// Kernel is the element half of a search: the cumulative distance table of
// the filter pass, the exact table of the verification pass and the
// query's envelope, for one query at a time. The traversal owns every
// decision — what to prune, what is a candidate, what is an answer — and
// calls the kernel at most twice per filter row, never per cell: Gap and
// AddRow (Base0 once per path); once per reached leaf's run or collected
// start, Admit; once per sequence with starts to verify, Backward; and once
// per start Backward leaves live, Verify. The lower bounds Gap and AddRow
// return may only prune through bound > eps, and never become a Match
// distance; TestNoFalseDismissalsAtTies (at dimension 1 and 2) holds the
// kernel to that with eps set to the exact distances of the scan's
// answers: the ties at which a >= in place of the > would dismiss an
// answer.
type Kernel interface {
	// Bind points the kernel at q, a point-major query of the data's
	// dimension: the filter table and the envelopes (when envelopes is set)
	// under filterWindow, the verifier under window with eps as its
	// threshold. A search calls it once, before the traversal starts.
	Bind(q []float64, filterWindow, window int, eps float64, envelopes bool)

	// QueryLen is the bound query's length in points.
	QueryLen() int

	// Base0 returns D_base-lb(q[0], sym), the per-shift discount of
	// D_tw-lb2 (Definition 4) on a path whose first symbol is sym.
	Base0(sym suffixtree.Symbol) float64
	// Gap returns the gap between sym's box and the query's envelope at row
	// x: a lower bound of every base distance the row could produce.
	Gap(x int, sym suffixtree.Symbol) float64
	// AddRow appends the filter row for sym and returns its last column
	// (D_tw-lb of the path so far) and its minimum (Theorem 1's value).
	AddRow(sym suffixtree.Symbol) (dist, minDist float64)
	// Truncate pops filter rows until depth remain.
	Truncate(depth int)

	// Admit offers the starts [from, to) of sequence seq to admission and
	// appends to live, ascending, each one that can still begin an answer.
	// It dismisses a start whose point alone is further than the search's
	// threshold from the query's first point, by the base distance Verify
	// uses (dtw.Verifier.Dead) — and, with envelopes on under a window, a
	// start too close to the sequence's end for an answer, on its length
	// alone, or one whose windowed admission bound exceeds the threshold
	// (dtw.Verifier.Admit, THEORY.md §13). The tests are strict, so a start
	// at exactly the threshold is verified. A reached leaf's whole run is
	// one call.
	Admit(seq, from, to int, live []int32) []int32
	// Backward runs the backward free-end pass over sequence seq for its
	// admitted starts, ascending, each with its furthest end, and sets
	// live[i] to false when no subsequence beginning at starts[i] can be
	// within the threshold (dtw.Verifier.Backward): such a start needs no
	// Verify. It calls more every so many rows and stops when that returns
	// false.
	Backward(seq int, starts, ends []int32, live []bool, more func() bool)
	// Verify scans, with the exact distance, the subsequences of sequence
	// seq that begin at start and end at most at end, and calls hit(e, d)
	// for each one, [start, e), whose distance d is at most the search's
	// threshold, in increasing e (dtw.Verifier.Scan): a Dead start costs no
	// cell, and the scan stops at the first row Theorem 1 rules out.
	Verify(seq, start, end int, hit func(end int, dist float64))

	// Cells returns the table cells charged since the kernel was bound: one
	// per query point for a filter row, the cells computed for a
	// verification row or a row of the backward pass; and the envelope gap
	// terms admission summed, which are no table cells.
	Cells() (filter, post, gaps uint64)
}

// symbolBoxes is the box of every symbol of an index's scheme — a
// category's interval at dimension 1, a grid cell's bounding box above —
// flat: symbol s owns lo[s*dim:(s+1)*dim] and the same of hi. An index
// fills it once, at build or open, and every pooled kernel reads it.
type symbolBoxes struct {
	dim    int
	lo, hi []float64
}

func newSymbolBoxes(scheme Scheme) *symbolBoxes {
	b := &symbolBoxes{dim: scheme.Dim()}
	switch s := scheme.(type) {
	case *categorize.Scheme:
		for i := 0; i < s.NumCategories(); i++ {
			iv := s.Interval(categorize.Symbol(i))
			b.lo = append(b.lo, iv.Lo)
			b.hi = append(b.hi, iv.Hi)
		}
	case *categorize.GridScheme:
		for i := 0; i < s.NumCells(); i++ {
			box := s.Box(categorize.Symbol(i))
			b.lo = append(b.lo, box.Lo...)
			b.hi = append(b.hi, box.Hi...)
		}
	}
	return b
}

// box returns sym's box, views into the flat bounds.
func (b *symbolBoxes) box(sym suffixtree.Symbol) dtw.Box {
	i := int(sym) * b.dim
	return dtw.Box{Lo: b.lo[i : i+b.dim : i+b.dim], Hi: b.hi[i : i+b.dim : i+b.dim]}
}

// kernel is the Kernel of every dimension d: symbols stand for boxes,
// filter rows use the box lower bound of the base distance (Definition 3,
// summed over the dimensions), verification rows the exact base distance
// against the raw points, and the gate one Sakoe–Chiba envelope per
// dimension — sound dimension-wise because the base distance and the
// envelope gap both sum over dimensions independently. A value is a point
// of dimension 1, at which every sum is one term added to 0, which has that
// term's bits.
type kernel struct {
	data  *sequence.Dataset
	boxes *symbolBoxes

	q     []float64
	table dtw.Table
	// bases caches each symbol's box row against the query, so a filter
	// row is a lookup and the DP.
	bases  dtw.BaseRows
	verify dtw.Verifier
	// envs[k] is the envelope of the query's k-th coordinate series under
	// the filter window (constant on sparse trees); qDim[k] backs it.
	envs []dtw.Envelope
	qDim [][]float64
	// admit is set under a window with envelopes on: Admit then asks the
	// verifier's windowed admission bound, not Dead.
	admit bool
}

func (k *kernel) Bind(q []float64, filterWindow, window int, eps float64, envelopes bool) {
	dim := k.boxes.dim
	k.q = q
	k.table.Bind(q, dim, filterWindow)
	k.bases.Bind(len(q)/dim, len(k.boxes.lo)/dim)
	k.verify.Bind(q, dim, window, eps)
	k.admit = envelopes && window >= 0
	if !envelopes {
		return
	}
	for len(k.envs) < dim {
		k.envs = append(k.envs, dtw.Envelope{})
		k.qDim = append(k.qDim, nil)
	}
	for d := 0; d < dim; d++ {
		qd := k.qDim[d][:0]
		for i := d; i < len(q); i += dim {
			qd = append(qd, q[i])
		}
		k.qDim[d] = qd
		k.envs[d].Bind(qd, filterWindow)
	}
}

func (k *kernel) QueryLen() int { return len(k.q) / k.boxes.dim }

func (k *kernel) Base0(sym suffixtree.Symbol) float64 {
	return dtw.BaseBox(k.q[:k.boxes.dim], k.boxes.box(sym))
}

//twlint:steady-state
func (k *kernel) Gap(x int, sym suffixtree.Symbol) float64 {
	box := k.boxes.box(sym)
	g := 0.0
	for d := range box.Lo {
		elo, ehi := k.envs[d].At(x)
		g += dtw.GapInterval(box.Lo[d], box.Hi[d], elo, ehi)
	}
	return g
}

//twlint:steady-state
func (k *kernel) AddRow(sym suffixtree.Symbol) (dist, minDist float64) {
	row, cached := k.bases.Row(int32(sym))
	if !cached {
		box := k.boxes.box(sym)
		dim := k.boxes.dim
		for y := range row {
			row[y] = dtw.BaseBox(k.q[y*dim:(y+1)*dim], box)
		}
	}
	return k.table.AddRowBase(row)
}

//twlint:steady-state
func (k *kernel) Truncate(depth int) { k.table.Truncate(depth) }

//twlint:steady-state
func (k *kernel) Admit(seq, from, to int, live []int32) []int32 {
	s := k.data.Values(seq)
	for start := from; start < to; start++ {
		if k.admit && k.verify.Admit(s, start) || !k.admit && !k.verify.Dead(s, start) {
			//lint:ignore steadystate amortized: the caller's scratch keeps its capacity, which grows toward the longest run, across searches
			live = append(live, int32(start))
		}
	}
	return live
}

//twlint:steady-state
func (k *kernel) Backward(seq int, starts, ends []int32, live []bool, more func() bool) {
	k.verify.Backward(k.data.Values(seq), starts, ends, live, more)
}

//twlint:steady-state
func (k *kernel) Verify(seq, start, end int, hit func(end int, dist float64)) {
	k.verify.Scan(k.data.Values(seq), start, end, hit)
}

func (k *kernel) Cells() (filter, post, gaps uint64) {
	return k.table.Cells(), k.verify.Cells(), k.verify.Gaps()
}
