package multivar

import (
	"math"

	"twsearch/internal/dtw"
)

// Table is the multivariate counterpart of dtw.Table: the cumulative time
// warping distance table with the query's points along the columns, grown
// (and popped) one row at a time by the tree traversal. The row storage —
// band, growth, Truncate, Row, and the filter rows over
// cached base rows (AddRowBase) — is dtw.Rows, shared with the scalar table;
// what lives here is the vector query and its exact row kernel.
type Table struct {
	q [][]float64
	dtw.Rows
}

// NewTableWindow returns a table whose rows apply a Sakoe–Chiba band of
// half-width w; pass w < 0 for no constraint.
func NewTableWindow(q [][]float64, w int) *Table {
	t := &Table{}
	t.Bind(q, w)
	return t
}

// Bind re-targets the table at a new query and window, dropping all rows
// but keeping the row storage, so pooled query contexts reuse one table
// across searches.
func (t *Table) Bind(q [][]float64, w int) {
	t.q = q
	t.Rows.Bind(len(q), w)
}

// AddRowPoint appends the row for a data point using the exact base
// distance and returns the last column (prefix distance) and row minimum.
// It charges the cells of its band.
//
//twlint:steady-state
func (t *Table) AddRowPoint(p []float64) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.Depth()
	curr := t.GrowRow(n, x)
	bandLo, bandHi := t.BandFill(curr, n, x)
	t.CountRow(bandHi - bandLo)
	if bandLo >= bandHi {
		return curr[n-1], dtw.Inf
	}
	// mb carries the row minimum as bits (see dtw.Min3).
	var mb uint64
	if x == 0 {
		acc := Base(p, q[0])
		curr[0] = acc
		mb = math.Float64bits(acc)
		for y := 1; y < bandHi; y++ {
			acc += Base(p, q[y])
			curr[y] = acc
			mb = min(mb, math.Float64bits(acc))
		}
		return curr[n-1], math.Float64frombits(mb)
	}
	prev := t.PrevRow(n, x)
	y := bandLo
	left := dtw.Inf
	mb = math.Float64bits(dtw.Inf)
	if y == 0 {
		c := Base(p, q[0]) + prev[0]
		curr[0] = c
		mb = math.Float64bits(c)
		left = c
		y = 1
	}
	if y < bandHi {
		diag := prev[y-1]
		qb, cb, pb := q[:bandHi], curr[:bandHi], prev[:bandHi]
		for ; y < len(qb); y++ {
			up := pb[y]
			c := Base(p, qb[y]) + dtw.Min3(up, diag, left)
			cb[y] = c
			mb = min(mb, math.Float64bits(c))
			left = c
			diag = up
		}
	}
	return curr[n-1], math.Float64frombits(mb)
}

// Verifier is the vector twin of dtw.Verifier: the verification pass's
// exact table for one start at a time, over dtw.VerifyRows.
type Verifier struct {
	q   [][]float64
	dim int
	dtw.VerifyRows
}

// Bind re-targets the verifier at a new, non-empty query, a window (< 0:
// none) and a threshold, zeroing the cell counter.
func (v *Verifier) Bind(q [][]float64, w int, tau float64) {
	v.q, v.dim = q, len(q[0])
	v.VerifyRows.Bind(len(q), w, tau)
}

// Dead is dtw.Verifier.Dead over the points of vals, point-major in the
// query's dimension: the start's first point alone is further than the
// threshold from the query's.
//
//twlint:steady-state
func (v *Verifier) Dead(vals []float64, start int) bool {
	return Base(vals[start*v.dim:(start+1)*v.dim], v.q[0]) > v.Threshold()
}

// Scan is dtw.Verifier.Scan over the points of vals, point-major in the
// query's dimension: it calls hit(e, D_tw) for every subsequence of points
// [start, e), e ≤ end, within the threshold, dismissing a start on its
// first element and stopping at the first row without a live cell.
//
//twlint:steady-state
func (v *Verifier) Scan(vals []float64, start, end int, hit func(end int, dist float64)) {
	q := v.q
	n := len(q)
	dim := v.dim
	tau := v.Threshold()
	if v.Dead(vals, start) {
		return
	}
	// Every end is within an infinite threshold, at distance +Inf where
	// the band keeps paths off the last column, and no row ends the scan.
	unbounded := math.IsInf(tau, 1)
	prev, curr := v.Rows()
	plo, phi := 0, 0
	for x, e := 0, start; e < end; x, e = x+1, e+1 {
		p := vals[e*dim : (e+1)*dim]
		lo, mid, hi := v.Reach(x, plo, phi)
		y := lo
		left := dtw.Inf
		if x == 0 {
			left = 0
		}
		if y < mid {
			if y == 0 {
				c := Base(p, q[0]) + prev[0]
				curr[0] = c
				left = c
				y = 1
			}
			if y < mid {
				diag := prev[y-1]
				qb, cb, pb := q[:mid], curr[:mid], prev[:mid]
				for ; y < len(qb); y++ {
					up := pb[y]
					c := Base(p, qb[y]) + dtw.Min3(up, diag, left)
					cb[y] = c
					left = c
					diag = up
				}
			}
		}
		for ; y < hi && left <= tau; y++ {
			left += Base(p, q[y])
			curr[y] = left
		}
		plo, phi = v.Close(curr, lo, y)
		switch {
		case plo < phi && phi == n:
			hit(e+1, curr[n-1])
		case unbounded:
			hit(e+1, dtw.Inf)
		case plo == phi:
			return
		}
		prev, curr = curr, prev
	}
}
