package multivar

import "twsearch/internal/dtw"

// Table is the multivariate counterpart of dtw.Table: the cumulative time
// warping distance table with the query's points along the columns, grown
// (and popped) one row at a time by the tree traversal. The row storage —
// band, growth, Truncate, Fork/CopyFrom, Row — is dtw.Rows, shared with the
// scalar table; what lives here is the vector query and its two row kernels.
type Table struct {
	q [][]float64
	dtw.Rows
}

// NewTable returns a table for the given query with no warping-window
// constraint. It panics on an empty query.
func NewTable(q [][]float64) *Table {
	return NewTableWindow(q, -1)
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
// distance; returns the last column (prefix distance) and row minimum —
// both exact when at most the table's threshold, some value above it
// otherwise (dtw.Rows.SetThreshold).
//
//twlint:bound-source results=1
//twlint:steady-state
func (t *Table) AddRowPoint(p []float64) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.Depth()
	curr := t.GrowRow(n, x)
	lo, mid, hi, tau := t.Reach(n, x)
	minDist = dtw.Inf
	y := lo
	// left carries curr[y-1]; before the first cell of the first row it is
	// the empty alignment, which costs nothing.
	left := dtw.Inf
	if x == 0 {
		left = 0
	}
	if y < mid {
		prev := t.PrevRow(n, x)
		if y == 0 {
			c := Base(p, q[0]) + prev[0]
			curr[0] = c
			minDist = c
			left = c
			y = 1
		}
		if y < mid {
			// left and diag carry curr[y-1] and prev[y-1] in registers, so
			// the loop body reads prev exactly once per cell. The two dead
			// neighbours it can read, prev[lo-1] and prev[mid-1], hold the
			// Inf the previous row's close wrote, so the three-way min is
			// safe at both edges.
			diag := prev[y-1]
			// Equal-length reslices let the compiler drop the per-cell
			// bounds checks: y < len(qb) covers all three.
			qb, cb, pb := q[:mid], curr[:mid], prev[:mid]
			for ; y < len(qb); y++ {
				up := pb[y]
				c := Base(p, qb[y]) + dtw.Min3(left, up, diag)
				cb[y] = c
				if c < minDist {
					minDist = c
				}
				left = c
				diag = up
			}
		}
	}
	// Right of the previous row's live cells a path can only arrive from
	// the left, for as long as the left neighbour is itself live. (The
	// whole of the first row is this chain.)
	for ; y < hi && left <= tau; y++ {
		left += Base(p, q[y])
		curr[y] = left
		if left < minDist {
			minDist = left
		}
	}
	return t.CloseRow(curr, n, x, lo, y), minDist
}

// AddRowBox appends the row for a cell symbol's bounding box using the
// lower-bound base distance.
//
//twlint:bound-source results=0,1
//twlint:steady-state
func (t *Table) AddRowBox(b Box) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.Depth()
	curr := t.GrowRow(n, x)
	bandLo, bandHi := t.BandFill(curr, n, x)
	minDist = dtw.Inf
	t.CountRow(n)
	if bandLo >= bandHi {
		return curr[n-1], minDist
	}
	if x == 0 {
		acc := BaseBox(q[0], b)
		curr[0] = acc
		minDist = acc
		for y := 1; y < bandHi; y++ {
			acc += BaseBox(q[y], b)
			curr[y] = acc
			if acc < minDist {
				minDist = acc
			}
		}
		return curr[n-1], minDist
	}
	prev := t.PrevRow(n, x)
	y := bandLo
	left := dtw.Inf
	if y == 0 {
		c := BaseBox(q[0], b) + prev[0]
		curr[0] = c
		minDist = c
		left = c
		y = 1
	}
	if y < bandHi {
		diag := prev[y-1]
		qb, cb, pb := q[:bandHi], curr[:bandHi], prev[:bandHi]
		for ; y < len(qb); y++ {
			up := pb[y]
			c := BaseBox(qb[y], b) + dtw.Min3(left, up, diag)
			cb[y] = c
			if c < minDist {
				minDist = c
			}
			left = c
			diag = up
		}
	}
	return curr[n-1], minDist
}
