package dtw

import "math"

// Table is the cumulative time warping distance table of Definition 2,
// grown one row at a time. The query sequence runs along the columns; each
// AddRow* call appends the row for one more element of the subsequence being
// matched (one symbol of a suffix-tree edge label), exactly like the paper's
// AddRow(T, Q, label, D) step in Filter-ST.
//
// Rows can also be popped, which is what lets one Table be shared by an
// entire depth-first traversal of a suffix tree: descend → AddRow,
// backtrack → Truncate. Sharing the table across all suffixes with a common
// prefix is the paper's R_d reduction factor.
//
// The query is point-major in the dimension Bind is given. AddRowValue and
// AddRowInterval read it as values (dimension 1), AddRowPoint as points of
// any dimension, and AddRowBase not at all.
//
// A Table is not safe for concurrent use; concurrent searches use one Table
// each.
type Table struct {
	q   []float64
	dim int
	// pts views q's points when dim > 1, for AddRowPoint.
	pts [][]float64

	n      int       // cells per row: the query's length in points
	window int       // Sakoe–Chiba half-width; <0 means unconstrained
	rows   []float64 // depth*n cells, row-major
	depth  int
	cells  uint64 // number of DP cells computed since Reset
}

// NewTable returns a table for the given query of values with no
// warping-window constraint. It panics on an empty query.
func NewTable(q []float64) *Table {
	return NewTableWindow(q, -1)
}

// NewTableWindow returns a table for a query of values whose rows apply a
// Sakoe–Chiba band of half-width w; pass w < 0 for no constraint.
func NewTableWindow(q []float64, w int) *Table {
	t := &Table{}
	t.Bind(q, 1, w)
	return t
}

// Bind re-targets the table at a new point-major query of dimension dim and
// a window, dropping all rows and zeroing the cell counter but keeping the
// row storage. Pooled query contexts use it so a reused table serves its
// next search without reallocating. It panics on an empty query: it has no
// table.
func (t *Table) Bind(q []float64, dim, w int) {
	n := len(q) / dim
	if n == 0 {
		//lint:ignore panicpath precondition assertion: search entry points reject empty queries before any table exists
		panic("dtw: empty query")
	}
	t.q, t.dim, t.n, t.window = q, dim, n, w
	t.pts = t.pts[:0]
	if dim > 1 {
		t.pts = points(t.pts, q, dim)
	}
	t.Reset()
}

// Depth returns the number of rows currently in the table.
func (t *Table) Depth() int { return t.depth }

// Cells returns the number of DP cells computed since the last Reset — the
// machine-independent work counter used by the benchmark harness.
func (t *Table) Cells() uint64 { return t.cells }

// Reset drops all rows and zeroes the cell counter.
func (t *Table) Reset() {
	t.rows = t.rows[:0]
	t.depth = 0
	t.cells = 0
}

// Truncate pops rows until exactly depth rows remain (the cell counter keeps
// accumulating).
//
//twlint:steady-state
func (t *Table) Truncate(depth int) {
	if depth < 0 || depth > t.depth {
		//lint:ignore panicpath row-discipline assertion: truncating past the stack means traversal bookkeeping is already corrupt
		panic("dtw: bad Truncate depth")
	}
	t.depth = depth
	t.rows = t.rows[:depth*t.n]
}

// AddRowValue appends the row for a value v (dimension 1) using the exact
// base distance and returns the row's last column (the distance between the
// query and the subsequence accumulated so far, per Definition 2) and its
// minimum column (the Theorem-1 pruning value). It charges the cells of its
// band.
//
//twlint:steady-state
func (t *Table) AddRowValue(v float64) (dist, minDist float64) {
	return t.addRow(v, v, false)
}

// AddRowInterval appends the row for a category symbol whose observed value
// range is [lo, hi], using the lower-bound base distance D_base-lb of
// Definition 3 (dimension 1). Like every lower-bound row it charges one cell
// per query element.
//
//twlint:steady-state
func (t *Table) AddRowInterval(lo, hi float64) (dist, minDist float64) {
	return t.addRow(lo, hi, true)
}

// addRow appends the row whose base distances are D_base-lb(q[y], [lo, hi]),
// which for lo == hi == v is D_base(v, q[y]) bit for bit (see BaseInterval).
// lowerBound selects what the row charges: the query's length, or the band.
//
//twlint:steady-state
func (t *Table) addRow(lo, hi float64, lowerBound bool) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.depth // row index of the new row
	curr := t.growRow(n, x)
	bandLo, bandHi := t.bandFill(curr, n, x)
	if lowerBound {
		t.countRow(n)
	} else {
		t.countRow(bandHi - bandLo)
	}
	if bandLo >= bandHi {
		return curr[n-1], Inf
	}
	// mb carries the row minimum as bits (see Min3), so the loop keeps it
	// without a branch.
	var mb uint64
	if x == 0 {
		acc := BaseInterval(q[0], lo, hi)
		curr[0] = acc
		mb = math.Float64bits(acc)
		qb, cb := q[:bandHi], curr[:bandHi]
		for y := 1; y < len(qb); y++ {
			acc += BaseInterval(qb[y], lo, hi)
			cb[y] = acc
			mb = min(mb, math.Float64bits(acc))
		}
		return curr[n-1], math.Float64frombits(mb)
	}
	prev := t.prevRow(n, x)
	y := bandLo
	left := Inf
	mb = math.Float64bits(Inf)
	if y == 0 {
		c := BaseInterval(q[0], lo, hi) + prev[0]
		curr[0] = c
		mb = math.Float64bits(c)
		left = c
		y = 1
	}
	if y < bandHi {
		// left and diag carry curr[y-1] and prev[y-1] in registers, so the
		// loop body reads prev exactly once per cell. Equal-length reslices
		// let the compiler drop the per-cell bounds checks.
		diag := prev[y-1]
		qb, cb, pb := q[:bandHi], curr[:bandHi], prev[:bandHi]
		for ; y < len(qb); y++ {
			up := pb[y]
			c := BaseInterval(qb[y], lo, hi) + Min3(up, diag, left)
			cb[y] = c
			mb = min(mb, math.Float64bits(c))
			left = c
			diag = up
		}
	}
	return curr[n-1], math.Float64frombits(mb)
}

// AddRowPoint appends the row for a point p of the query's dimension using
// the exact base distance, and returns the last column and the row minimum
// like AddRowValue — which it is, at dimension 1. It charges the cells of
// its band.
//
//twlint:steady-state
func (t *Table) AddRowPoint(p []float64) (dist, minDist float64) {
	if t.dim == 1 {
		return t.addRow(p[0], p[0], false)
	}
	q := t.pts
	n := len(q)
	x := t.depth
	curr := t.growRow(n, x)
	bandLo, bandHi := t.bandFill(curr, n, x)
	t.countRow(bandHi - bandLo)
	if bandLo >= bandHi {
		return curr[n-1], Inf
	}
	var mb uint64
	if x == 0 {
		acc := BasePoint(p, q[0])
		curr[0] = acc
		mb = math.Float64bits(acc)
		for y := 1; y < bandHi; y++ {
			acc += BasePoint(p, q[y])
			curr[y] = acc
			mb = min(mb, math.Float64bits(acc))
		}
		return curr[n-1], math.Float64frombits(mb)
	}
	prev := t.prevRow(n, x)
	y := bandLo
	left := Inf
	mb = math.Float64bits(Inf)
	if y == 0 {
		c := BasePoint(p, q[0]) + prev[0]
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
			c := BasePoint(p, qb[y]) + Min3(up, diag, left)
			cb[y] = c
			mb = min(mb, math.Float64bits(c))
			left = c
			diag = up
		}
	}
	return curr[n-1], math.Float64frombits(mb)
}

// AddRowBase appends the lower-bound row whose base distances are
// base[0 … n-1], one per query column, and returns its last column and its
// minimum, like AddRowInterval — which it is, cell for cell, when base[y] is
// D_base-lb(q[y], [lo, hi]). A search computes each symbol's base row once
// and looks it up for every later row of that symbol (BaseRows), so the
// filter row costs a load, Min3 and an add per cell, whatever the element
// type. It charges one cell per query element.
//
//twlint:steady-state
func (t *Table) AddRowBase(base []float64) (dist, minDist float64) {
	n := t.n
	x := t.depth // row index of the new row
	curr := t.growRow(n, x)
	bandLo, bandHi := t.bandFill(curr, n, x)
	t.countRow(n)
	if bandLo >= bandHi {
		return curr[n-1], Inf
	}
	var mb uint64
	if x == 0 {
		acc := base[0]
		curr[0] = acc
		mb = math.Float64bits(acc)
		bb, cb := base[:bandHi], curr[:bandHi]
		for y := 1; y < len(bb); y++ {
			acc += bb[y]
			cb[y] = acc
			mb = min(mb, math.Float64bits(acc))
		}
		return curr[n-1], math.Float64frombits(mb)
	}
	prev := t.prevRow(n, x)
	y := bandLo
	left := Inf
	mb = math.Float64bits(Inf)
	if y == 0 {
		c := base[0] + prev[0]
		curr[0] = c
		mb = math.Float64bits(c)
		left = c
		y = 1
	}
	if y < bandHi {
		diag := prev[y-1]
		bb, cb, pb := base[:bandHi], curr[:bandHi], prev[:bandHi]
		for ; y < len(bb); y++ {
			up := pb[y]
			c := bb[y] + Min3(up, diag, left)
			cb[y] = c
			mb = min(mb, math.Float64bits(c))
			left = c
			diag = up
		}
	}
	return curr[n-1], math.Float64frombits(mb)
}

// A row kernel appends a row in inlinable steps: growRow for the storage,
// bandFill for the band and the out-of-band cells that are read raw,
// countRow to charge the row and advance the depth, and prevRow for the row
// the recurrence reads; then it writes the band.

// countRow charges one row of the given number of cells to the counter and
// makes it current.
func (t *Table) countRow(cells int) {
	t.cells += uint64(cells)
	t.depth++
}

// prevRow returns row x-1 as the recurrence reads it (raw: out-of-band
// cells other than the two bandFill writes are undefined).
func (t *Table) prevRow(n, x int) []float64 {
	return t.rows[(x-1)*n : x*n : x*n]
}

// growRow extends the row storage by one row of n cells and returns the new
// row as a full slice expression (appends beyond it can never reach older
// rows). Growing within capacity is safe even on a rebound table: the caller
// writes every in-band cell and bandFill the out-of-band cells that are
// read, so stale bytes from a previous binding are never observed.
func (t *Table) growRow(n, x int) []float64 {
	if need := (x + 1) * n; need <= cap(t.rows) {
		t.rows = t.rows[:need]
	} else {
		t.rows = append(t.rows, make([]float64, n)...)
	}
	return t.rows[x*n : (x+1)*n : (x+1)*n]
}

// band returns the Sakoe–Chiba band [bandLo, bandHi) of row x: the columns
// within the window of the diagonal, [0, n) without a window, empty
// (bandLo == bandHi == n) once the row lies wholly past the band.
func band(n, window, x int) (bandLo, bandHi int) {
	if window < 0 {
		return 0, n
	}
	return min(max(x-window, 0), n), min(x+window+1, n)
}

// bandFill returns the band of row x and writes Inf into the only two
// out-of-band cells of curr anything reads raw: curr[bandHi], the "up"
// neighbour of the last cell of the next row, whose band ends one column
// further right (its first cell's "left" is carried in a register and its
// "diag" lies inside this band), and curr[n-1], the row's distance to the
// whole query. Every other out-of-band cell keeps whatever the storage held
// — a banded row costs O(window), not O(n) — and is presented as Inf by Row.
func (t *Table) bandFill(curr []float64, n, x int) (bandLo, bandHi int) {
	bandLo, bandHi = band(n, t.window, x)
	if bandHi < n {
		curr[bandHi] = Inf
	}
	if bandHi < n || bandLo == n {
		curr[n-1] = Inf
	}
	return bandLo, bandHi
}

// Row returns the cells of row r (0-based), Inf in every column outside the
// band: the kernels leave those undefined, so Row fills them in, at O(n) per
// call. The slice aliases the table's storage, is for reading only, and is
// invalidated by the next AddRow*/Truncate/Bind.
func (t *Table) Row(r int) []float64 {
	n := t.n
	row := t.rows[r*n : (r+1)*n]
	lo, hi := band(n, t.window, r)
	for y := range row[:lo] {
		row[y] = Inf
	}
	for y := hi; y < n; y++ {
		row[y] = Inf
	}
	return row
}
