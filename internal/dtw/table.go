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
// backtrack → Pop. Sharing the table across all suffixes with a common
// prefix is the paper's R_d reduction factor.
//
// A Table is not safe for concurrent use; concurrent searches use one Table
// each.
type Table struct {
	q []float64
	Rows
}

// Rows is the row storage of a cumulative distance table: depth rows of one
// cell per query element under an optional Sakoe–Chiba band, pushed and
// popped by a depth-first traversal. It knows nothing of the element type —
// Table embeds it for scalar queries and multivar.Table for vector ones, so
// the band arithmetic, the growth policy and the row kernel over
// precomputed base distances (AddRowBase) exist once.
type Rows struct {
	n      int       // cells per row: the query length
	window int       // Sakoe–Chiba half-width; <0 means unconstrained
	rows   []float64 // depth*n cells, row-major
	depth  int
	cells  uint64 // number of DP cells computed since Reset
}

// NewTable returns a table for the given query with no warping-window
// constraint. It panics on an empty query.
func NewTable(q []float64) *Table {
	return NewTableWindow(q, -1)
}

// NewTableWindow returns a table whose rows apply a Sakoe–Chiba band of
// half-width w; pass w < 0 for no constraint.
func NewTableWindow(q []float64, w int) *Table {
	t := &Table{}
	t.Bind(q, w)
	return t
}

// Bind re-targets the table at a new query and window, dropping all rows
// but keeping the row storage. Pooled query contexts use it so a reused
// table serves its next search without reallocating.
func (t *Table) Bind(q []float64, w int) {
	t.q = q
	t.Rows.Bind(len(q), w)
}

// Query returns the query sequence the table was built for.
func (t *Table) Query() []float64 { return t.q }

// Bind re-targets the storage at rows of n cells under window w, dropping
// all rows and zeroing the cell counter but keeping the capacity. It panics
// on n == 0: an empty query has no table.
func (t *Rows) Bind(n, w int) {
	if n == 0 {
		//lint:ignore panicpath precondition assertion: search entry points reject empty queries before any table exists
		panic("dtw: empty query")
	}
	t.n = n
	t.window = w
	t.Reset()
}

// Depth returns the number of rows currently in the table.
func (t *Rows) Depth() int { return t.depth }

// Cells returns the number of DP cells computed since the last Reset — the
// machine-independent work counter used by the benchmark harness.
func (t *Rows) Cells() uint64 { return t.cells }

// Reset drops all rows and zeroes the cell counter.
func (t *Rows) Reset() {
	t.rows = t.rows[:0]
	t.depth = 0
	t.cells = 0
}

// Pop removes the most recently added row. It panics on an empty table.
//
//twlint:steady-state
func (t *Rows) Pop() {
	if t.depth == 0 {
		//lint:ignore panicpath row-discipline assertion: an unmatched Pop means AddRow/Pop bookkeeping is already corrupt, so lower bounds can no longer be trusted
		panic("dtw: Pop on empty table")
	}
	t.depth--
	t.rows = t.rows[:t.depth*t.n]
}

// Truncate pops rows until exactly depth rows remain (the cell counter keeps
// accumulating).
//
//twlint:steady-state
func (t *Rows) Truncate(depth int) {
	if depth < 0 || depth > t.depth {
		//lint:ignore panicpath row-discipline assertion: truncating past the stack means traversal bookkeeping is already corrupt
		panic("dtw: bad Truncate depth")
	}
	t.depth = depth
	t.rows = t.rows[:depth*t.n]
}

// AddRowValue appends the row for a numeric element v using the exact base
// distance and returns the row's last column (the distance between the query
// and the subsequence accumulated so far, per Definition 2) and its minimum
// column (the Theorem-1 pruning value). It charges the cells of its band.
//
//twlint:steady-state
func (t *Table) AddRowValue(v float64) (dist, minDist float64) {
	return t.addRow(v, v, false)
}

// AddRowInterval appends the row for a category symbol whose observed value
// range is [lo, hi], using the lower-bound base distance D_base-lb of
// Definition 3. Like every lower-bound row it charges one cell per query
// element.
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
	curr := t.GrowRow(n, x)
	bandLo, bandHi := t.BandFill(curr, n, x)
	if lowerBound {
		t.CountRow(n)
	} else {
		t.CountRow(bandHi - bandLo)
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
	prev := t.PrevRow(n, x)
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

// AddRowBase appends the lower-bound row whose base distances are
// base[0 … n-1], one per query column, and returns its last column and its
// minimum, like AddRowInterval — which it is, cell for cell, when base[y] is
// D_base-lb(q[y], [lo, hi]). A search computes each symbol's base row once
// and looks it up for every later row of that symbol (BaseRows), so the
// filter row costs a load, Min3 and an add per cell, whatever the element
// type. It charges one cell per query element.
//
//twlint:steady-state
func (t *Rows) AddRowBase(base []float64) (dist, minDist float64) {
	n := t.n
	x := t.depth // row index of the new row
	curr := t.GrowRow(n, x)
	bandLo, bandHi := t.BandFill(curr, n, x)
	t.CountRow(n)
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
	prev := t.PrevRow(n, x)
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

// A row kernel — dtw's and multivar's — appends a row in inlinable steps:
// GrowRow for the storage, BandFill for the band and the out-of-band cells
// that are read raw, CountRow to charge the row and advance the depth, and
// PrevRow for the row the recurrence reads; then it writes the band.

// CountRow charges one row of the given number of cells to the counter and
// makes it current.
func (t *Rows) CountRow(cells int) {
	t.cells += uint64(cells)
	t.depth++
}

// PrevRow returns row x-1 as the recurrence reads it (raw: out-of-band
// cells other than the two BandFill writes are undefined).
func (t *Rows) PrevRow(n, x int) []float64 {
	return t.rows[(x-1)*n : x*n : x*n]
}

// GrowRow extends the row storage by one row of n cells and returns the new
// row as a full slice expression (appends beyond it can never reach older
// rows). Growing within capacity is safe even on a rebound table: the caller
// writes every in-band cell and BandFill the out-of-band cells that are
// read, so stale bytes from a previous binding are never observed.
func (t *Rows) GrowRow(n, x int) []float64 {
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

// BandFill returns the band of row x and writes Inf into the only two
// out-of-band cells of curr anything reads raw: curr[bandHi], the "up"
// neighbour of the last cell of the next row, whose band ends one column
// further right (its first cell's "left" is carried in a register and its
// "diag" lies inside this band), and curr[n-1], the row's distance to the
// whole query. Every other out-of-band cell keeps whatever the storage held
// — a banded row costs O(window), not O(n) — and is presented as Inf by Row.
func (t *Rows) BandFill(curr []float64, n, x int) (bandLo, bandHi int) {
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
// invalidated by the next AddRow*/Pop/Truncate/Bind.
func (t *Rows) Row(r int) []float64 {
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

// LastColumn returns the final column of row r: the cumulative distance
// between the full query and the first r+1 elements of the matched
// subsequence.
func (t *Rows) LastColumn(r int) float64 {
	n := t.n
	return t.rows[r*n+n-1]
}
