package multivar

import "twsearch/internal/dtw"

// Table is the multivariate counterpart of dtw.Table: the cumulative time
// warping distance table with the query's points along the columns, grown
// (and popped) one row at a time by the tree traversal.
type Table struct {
	q      [][]float64
	window int // Sakoe–Chiba half-width; <0 means unconstrained
	rows   []float64
	depth  int
	cells  uint64
}

// NewTable returns a table for the given query with no warping-window
// constraint. It panics on an empty query.
func NewTable(q [][]float64) *Table {
	return NewTableWindow(q, -1)
}

// NewTableWindow returns a table whose rows apply a Sakoe–Chiba band of
// half-width w; pass w < 0 for no constraint.
func NewTableWindow(q [][]float64, w int) *Table {
	if len(q) == 0 {
		//lint:ignore panicpath precondition assertion: search entry points reject empty queries before any table exists
		panic("multivar: empty query")
	}
	return &Table{q: q, window: w}
}

// Bind re-targets the table at a new query and window, dropping all rows
// but keeping the row storage, so pooled query contexts reuse one table
// across searches.
func (t *Table) Bind(q [][]float64, w int) {
	if len(q) == 0 {
		//lint:ignore panicpath precondition assertion: search entry points reject empty queries before any table exists
		panic("multivar: empty query")
	}
	t.q = q
	t.window = w
	t.rows = t.rows[:0]
	t.depth = 0
	t.cells = 0
}

// Depth returns the current number of rows.
func (t *Table) Depth() int { return t.depth }

// Cells returns the number of DP cells computed since construction.
func (t *Table) Cells() uint64 { return t.cells }

// Truncate pops rows until depth rows remain (the cell counter keeps
// accumulating).
//
//twlint:steady-state
func (t *Table) Truncate(depth int) {
	if depth < 0 || depth > t.depth {
		//lint:ignore panicpath row-discipline assertion: truncating past the stack means traversal bookkeeping is already corrupt
		panic("multivar: bad Truncate depth")
	}
	t.depth = depth
	t.rows = t.rows[:depth*len(t.q)]
}

// Fork returns a new table over the same query and window whose first depth
// rows are copies of t's — R_d prefix sharing cut at a parallel frontier.
// The fork owns separate row storage and starts with a zero cell counter,
// so prefix cells are counted exactly once, by the table that computed them.
func (t *Table) Fork(depth int) *Table {
	if depth < 0 || depth > t.depth {
		//lint:ignore panicpath row-discipline assertion: forking past the stack means traversal bookkeeping is already corrupt
		panic("multivar: bad Fork depth")
	}
	n := len(t.q)
	f := &Table{q: t.q, window: t.window, depth: depth}
	f.rows = append(f.rows, t.rows[:depth*n]...)
	return f
}

// CopyFrom makes t a row-for-row copy of src — same query, window, and
// depth — reusing t's row storage when it is large enough. The cell counter
// is left untouched: copied rows were computed (and counted) elsewhere.
func (t *Table) CopyFrom(src *Table) {
	t.q = src.q
	t.window = src.window
	t.depth = src.depth
	need := src.depth * len(src.q)
	if cap(t.rows) >= need {
		t.rows = t.rows[:need]
	} else {
		t.rows = make([]float64, need)
	}
	copy(t.rows, src.rows)
}

// Row returns row r's cells, Inf in out-of-band columns: the kernels leave
// those undefined, so Row fills them in, at O(n) per call. The view is for
// reading only and valid until the next mutation.
func (t *Table) Row(r int) []float64 {
	n := len(t.q)
	row := t.rows[r*n : (r+1)*n]
	bandLo, bandHi := t.band(n, r)
	for y := range row[:bandLo] {
		row[y] = dtw.Inf
	}
	for y := bandHi; y < n; y++ {
		row[y] = dtw.Inf
	}
	return row
}

// AddRowPoint appends the row for a data point using the exact base
// distance; returns the last column (prefix distance) and row minimum.
//
//twlint:bound-source results=1
//twlint:steady-state
func (t *Table) AddRowPoint(p []float64) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.depth
	curr := t.growRow(n, x)
	bandLo, bandHi := t.bandFill(curr, n, x)
	minDist = dtw.Inf
	t.cells += uint64(n)
	t.depth++
	if bandLo >= bandHi {
		return curr[n-1], minDist
	}
	if x == 0 {
		acc := Base(p, q[0])
		curr[0] = acc
		minDist = acc
		for y := 1; y < bandHi; y++ {
			acc += Base(p, q[y])
			curr[y] = acc
			if acc < minDist {
				minDist = acc
			}
		}
		return curr[n-1], minDist
	}
	prev := t.rows[(x-1)*n : x*n : x*n]
	y := bandLo
	// left and diag carry curr[y-1] and prev[y-1] in registers, so the loop
	// body reads prev exactly once per cell. The one out-of-band neighbour
	// it reads, up at the band's right edge, holds the Inf the previous
	// row's bandFill wrote, so the three-way min is safe at band edges.
	left := dtw.Inf
	if y == 0 {
		c := Base(p, q[0]) + prev[0]
		curr[0] = c
		minDist = c
		left = c
		y = 1
	}
	if y < bandHi {
		diag := prev[y-1]
		// Equal-length reslices let the compiler drop the per-cell bounds
		// checks: y < len(qb) covers all three.
		qb, cb, pb := q[:bandHi], curr[:bandHi], prev[:bandHi]
		for ; y < len(qb); y++ {
			up := pb[y]
			c := Base(p, qb[y]) + min3(left, up, diag)
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

// AddRowBox appends the row for a cell symbol's bounding box using the
// lower-bound base distance.
//
//twlint:bound-source results=0,1
//twlint:steady-state
func (t *Table) AddRowBox(b Box) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.depth
	curr := t.growRow(n, x)
	bandLo, bandHi := t.bandFill(curr, n, x)
	minDist = dtw.Inf
	t.cells += uint64(n)
	t.depth++
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
	prev := t.rows[(x-1)*n : x*n : x*n]
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
			c := BaseBox(qb[y], b) + min3(left, up, diag)
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

// growRow extends the row storage by one row of n cells and returns the new
// row as a full slice expression. Growing within capacity is safe even on a
// rebound table: the caller writes every in-band cell and bandFill the
// out-of-band cells that are read, so stale bytes from a previous binding
// are never observed.
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
func (t *Table) band(n, x int) (bandLo, bandHi int) {
	if t.window < 0 {
		return 0, n
	}
	return min(max(x-t.window, 0), n), min(x+t.window+1, n)
}

// bandFill returns the band of row x and writes dtw.Inf into the only two
// out-of-band cells of curr anything reads raw: curr[bandHi], the "up"
// neighbour of the last cell of the next row, whose band ends one column
// further right (its first cell's "left" is carried in a register and its
// "diag" lies inside this band), and curr[n-1], the row's distance to the
// whole query. Every other out-of-band cell keeps whatever the storage held
// — a banded row costs O(window), not O(n) — and is presented as dtw.Inf by Row.
func (t *Table) bandFill(curr []float64, n, x int) (bandLo, bandHi int) {
	bandLo, bandHi = t.band(n, x)
	if bandHi < n {
		curr[bandHi] = dtw.Inf
	}
	if bandHi < n || bandLo == n {
		curr[n-1] = dtw.Inf
	}
	return bandLo, bandHi
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}
