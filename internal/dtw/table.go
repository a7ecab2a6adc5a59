package dtw

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
// A Table is not safe for concurrent use; searches that run in parallel use
// one Table each.
type Table struct {
	q []float64
	Rows
}

// Rows is the row storage of a cumulative distance table: depth rows of one
// cell per query element under an optional Sakoe–Chiba band and an optional
// threshold (SetThreshold), pushed and popped by a depth-first traversal. It
// knows nothing of the element type — Table embeds it for scalar queries and
// multivar.Table for vector ones, so the band and live-column arithmetic,
// the growth policy and the parallel frontier's Fork/CopyFrom exist once.
type Rows struct {
	n      int       // cells per row: the query length
	window int       // Sakoe–Chiba half-width; <0 means unconstrained
	rows   []float64 // depth*n cells, row-major
	depth  int
	cells  uint64 // number of DP cells computed since Reset
	// tau is the threshold of SetThreshold, Inf when none is bound, and
	// live[r] the columns of row r that hold its cells <= tau: every cell of
	// the row outside them is dead — above tau, or never computed — and the
	// exact row kernels compute a row only where a live cell of the row
	// above, or of the row itself, can be reached from.
	tau  float64
	live []span
}

// span is the column range [lo, hi).
type span struct{ lo, hi int32 }

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
// all rows, any threshold and zeroing the cell counter but keeping the
// capacity. It panics on n == 0: an empty query has no table.
func (t *Rows) Bind(n, w int) {
	if n == 0 {
		//lint:ignore panicpath precondition assertion: search entry points reject empty queries before any table exists
		panic("dtw: empty query")
	}
	t.n = n
	t.window = w
	t.tau = Inf
	t.Reset()
}

// SetThreshold tells an empty table that its caller only ever asks whether
// a distance or a row minimum is at most tau, which lets the exact row
// kernels (AddRowValue, multivar's AddRowPoint) skip every cell no warping
// path of cost <= tau can pass through: base distances are non-negative, so
// the cost along a path never falls, and a cell above tau — or reachable
// only from such cells — lies on no path that ends at or below it. Every
// cell <= tau keeps the bits the full row would give it; every other cell,
// the returned distance and row minimum included, reads as some value > tau
// (Inf where it was never computed), and Cells counts what was computed.
// Without a threshold (Inf, what Bind leaves) rows are computed whole. The
// lower-bound kernels fill their whole band and read the row above the same
// way, so they belong on a table that has no threshold.
func (t *Rows) SetThreshold(tau float64) {
	if t.depth != 0 {
		//lint:ignore panicpath row-discipline assertion: rows computed under another threshold would be read as if their dead cells were live
		panic("dtw: SetThreshold on a table that holds rows")
	}
	t.tau = tau
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

// Fork returns a copy of the first depth rows — the paper's R_d prefix
// sharing cut at a parallel frontier: one traversal computes the shared
// prefix once, and each subtree task extends its own copy of it (see
// CopyFrom). The fork owns separate storage and starts with a zero cell
// counter, so prefix cells are counted exactly once, by the table that
// computed them.
func (t *Rows) Fork(depth int) *Rows {
	if depth < 0 || depth > t.depth {
		//lint:ignore panicpath row-discipline assertion: forking past the stack means traversal bookkeeping is already corrupt
		panic("dtw: bad Fork depth")
	}
	f := &Rows{n: t.n, window: t.window, depth: depth, tau: t.tau}
	f.rows = append(f.rows, t.rows[:depth*t.n]...)
	f.live = append(f.live, t.live[:depth]...)
	return f
}

// CopyFrom makes t's rows a copy of src's, reusing t's storage when it is
// large enough; src must come from a table over the same query and window
// (a worker's table is bound like the driver's before it takes a fork).
// The cell counter is left untouched: copied rows were computed (and
// counted) elsewhere, so a worker table keeps accumulating only the cells
// it computes itself across the tasks it executes.
func (t *Rows) CopyFrom(src *Rows) {
	if src.n != t.n || src.window != t.window {
		//lint:ignore panicpath row-discipline assertion: rows of another query's shape under this table's kernels would yield distances that bound nothing
		panic("dtw: CopyFrom across differently bound tables")
	}
	t.depth = src.depth
	need := src.depth * src.n
	if cap(t.rows) >= need {
		t.rows = t.rows[:need]
	} else {
		t.rows = make([]float64, need)
	}
	copy(t.rows, src.rows)
	t.live = append(t.live[:0], src.live[:src.depth]...)
}

// AddRowValue appends the row for a numeric element v using the exact base
// distance and returns the row's last column (the distance between the query
// and the subsequence accumulated so far, per Definition 2) and its minimum
// column (the Theorem-1 pruning value) — both exact when at most the
// table's threshold, some value above it otherwise (SetThreshold).
//
//twlint:bound-source results=1
//twlint:steady-state
func (t *Table) AddRowValue(v float64) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.depth // row index of the new row
	curr := t.GrowRow(n, x)
	lo, mid, hi, tau := t.Reach(n, x)
	minDist = Inf
	y := lo
	// left carries curr[y-1]; before the first cell of the first row it is
	// the empty alignment, which costs nothing.
	left := Inf
	if x == 0 {
		left = 0
	}
	if y < mid {
		prev := t.PrevRow(n, x)
		if y == 0 {
			c := Base(v, q[0]) + prev[0]
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
				c := Base(v, qb[y]) + Min3(left, up, diag)
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
		left += Base(v, q[y])
		curr[y] = left
		if left < minDist {
			minDist = left
		}
	}
	return t.CloseRow(curr, n, x, lo, y), minDist
}

// AddRowInterval appends the row for a category symbol whose observed value
// range is [lo, hi], using the lower-bound base distance D_base-lb of
// Definition 3.
//
//twlint:bound-source results=0,1
//twlint:steady-state
func (t *Table) AddRowInterval(lo, hi float64) (dist, minDist float64) {
	q := t.q
	n := len(q)
	x := t.depth // row index of the new row
	curr := t.GrowRow(n, x)
	bandLo, bandHi := t.BandFill(curr, n, x)
	minDist = Inf
	t.CountRow(n)
	if bandLo >= bandHi {
		return curr[n-1], minDist
	}
	if x == 0 {
		acc := BaseInterval(q[0], lo, hi)
		curr[0] = acc
		minDist = acc
		for y := 1; y < bandHi; y++ {
			acc += BaseInterval(q[y], lo, hi)
			curr[y] = acc
			if acc < minDist {
				minDist = acc
			}
		}
		return curr[n-1], minDist
	}
	prev := t.PrevRow(n, x)
	y := bandLo
	left := Inf
	if y == 0 {
		c := BaseInterval(q[0], lo, hi) + prev[0]
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
			c := BaseInterval(qb[y], lo, hi) + Min3(left, up, diag)
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

// A row kernel — dtw's two and multivar's two — appends a row in inlinable
// steps. All take GrowRow for the storage and PrevRow for the row the
// recurrence reads. A lower-bound kernel then takes BandFill for the band and
// the out-of-band cells that are read raw and CountRow to charge the row and
// advance the depth, and writes the band; an exact kernel takes Reach for the
// part of the band a path within the threshold can enter, writes it, and
// hands what it wrote to CloseRow.

// CountRow charges one row of n cells to the counter and makes it current.
func (t *Rows) CountRow(n int) {
	t.cells += uint64(n)
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
func (t *Rows) band(n, x int) (bandLo, bandHi int) {
	if t.window < 0 {
		return 0, n
	}
	return min(max(x-t.window, 0), n), min(x+t.window+1, n)
}

// BandFill returns the band of row x, records it as the row's live columns
// and writes Inf into the only two out-of-band cells of curr anything reads
// raw: curr[bandHi], the "up" neighbour of the last cell of the next row,
// whose band ends one column further right (its first cell's "left" is
// carried in a register and its "diag" lies inside this band), and
// curr[n-1], the row's distance to the whole query. Every other out-of-band
// cell keeps whatever the storage held — a banded row costs O(window), not
// O(n) — and is presented as Inf by Row.
func (t *Rows) BandFill(curr []float64, n, x int) (bandLo, bandHi int) {
	bandLo, bandHi = t.band(n, x)
	t.live = append(t.live[:x], span{int32(bandLo), int32(bandHi)})
	if bandHi < n {
		curr[bandHi] = Inf
	}
	if bandHi < n || bandLo == n {
		curr[n-1] = Inf
	}
	return bandLo, bandHi
}

// Reach returns the columns of row x that a warping path of cost at most
// the threshold can enter: [lo, mid) lies in the band next to a live cell of
// row x-1 (below it or diagonally), [mid, hi) is the rest of the band to the
// right, which such a path enters only along row x itself. Row 0 is all
// chain (lo == mid == 0), a row under a row without live cells is empty, and
// without a threshold [lo, mid) is the band and [mid, hi) empty. tau is the
// threshold, which the kernel holds the chain to.
func (t *Rows) Reach(n, x int) (lo, mid, hi int, tau float64) {
	lo, hi = t.band(n, x)
	if x == 0 {
		return lo, lo, hi, t.tau
	}
	p := t.live[x-1]
	if p.lo == p.hi {
		return hi, hi, hi, t.tau
	}
	lo = max(lo, int(p.lo))
	return lo, max(lo, min(int(p.hi)+1, hi)), hi, t.tau
}

// CloseRow makes the row whose cells [lo, end) a kernel has just written the
// table's last: it charges those cells, records the columns from the first
// to the last cell within the threshold as live, and writes Inf into the
// cells either side of them — all of the row outside them that the next row
// reads — and, when the last column is not live, into it. It returns the
// last column.
func (t *Rows) CloseRow(curr []float64, n, x, lo, end int) (dist float64) {
	t.cells += uint64(end - lo)
	t.depth++
	hi := end
	for hi > lo && curr[hi-1] > t.tau {
		hi--
	}
	for lo < hi && curr[lo] > t.tau {
		lo++
	}
	t.live = append(t.live[:x], span{int32(lo), int32(hi)})
	if lo > 0 {
		curr[lo-1] = Inf
	}
	if hi < n {
		curr[hi] = Inf
	}
	if hi < n || lo == hi {
		curr[n-1] = Inf
	}
	return curr[n-1]
}

// Row returns the cells of row r (0-based), Inf in every column that is not
// live — out of band, or dead under the threshold: the kernels leave those
// undefined, so Row fills them in, at O(n) per call. The slice aliases the
// table's storage, is for reading only, and is invalidated by the next
// AddRow*/Pop/Truncate/Bind.
func (t *Rows) Row(r int) []float64 {
	n := t.n
	row := t.rows[r*n : (r+1)*n]
	live := t.live[r]
	for y := range row[:live.lo] {
		row[y] = Inf
	}
	for y := int(live.hi); y < n; y++ {
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
