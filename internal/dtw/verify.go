package dtw

import "math"

// Verifier is the exact table of the verification pass: for one start at a
// time it grows the cumulative table of Definition 2 row by row along the
// subsequence and reports every prefix within a threshold tau, with
// Theorem-1 early abandon. Unlike Table it keeps two rolling rows, not a
// stack, and computes a row only where a warping path of cost at most tau
// can enter it (THEORY.md §1b): the live columns of the row above — the
// ones holding cells at most tau — decide where the new row starts and how
// far it reaches, and they travel from row to row in locals.
//
// Verifier holds the scalar query; multivar.Verifier is the vector twin
// over the same VerifyRows.
type Verifier struct {
	q []float64
	VerifyRows
}

// VerifyRows is a verifier's element-type-free half: two rolling rows of n
// cells, the Sakoe–Chiba band, the threshold and the cell counter.
type VerifyRows struct {
	n, window  int
	tau        float64
	prev, curr []float64
	cells      uint64
}

// Bind re-targets the verifier at a new, non-empty query, a window (< 0:
// none) and a threshold, zeroing the cell counter and keeping the row
// storage.
func (v *Verifier) Bind(q []float64, w int, tau float64) {
	v.q = q
	v.VerifyRows.Bind(len(q), w, tau)
}

// Bind re-targets the storage at rows of n > 0 cells under window w and
// threshold tau, zeroing the cell counter.
func (v *VerifyRows) Bind(n, w int, tau float64) {
	v.n, v.window, v.tau = n, w, tau
	if cap(v.prev) < n {
		v.prev, v.curr = make([]float64, n), make([]float64, n)
	}
	v.prev, v.curr = v.prev[:n], v.curr[:n]
	v.cells = 0
}

// Cells returns the cells computed since Bind: only those a path within the
// threshold can reach, and none at a start dead on its first element.
func (v *VerifyRows) Cells() uint64 { return v.cells }

// Threshold returns the bound tau the scans report within.
func (v *VerifyRows) Threshold() float64 { return v.tau }

// Rows returns the two rolling rows, each of n cells; a scan swaps them
// after every row.
func (v *VerifyRows) Rows() (prev, curr []float64) { return v.prev, v.curr }

// Reach returns the columns row x computes when [plo, phi) are the live
// columns of row x-1: [lo, mid) lies in the band next to a live cell above
// (below it or diagonally), [mid, hi) is the rest of the band, which a path
// within the threshold enters only along row x itself, for as long as the
// cell to its left is live. Row 0 is all such chain (lo == mid).
//
//twlint:steady-state
func (v *VerifyRows) Reach(x, plo, phi int) (lo, mid, hi int) {
	lo, hi = band(v.n, v.window, x)
	if x == 0 {
		return lo, lo, hi
	}
	lo = max(lo, plo)
	return lo, max(lo, min(phi+1, hi)), hi
}

// Close charges the cells [lo, end) a scan has just written into curr and
// returns the live columns among them — from the first to the last cell at
// most the threshold, empty when there is none, which is when the row's
// minimum exceeds it and Theorem 1 ends the scan. It writes Inf either side
// of the live columns: all of the row outside them the next row reads.
//
//twlint:steady-state
func (v *VerifyRows) Close(curr []float64, lo, end int) (liveLo, liveHi int) {
	v.cells += uint64(end - lo)
	tau := v.tau
	hi := end
	for hi > lo && curr[hi-1] > tau {
		hi--
	}
	for lo < hi && curr[lo] > tau {
		lo++
	}
	if lo > 0 {
		curr[lo-1] = Inf
	}
	if hi < v.n {
		curr[hi] = Inf
	}
	return lo, hi
}

// Dead reports that no subsequence beginning at s[start] is within the
// threshold: its first element alone is further than the threshold from
// the query's, and every warping path pays that base distance first
// (THEORY.md §1a). The test is strict, so a start at exactly the threshold
// lives on.
//
//twlint:steady-state
func (v *Verifier) Dead(s []float64, start int) bool { return Base(s[start], v.q[0]) > v.tau }

// Scan verifies the subsequences s[start:e] for e = start+1 … end: it calls
// hit(e, D_tw) for each one whose exact distance from the query is at most
// the threshold, in increasing e, with the bits the full table would give
// it. A Dead start is dismissed before any cell is computed; otherwise the
// scan stops at the first row without a live cell. The cells it computes
// are exactly those the live-column recurrence reaches (Reach, Close).
//
//twlint:steady-state
func (v *Verifier) Scan(s []float64, start, end int, hit func(end int, dist float64)) {
	q := v.q
	n := len(q)
	tau := v.tau
	if v.Dead(s, start) {
		return
	}
	// Every end is within an infinite threshold, at distance +Inf where
	// the band keeps paths off the last column, and no row ends the scan.
	unbounded := math.IsInf(tau, 1)
	prev, curr := v.Rows()
	plo, phi := 0, 0
	for x, e := 0, start; e < end; x, e = x+1, e+1 {
		val := s[e]
		lo, mid, hi := v.Reach(x, plo, phi)
		y := lo
		// left carries curr[y-1]; before the first cell of the first row it
		// is the empty alignment, which costs nothing.
		left := Inf
		if x == 0 {
			left = 0
		}
		if y < mid {
			if y == 0 {
				c := Base(val, q[0]) + prev[0]
				curr[0] = c
				left = c
				y = 1
			}
			if y < mid {
				// left and diag carry curr[y-1] and prev[y-1] in registers.
				// The two dead neighbours the loop can read, prev[lo-1] and
				// prev[mid-1], hold the Inf the previous row's Close wrote.
				diag := prev[y-1]
				qb, cb, pb := q[:mid], curr[:mid], prev[:mid]
				for ; y < len(qb); y++ {
					up := pb[y]
					c := Base(val, qb[y]) + Min3(up, diag, left)
					cb[y] = c
					left = c
					diag = up
				}
			}
		}
		for ; y < hi && left <= tau; y++ {
			left += Base(val, q[y])
			curr[y] = left
		}
		plo, phi = v.Close(curr, lo, y)
		switch {
		case plo < phi && phi == n:
			hit(e+1, curr[n-1])
		case unbounded:
			hit(e+1, Inf)
		case plo == phi:
			return
		}
		prev, curr = curr, prev
	}
}

// BaseRows caches the filter pass's base rows for one query: the base
// distance of one symbol against every query column, computed the first
// time a row of that symbol is added and looked up by every later one
// (Rows.AddRowBase). A base row depends only on the symbol and the column,
// never on the row or the path, so a repeat of a symbol anywhere in the tree
// reuses it. The cache is direct-mapped: one slot per symbol while the
// alphabet fits in maxBaseCells cells, symbols sharing slots beyond that, so
// an identity-sized alphabet costs bounded memory and refills on collision.
type BaseRows struct {
	n     int
	mask  int32     // slots-1; the slot count is a power of two
	tags  []int32   // the symbol whose row each slot holds, -1 for none
	cells []float64 // one row of n cells per slot
}

// maxBaseCells bounds a cache at 256 KiB of cells.
const maxBaseCells = 1 << 15

// Bind empties the cache and sizes it for rows of n cells over symbols
// 0 … symbols-1, keeping the storage when it is large enough.
func (b *BaseRows) Bind(n, symbols int) {
	slots := 1
	for slots < symbols && 2*slots*n <= maxBaseCells {
		slots *= 2
	}
	b.n = n
	b.mask = int32(slots - 1)
	if cap(b.tags) < slots {
		b.tags = make([]int32, slots)
	}
	b.tags = b.tags[:slots]
	for i := range b.tags {
		b.tags[i] = -1
	}
	if cap(b.cells) < slots*n {
		b.cells = make([]float64, slots*n)
	}
	b.cells = b.cells[:slots*n]
}

// Row returns sym's base row and whether it already holds sym's distances.
// When it does not, the slot now belongs to sym and the caller must fill
// all n cells before the row is read.
//
//twlint:steady-state
func (b *BaseRows) Row(sym int32) (row []float64, cached bool) {
	slot := int(sym & b.mask)
	row = b.cells[slot*b.n : (slot+1)*b.n : (slot+1)*b.n]
	if b.tags[slot] == sym {
		return row, true
	}
	b.tags[slot] = sym
	return row, false
}
