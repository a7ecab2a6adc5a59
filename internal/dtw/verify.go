package dtw

import (
	"math"
	"slices"
)

// Verifier is the exact table of the verification pass: for one start at a
// time it grows the cumulative table of Definition 2 row by row along the
// subsequence and reports every prefix within a threshold tau, with
// Theorem-1 early abandon. Unlike Table it keeps two rolling rows, not a
// stack, and computes a row only where a warping path of cost at most tau
// can enter it (THEORY.md §1b): the live columns of the row above — the
// ones holding cells at most tau — decide where the new row starts and how
// far it reaches, and they travel from row to row in locals.
//
// The query and the scanned sequences are point-major in one dimension.
// Scan runs one of two cell loops, picked by it: the value loop at
// dimension 1 and the point loop above it, which differ only in the base
// distance each cell adds.
type Verifier struct {
	q   []float64
	dim int
	// pts views q's points when dim > 1, for the point loop.
	pts [][]float64
	// rq is q's values last to first at dimension 1, rpts q's point views
	// last to first above it: the columns of the backward pass.
	rq   []float64
	rpts [][]float64

	n, window  int
	tau        float64
	prev, curr []float64
	cells      uint64

	// The windowed admission bound (Admit): every answer of a start spans
	// at least minLen rows, and row i of one lies in the hull of the query
	// points the window lets it meet — lo and hi, point-major, from row 1
	// on: row i's at [(i-1)*dim, i*dim). The sum is tested against
	// admitTau; gaps counts its terms since Bind. minLen is 1, and there is
	// no sum, without a window, under an infinite threshold or when the
	// window lets a single row be an answer. env and col are Bind's
	// scratch.
	minLen   int
	lo, hi   []float64
	admitTau float64
	gaps     uint64
	env      Envelope
	col      []float64
}

// Bind re-targets the verifier at a new, non-empty point-major query of
// dimension dim, a window (< 0: none) and a threshold, zeroing the cell
// counter and keeping the row storage.
func (v *Verifier) Bind(q []float64, dim, w int, tau float64) {
	n := len(q) / dim
	v.q, v.dim = q, dim
	v.pts, v.rq, v.rpts = v.pts[:0], v.rq[:0], v.rpts[:0]
	if dim > 1 {
		v.pts = points(v.pts, q, dim)
		for i := n - 1; i >= 0; i-- {
			v.rpts = append(v.rpts, v.pts[i])
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			v.rq = append(v.rq, q[i])
		}
	}
	v.n, v.window, v.tau = n, w, tau
	if cap(v.prev) < n {
		v.prev, v.curr = make([]float64, n), make([]float64, n)
	}
	v.prev, v.curr = v.prev[:n], v.curr[:n]
	v.cells = 0
	v.bindAdmit()
}

// bindAdmit sets up the windowed admission bound for the bound query:
// under a window w that leaves every answer more than one row, minLen =
// n - w and the hull of every row below it, one Envelope per coordinate
// (THEORY.md §13).
func (v *Verifier) bindAdmit() {
	n, w, dim := v.n, v.window, v.dim
	v.minLen, v.gaps = 1, 0
	v.lo, v.hi = v.lo[:0], v.hi[:0]
	if w < 0 || n-w <= 1 || math.IsInf(v.tau, 1) {
		return
	}
	v.minLen = n - w
	// Both sums have fewer than 3n terms: the bound's n - w and a path's
	// at most (n + w) + n - 1.
	v.admitTau = margin(v.tau, 3*n)
	rows := (v.minLen - 1) * dim
	v.lo, v.hi = grow(v.lo, rows), grow(v.hi, rows)
	for k := 0; k < dim; k++ {
		v.col = v.col[:0]
		for i := k; i < len(v.q); i += dim {
			v.col = append(v.col, v.q[i])
		}
		v.env.Bind(v.col, w)
		elo, ehi := v.env.Bounds()
		for i := 1; i < v.minLen; i++ {
			v.lo[(i-1)*dim+k], v.hi[(i-1)*dim+k] = elo[i], ehi[i]
		}
	}
}

// Cells returns the cells computed since Bind: only those a path within the
// threshold can reach, and none at a start dead on its first element.
func (v *Verifier) Cells() uint64 { return v.cells }

// Gaps returns the envelope gap terms Admit has summed since Bind.
func (v *Verifier) Gaps() uint64 { return v.gaps }

// Rows returns the two rolling rows, each of one cell per query point; a
// scan swaps them after every row.
func (v *Verifier) Rows() (prev, curr []float64) { return v.prev, v.curr }

// reach returns the columns row x computes when [plo, phi) are the live
// columns of row x-1: [lo, mid) lies in the band next to a live cell above
// (below it or diagonally), [mid, hi) is the rest of the band, which a path
// within the threshold enters only along row x itself, for as long as the
// cell to its left is live. Row 0 is all such chain (lo == mid).
//
//twlint:steady-state
func (v *Verifier) reach(x, plo, phi int) (lo, mid, hi int) {
	lo, hi = band(v.n, v.window, x)
	if x == 0 {
		return lo, lo, hi
	}
	lo = max(lo, plo)
	return lo, max(lo, min(phi+1, hi)), hi
}

// close charges the cells [lo, end) a scan has just written into curr and
// returns the live columns among them — from the first to the last cell at
// most the threshold, empty when there is none, which is when the row's
// minimum exceeds it and Theorem 1 ends the scan. It writes Inf either side
// of the live columns: all of the row outside them the next row reads.
//
//twlint:steady-state
func (v *Verifier) close(curr []float64, lo, end int) (liveLo, liveHi int) {
	v.cells += uint64(end - lo)
	return v.live(curr, lo, end, v.tau)
}

// live returns the live columns among curr[lo:end] under tau and writes
// Inf either side of them, as close does.
//
//twlint:steady-state
func (v *Verifier) live(curr []float64, lo, end int, tau float64) (liveLo, liveHi int) {
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

// Dead reports that no subsequence beginning at point start of s is within
// the threshold: its first point alone is further than the threshold from
// the query's, and every warping path pays that base distance first
// (THEORY.md §1a). The test is strict, so a start at exactly the threshold
// lives on.
//
//twlint:steady-state
func (v *Verifier) Dead(s []float64, start int) bool {
	d := v.dim
	return BasePoint(s[start*d:(start+1)*d], v.q[:d]) > v.tau
}

// Admit reports whether a subsequence beginning at point start of s can
// still be within the threshold, by the windowed admission bound (THEORY.md
// §13). Under a window w, every answer of the start is at least n - w
// points long, so a start closer than that to the end of s has none; and
// its row i pays at least the gap between s's point and the hull of the
// query points q[i-w .. i+w], so base(s[start], q[0]) plus those gaps for
// 1 <= i < n - w bounds every answer's distance from below. The base term
// is Dead's test, strict at the threshold; the sum, abandoned as soon as it
// exceeds it, is tested against the threshold raised by the rounding
// margin. Without a window, under an infinite threshold or when the window
// lets one point be an answer, Admit is Dead's negation.
//
//twlint:steady-state
func (v *Verifier) Admit(s []float64, start int) bool {
	d := v.dim
	if start+v.minLen > len(s)/d {
		return false
	}
	p := s[start*d : (start+v.minLen)*d]
	sum := BasePoint(p[:d], v.q[:d])
	if sum > v.tau {
		return false
	}
	if v.minLen == 1 {
		return true
	}
	if d == 1 {
		return v.admitValues(sum, p[1:])
	}
	return v.admitPoints(sum, p[d:])
}

// admitValues is Admit's sum at dimension 1 over the values x of rows 1 on,
// from the base term sum.
//
//twlint:steady-state
func (v *Verifier) admitValues(sum float64, x []float64) bool {
	tau := v.admitTau
	lo, hi := v.lo[:len(x)], v.hi[:len(x)]
	for i, val := range x {
		sum += BaseInterval(val, lo[i], hi[i])
		if sum > tau {
			v.gaps += uint64(i + 1)
			return false
		}
	}
	v.gaps += uint64(len(x))
	return true
}

// admitPoints is admitValues above dimension 1: each row's gap sums the
// dimensions from 0, as BasePoint does, before it joins the sum.
//
//twlint:steady-state
func (v *Verifier) admitPoints(sum float64, x []float64) bool {
	d := v.dim
	tau := v.admitTau
	lo, hi := v.lo[:len(x)], v.hi[:len(x)]
	for i := 0; i < len(x); i += d {
		g := 0.0
		for k := i; k < i+d; k++ {
			g += BaseInterval(x[k], lo[k], hi[k])
		}
		if sum += g; sum > tau {
			v.gaps += uint64(i/d + 1)
			return false
		}
	}
	v.gaps += uint64(len(x) / d)
	return true
}

// Scan verifies the subsequences of points s[start:e] for e = start+1 …
// end: it calls hit(e, D_tw) for each one whose exact distance from the
// query is at most the threshold, in increasing e, with the bits the full
// table would give it. A Dead start is dismissed before any cell is
// computed; otherwise the scan stops at the first row without a live cell.
// The cells it computes are exactly those the live-column recurrence
// reaches (reach, close).
//
//twlint:steady-state
func (v *Verifier) Scan(s []float64, start, end int, hit func(end int, dist float64)) {
	if v.Dead(s, start) {
		return
	}
	if v.dim == 1 {
		v.scanValues(s, start, end, hit)
	} else {
		v.scanPoints(s, start, end, hit)
	}
}

// scanValues is Scan's loop at dimension 1.
//
//twlint:steady-state
func (v *Verifier) scanValues(s []float64, start, end int, hit func(end int, dist float64)) {
	q := v.q
	n := len(q)
	tau := v.tau
	// Every end is within an infinite threshold, at distance +Inf where
	// the band keeps paths off the last column, and no row ends the scan.
	unbounded := math.IsInf(tau, 1)
	prev, curr := v.prev, v.curr
	plo, phi := 0, 0
	for x, e := 0, start; e < end; x, e = x+1, e+1 {
		val := s[e]
		lo, mid, hi := v.reach(x, plo, phi)
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
				// prev[mid-1], hold the Inf the previous row's close wrote.
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
		plo, phi = v.close(curr, lo, y)
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

// scanPoints is Scan's loop above dimension 1: scanValues with BasePoint
// between points for Base between values.
//
//twlint:steady-state
func (v *Verifier) scanPoints(s []float64, start, end int, hit func(end int, dist float64)) {
	q := v.pts
	n := len(q)
	dim := v.dim
	tau := v.tau
	unbounded := math.IsInf(tau, 1)
	prev, curr := v.prev, v.curr
	plo, phi := 0, 0
	for x, e := 0, start; e < end; x, e = x+1, e+1 {
		p := s[e*dim : (e+1)*dim]
		lo, mid, hi := v.reach(x, plo, phi)
		y := lo
		left := Inf
		if x == 0 {
			left = 0
		}
		if y < mid {
			if y == 0 {
				c := BasePoint(p, q[0]) + prev[0]
				curr[0] = c
				left = c
				y = 1
			}
			if y < mid {
				diag := prev[y-1]
				qb, cb, pb := q[:mid], curr[:mid], prev[:mid]
				for ; y < len(qb); y++ {
					up := pb[y]
					c := BasePoint(p, qb[y]) + Min3(up, diag, left)
					cb[y] = c
					left = c
					diag = up
				}
			}
		}
		for ; y < hi && left <= tau; y++ {
			left += BasePoint(p, q[y])
			curr[y] = left
		}
		plo, phi = v.close(curr, lo, y)
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

// backwardPoll is how many rows of a backward pass run between two calls of
// its caller's more function.
const backwardPoll = 256

// margin is the threshold the backward pass tests against for tau when no
// warping path it must keep has more than cells cells: tau raised by the
// rounding of two sums of as many non-negative terms, added in opposite
// orders (THEORY.md §12).
func margin(tau float64, cells int) float64 {
	return tau * (1 + float64(cells)*0x1p-50)
}

// Backward is the backward free-end pass (THEORY.md §12) over the points
// of s. starts are ascending, ends[i] is the furthest end a scan of
// starts[i] would reach, and Backward sets live[i] to false when no
// subsequence that begins at starts[i] can be within the threshold — Scan
// would report nothing there — and to true otherwise.
//
// The rows run bottom up with the query's columns last point first, so
// cell (x, j) holds the cheapest warping path from s[x] and q[j] to the
// query's last point at any end, and the column of q[0] decides start x.
// One pass decides a run of nearby starts, computing only the cells a path
// within the threshold can reach, as Scan does, and charging them to
// Cells. A run begins past its last start where none of its answers
// reaches: under a window past the band, above a row of Inf; without one
// 2|Q| rows on, above a row of 0, which only lowers every cell; at the
// furthest end when that comes sooner. Starts further apart than that take
// runs of their own.
//
// Every start is live, at no cost, under an infinite threshold and against
// a one-point query, whose smallest distance at a start is the base
// distance Dead has already tested. more, when not nil, is called every
// backwardPoll rows; when it returns false the pass stops, and the
// verdicts it has not reached are undefined.
//
//twlint:steady-state
func (v *Verifier) Backward(s []float64, starts, ends []int32, live []bool, more func() bool) {
	if math.IsInf(v.tau, 1) || v.n == 1 {
		for i := range starts {
			live[i] = true
		}
		return
	}
	n, dim := v.n, v.dim
	reach := 2 * n
	if v.window >= 0 {
		reach = n + v.window
	}
	rows := 0
	for hi := len(starts) - 1; hi >= 0; {
		lo := hi
		for lo > 0 && int(starts[lo]-starts[lo-1]) <= reach {
			lo--
		}
		first, last := int(starts[lo]), int(starts[hi])
		furthest := int(slices.Max(ends[lo : hi+1]))
		top := min(furthest, last+reach)
		// A path of an answer within the threshold has at most
		// furthest-first rows, each adding at most n-1 columns in all.
		tau := margin(v.tau, furthest-first+n)
		prev, curr := v.prev, v.curr
		plo, phi := 0, 0
		if v.window < 0 && furthest > top {
			clear(prev)
			phi = n
		}
		k := hi
		for x := top - 1; x >= first; x-- {
			if dim == 1 {
				plo, phi = v.backValues(s[x], prev, curr, plo, phi, tau)
			} else {
				plo, phi = v.backPoints(s[x*dim:(x+1)*dim], prev, curr, plo, phi, tau)
			}
			if x == int(starts[k]) {
				live[k] = phi == n
				k--
			}
			prev, curr = curr, prev
			if rows++; rows%backwardPoll == 0 && more != nil && !more() {
				return
			}
		}
		hi = lo - 1
	}
}

// backValues computes one row of the backward pass at dimension 1 into
// curr, for the value val, from the row below in prev with live columns
// [plo, phi), and returns its own live columns under tau. Column 0, the
// query's last point, is where a path may end, so every row starts a fresh
// chain there that runs rightwards while the cell to its left is live, up
// to the columns the row below reaches; from plo to one past phi the cells
// take the full recurrence, and past them the chain runs on as in Scan.
//
//twlint:steady-state
func (v *Verifier) backValues(val float64, prev, curr []float64, plo, phi int, tau float64) (liveLo, liveHi int) {
	q := v.rq
	n := len(q)
	stop := n
	if plo < phi {
		stop = plo
	}
	y, left := 0, 0.0
	for y < stop && left <= tau {
		left += Base(val, q[y])
		curr[y] = left
		y++
	}
	lo, cells := 0, y
	if plo < phi {
		if y < plo {
			// The chain died short of the reached columns: the gap is dead,
			// and when the fresh cell itself died the row starts at plo.
			if y == 1 {
				lo = plo
			} else {
				fillInf(curr[y:plo])
			}
			y, left = plo, Inf
		}
		from := y
		if y == 0 {
			left = Base(val, q[0])
			curr[0] = left
			y = 1
		}
		if hi := min(phi+1, n); y < hi {
			// prev[plo-1] and prev[phi] hold the Inf the row below's
			// live wrote.
			diag := prev[y-1]
			qb, cb, pb := q[:hi], curr[:hi], prev[:hi]
			for ; y < len(qb); y++ {
				up := pb[y]
				c := Base(val, qb[y]) + Min3(up, diag, left)
				cb[y] = c
				left = c
				diag = up
			}
		}
		for ; y < n && left <= tau; y++ {
			left += Base(val, q[y])
			curr[y] = left
		}
		cells += y - from
	}
	v.cells += uint64(cells)
	return v.live(curr, lo, y, tau)
}

// backPoints is backValues above dimension 1: BasePoint between the point p
// and the query's points for Base between values.
//
//twlint:steady-state
func (v *Verifier) backPoints(p []float64, prev, curr []float64, plo, phi int, tau float64) (liveLo, liveHi int) {
	q := v.rpts
	n := len(q)
	stop := n
	if plo < phi {
		stop = plo
	}
	y, left := 0, 0.0
	for y < stop && left <= tau {
		left += BasePoint(p, q[y])
		curr[y] = left
		y++
	}
	lo, cells := 0, y
	if plo < phi {
		if y < plo {
			if y == 1 {
				lo = plo
			} else {
				fillInf(curr[y:plo])
			}
			y, left = plo, Inf
		}
		from := y
		if y == 0 {
			left = BasePoint(p, q[0])
			curr[0] = left
			y = 1
		}
		if hi := min(phi+1, n); y < hi {
			diag := prev[y-1]
			qb, cb, pb := q[:hi], curr[:hi], prev[:hi]
			for ; y < len(qb); y++ {
				up := pb[y]
				c := BasePoint(p, qb[y]) + Min3(up, diag, left)
				cb[y] = c
				left = c
				diag = up
			}
		}
		for ; y < n && left <= tau; y++ {
			left += BasePoint(p, q[y])
			curr[y] = left
		}
		cells += y - from
	}
	v.cells += uint64(cells)
	return v.live(curr, lo, y, tau)
}

// fillInf sets every cell of row to Inf.
//
//twlint:steady-state
func fillInf(row []float64) {
	for i := range row {
		row[i] = Inf
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
