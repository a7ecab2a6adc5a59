package multivar

import (
	"math"
	"math/rand"
	"testing"

	"twsearch/internal/dtw"
)

// fullMatrix is the plain rendering of the banded recurrence: the whole
// cumulative table of the rows' base distances base[x][y], every cell
// outside the band Inf.
func fullMatrix(base [][]float64, w int) [][]float64 {
	tab := make([][]float64, len(base))
	for x, b := range base {
		tab[x] = make([]float64, len(b))
		for y := range b {
			if w >= 0 && (x-y > w || y-x > w) {
				tab[x][y] = dtw.Inf
				continue
			}
			best := dtw.Inf // the cheapest of the cells a path can arrive from
			if x == 0 && y == 0 {
				best = 0
			}
			if y > 0 {
				best = min(best, tab[x][y-1])
			}
			if x > 0 {
				best = min(best, tab[x-1][y])
			}
			if x > 0 && y > 0 {
				best = min(best, tab[x-1][y-1])
			}
			tab[x][y] = b[y] + best
		}
	}
	return tab
}

// The point and box kernels agree with the full-matrix DP bit for bit, for
// every window width incl. rows wholly past the band: in the distance and
// row minimum they return and through Row in the whole table (in-band cells
// raw, as the kernels wrote them) — on row storage a wider table left full
// of stale values, which a read of an unwritten cell would drag hugely
// negative.
func TestAddRowPointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	const dim = 2
	point := func() []float64 { return []float64{rng.NormFloat64(), rng.NormFloat64()} }
	for _, n := range []int{1, 2, 3, 7, 20} {
		for _, w := range []int{-1, 0, 1, 2, 5, n} {
			q := make([][]float64, n)
			for i := range q {
				q[i] = point()
			}
			depth := 2*n + 2*max(w, 1) + 3
			wide := make([][]float64, n+9)
			for i := range wide {
				wide[i] = point()
			}
			tab := NewTable(wide)
			for x := 0; x < depth; x++ {
				tab.AddRowPoint(point())
			}
			for x := 0; x < depth; x++ { // Row aliases the storage
				stale := tab.Row(x)
				for i := range stale {
					stale[i] = -1e300
				}
			}
			tab.Bind(q, w)

			base := make([][]float64, depth)
			dists, mins := make([]float64, depth), make([]float64, depth)
			for x := range base {
				base[x] = make([]float64, n)
				if x%2 == 0 {
					p := point()
					dists[x], mins[x] = tab.AddRowPoint(p)
					for y := range q {
						base[x][y] = Base(p, q[y])
					}
				} else {
					lo := point()
					b := Box{Lo: lo, Hi: []float64{lo[0] + rng.Float64(), lo[1] + rng.Float64()}}
					dists[x], mins[x] = tab.AddRowBox(b)
					for y := range q {
						base[x][y] = BaseBox(q[y], b)
					}
				}
			}
			want := fullMatrix(base, w)
			for x, row := range want {
				if math.Float64bits(dists[x]) != math.Float64bits(row[n-1]) || math.Float64bits(mins[x]) != math.Float64bits(rowMin(row)) {
					t.Fatalf("n=%d w=%d row %d: kernel (%v, %v) != reference (%v, %v)", n, w, x, dists[x], mins[x], row[n-1], rowMin(row))
				}
				for y, got := range tab.Row(x) {
					if math.Float64bits(got) != math.Float64bits(row[y]) {
						t.Fatalf("n=%d w=%d Row(%d)[%d]: %v != reference %v", n, w, x, y, got, row[y])
					}
				}
			}
		}
	}
}

func rowMin(row []float64) float64 {
	m := dtw.Inf
	for _, v := range row {
		m = min(m, v)
	}
	return m
}

// A table with a threshold agrees with a plain one on everything a search
// asks, under AddRowPoint / Truncate interleavings on storage full of stale
// values, for windows -1 … n and thresholds from "exact hits only" to none:
// after every row, whether the distance and the row minimum are within tau
// and, if so, their bits; before rows are dropped and at the end, every cell
// — one the plain table holds at or below tau has the same bits, every other
// reads above tau. Without a threshold that is every bit and the cell count.
// (dtw's FuzzThresholdRows is the scalar twin.)
func TestThresholdRowsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	step := func(p []float64) []float64 {
		return []float64{p[0] + float64(rng.Intn(5)-2)/2, p[1] + float64(rng.Intn(3)-1)/2}
	}
	for _, n := range []int{1, 2, 5, 12} {
		q := make([][]float64, n)
		p := []float64{0, 0}
		for i := range q {
			p = step(p)
			q[i] = p
		}
		for w := -1; w <= n; w++ {
			for _, tau := range []float64{0, 0.5, 3, 12, dtw.Inf} {
				plain := NewTableWindow(q, w)
				wide := make([][]float64, n+9)
				for i := range wide {
					wide[i] = []float64{0, 0}
				}
				thr := NewTable(wide)
				for x := 0; x < 6*n+10; x++ {
					thr.AddRowPoint(wide[0])
				}
				for x := 0; x < thr.Depth(); x++ { // Row aliases the storage
					stale := thr.Row(x)
					for i := range stale {
						stale[i] = -1e300
					}
				}
				thr.Bind(q, w)
				thr.SetThreshold(tau)

				same := func(what string, x int, want, got float64) {
					t.Helper()
					if want <= tau {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n=%d w=%d tau=%v row %d %s: thresholded %v, plain %v <= tau", n, w, tau, x, what, got, want)
						}
					} else if !(got > tau) {
						t.Fatalf("n=%d w=%d tau=%v row %d %s: thresholded %v reads within tau, plain %v does not", n, w, tau, x, what, got, want)
					}
				}
				checkCells := func() {
					t.Helper()
					for x := 0; x < plain.Depth(); x++ {
						want := append([]float64(nil), plain.Row(x)...)
						for y, got := range thr.Row(x) {
							same("cell", x, want[y], got)
						}
					}
				}
				p := q[0]
				for i := 0; i < 6*n+10; i++ {
					if rng.Intn(9) == 0 {
						checkCells()
						d := rng.Intn(plain.Depth() + 1)
						plain.Truncate(d)
						thr.Truncate(d)
						p = q[0]
						continue
					}
					p = step(p)
					x := plain.Depth()
					pd, pm := plain.AddRowPoint(p)
					gd, gm := thr.AddRowPoint(p)
					same("distance", x, pd, gd)
					same("row minimum", x, pm, gm)
				}
				checkCells()
				if thr.Cells() > plain.Cells() || (math.IsInf(tau, 1) && thr.Cells() != plain.Cells()) {
					t.Fatalf("n=%d w=%d tau=%v: thresholded table computed %d cells, plain %d", n, w, tau, thr.Cells(), plain.Cells())
				}
			}
		}
	}
}
