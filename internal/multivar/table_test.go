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
