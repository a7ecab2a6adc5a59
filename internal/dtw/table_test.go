package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// refAddRow is the straightforward rendering of Definition 2 that the
// specialized AddRowValue/AddRowInterval kernels must reproduce bit for bit:
// one switch per cell, explicit window test, fused row minimum.
func refAddRow(q []float64, window int, rows [][]float64, base func(q float64) float64) (dist, minDist float64, out []float64) {
	n := len(q)
	x := len(rows)
	curr := make([]float64, n)
	minDist = Inf
	for y := 0; y < n; y++ {
		if window >= 0 && abs(x-y) > window {
			curr[y] = Inf
			continue
		}
		b := base(q[y])
		switch {
		case x == 0 && y == 0:
			curr[y] = b
		case x == 0:
			curr[y] = b + curr[y-1]
		case y == 0:
			curr[y] = b + rows[x-1][y]
		default:
			curr[y] = b + Min3(curr[y-1], rows[x-1][y], rows[x-1][y-1])
		}
		if curr[y] < minDist {
			minDist = curr[y]
		}
	}
	return curr[n-1], minDist, curr
}

// poisoned returns a table bound to q under window w whose row storage was
// last used by a wider, deeper table and has since been filled with a value
// that would win every min: a kernel that reads a cell it — or BandFill —
// did not write comes out hugely negative.
func poisoned(q []float64, w, rows int) *Table {
	tab := NewTable(make([]float64, len(q)+9))
	for x := 0; x < rows; x++ {
		tab.AddRowValue(float64(x))
	}
	stale := tab.rows[:cap(tab.rows)]
	for i := range stale {
		stale[i] = -1e300
	}
	tab.Bind(q, 1, w)
	return tab
}

// The tightened kernel must agree with the reference recurrence bit for bit
// for every window width, including bands narrower than the query and rows
// wholly past the band — in what it returns, in the raw in-band cells (all a
// banded row is obliged to write), and, through Row, in the whole table with
// the out-of-band cells presented as Inf — on storage full of stale values.
func TestAddRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 7, 20} {
		for _, w := range []int{-1, 0, 1, 2, 5, n, 5 * n} {
			q := make([]float64, n)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			depth := 2*n + 2*max(w, 1) + 3
			tab := poisoned(q, w, depth)
			var refRows [][]float64
			for x := 0; x < depth; x++ {
				var d, m float64
				var base func(float64) float64
				if x%2 == 0 {
					v := rng.NormFloat64()
					d, m = tab.AddRowValue(v)
					base = func(qv float64) float64 { return Base(v, qv) }
				} else {
					lo := rng.NormFloat64()
					hi := lo + rng.Float64()
					d, m = tab.AddRowInterval(lo, hi)
					base = func(qv float64) float64 { return BaseInterval(qv, lo, hi) }
				}
				rd, rm, row := refAddRow(q, w, refRows, base)
				refRows = append(refRows, row)
				if math.Float64bits(d) != math.Float64bits(rd) || math.Float64bits(m) != math.Float64bits(rm) {
					t.Fatalf("n=%d w=%d row %d: kernel (%v, %v) != reference (%v, %v)", n, w, x, d, m, rd, rm)
				}
				if got := tab.rows[x*n+n-1]; math.Float64bits(got) != math.Float64bits(rd) {
					t.Fatalf("n=%d w=%d row %d: last column %v != reference %v", n, w, x, got, rd)
				}
				for y := 0; y < n; y++ { // raw: Row would overwrite what the next row must not read
					if raw := tab.rows[x*n+y]; (w < 0 || abs(x-y) <= w) && math.Float64bits(raw) != math.Float64bits(row[y]) {
						t.Fatalf("n=%d w=%d in-band cell (%d,%d): kernel %v != reference %v", n, w, x, y, raw, row[y])
					}
				}
			}
			for x, row := range refRows {
				for y, want := range row {
					if got := tab.Row(x)[y]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d w=%d Row(%d)[%d]: %v != reference %v", n, w, x, y, got, want)
					}
				}
			}
		}
	}
}
