package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// refAddRow is the straightforward rendering of Definition 2 that the
// specialized row kernels must reproduce bit for bit: one switch per cell,
// explicit window test, fused row minimum. base(y) is the row's base
// distance to query element y of n.
func refAddRow(n, window int, rows [][]float64, base func(y int) float64) (dist, minDist float64, out []float64) {
	x := len(rows)
	curr := make([]float64, n)
	minDist = Inf
	for y := 0; y < n; y++ {
		if window >= 0 && abs(x-y) > window {
			curr[y] = Inf
			continue
		}
		b := base(y)
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

// poisoned returns a table bound to q, of points of dimension dim, under
// window w whose row storage was last used by a wider, deeper table and has
// since been filled with a value that would win every min: a kernel that
// reads a cell it — or BandFill — did not write comes out hugely negative.
func poisoned(q []float64, dim, w, rows int) *Table {
	tab := &Table{}
	tab.Bind(make([]float64, len(q)+9*dim), dim, -1)
	for x := 0; x < rows; x++ {
		tab.AddRowPoint(make([]float64, dim))
	}
	stale := tab.rows[:cap(tab.rows)]
	for i := range stale {
		stale[i] = -1e300
	}
	tab.Bind(q, dim, w)
	return tab
}

// The tightened kernels must agree with the reference recurrence bit for
// bit for every window width, including bands narrower than the query and
// rows wholly past the band — in what they return, in the raw in-band cells
// (all a banded row is obliged to write), and, through Row, in the whole
// table with the out-of-band cells presented as Inf — on storage full of
// stale values: the value and interval rows at dimension 1, the point rows
// and the box rows the filter pass adds (AddRowBase over BaseBox distances)
// at dimension 2.
func TestAddRowMatchesReference(t *testing.T) {
	for _, c := range []struct {
		dim  int
		seed int64
	}{{1, 7}, {2, 443}} {
		dim, rng := c.dim, rand.New(rand.NewSource(c.seed))
		point := func() []float64 {
			p := make([]float64, dim)
			for k := range p {
				p[k] = rng.NormFloat64()
			}
			return p
		}
		for _, n := range []int{1, 2, 3, 7, 20} {
			for _, w := range []int{-1, 0, 1, 2, 5, n, 5 * n} {
				var q []float64
				for i := 0; i < n; i++ {
					q = append(q, point()...)
				}
				qp := points(nil, q, dim)
				depth := 2*n + 2*max(w, 1) + 3
				tab := poisoned(q, dim, w, depth)
				var refRows [][]float64
				for x := 0; x < depth; x++ {
					var d, m float64
					var base func(int) float64
					if x%2 == 0 {
						p := point()
						d, m = tab.AddRowPoint(p)
						base = func(y int) float64 { return BasePoint(p, qp[y]) }
					} else {
						box := Box{Lo: point(), Hi: make([]float64, dim)}
						for k := range box.Hi {
							box.Hi[k] = box.Lo[k] + rng.Float64()
						}
						base = func(y int) float64 { return BaseBox(qp[y], box) }
						if dim == 1 {
							d, m = tab.AddRowInterval(box.Lo[0], box.Hi[0])
						} else {
							row := make([]float64, n)
							for y := range row {
								row[y] = base(y)
							}
							d, m = tab.AddRowBase(row)
						}
					}
					rd, rm, row := refAddRow(n, w, refRows, base)
					refRows = append(refRows, row)
					if math.Float64bits(d) != math.Float64bits(rd) || math.Float64bits(m) != math.Float64bits(rm) {
						t.Fatalf("d=%d n=%d w=%d row %d: kernel (%v, %v) != reference (%v, %v)", dim, n, w, x, d, m, rd, rm)
					}
					if got := tab.rows[x*n+n-1]; math.Float64bits(got) != math.Float64bits(rd) {
						t.Fatalf("d=%d n=%d w=%d row %d: last column %v != reference %v", dim, n, w, x, got, rd)
					}
					for y := 0; y < n; y++ { // raw: Row would overwrite what the next row must not read
						if raw := tab.rows[x*n+y]; (w < 0 || abs(x-y) <= w) && math.Float64bits(raw) != math.Float64bits(row[y]) {
							t.Fatalf("d=%d n=%d w=%d in-band cell (%d,%d): kernel %v != reference %v", dim, n, w, x, y, raw, row[y])
						}
					}
				}
				for x, row := range refRows {
					for y, want := range row {
						if got := tab.Row(x)[y]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("d=%d n=%d w=%d Row(%d)[%d]: %v != reference %v", dim, n, w, x, y, got, want)
						}
					}
				}
			}
		}
	}
}
