package multivar_test

import (
	"math"
	"math/rand"
	"testing"
	. "twsearch/internal/multivar"

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

// The point kernel and the box rows the filter pass adds (AddRowBase over
// BaseBox distances) agree with the full-matrix DP bit for bit, for every
// window width incl. rows wholly past the band: in the distance and row
// minimum they return and through Row in the whole table — on row storage a
// wider table left full of stale values, which a read of an unwritten cell
// would drag hugely negative.
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
			tab := newTable(wide, -1)
			for x := 0; x < depth; x++ {
				tab.AddRowPoint(point())
			}
			for x := 0; x < depth; x++ { // Row aliases the storage
				stale := tab.Row(x)
				for i := range stale {
					stale[i] = -1e300
				}
			}
			tab.Bind(Flatten(q), dim, w)

			base := make([][]float64, depth)
			dists, mins := make([]float64, depth), make([]float64, depth)
			for x := range base {
				base[x] = make([]float64, n)
				if x%2 == 0 {
					p := point()
					dists[x], mins[x] = tab.AddRowPoint(p)
					for y := range q {
						base[x][y] = dtw.BasePoint(p, q[y])
					}
				} else {
					lo := point()
					b := dtw.Box{Lo: lo, Hi: []float64{lo[0] + rng.Float64(), lo[1] + rng.Float64()}}
					for y := range q {
						base[x][y] = dtw.BaseBox(q[y], b)
					}
					dists[x], mins[x] = tab.AddRowBase(base[x])
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

// scanSpec is dtw's test oracle for a verification scan, over the plain
// vector table's rows: the ends whose last column is at most tau with those
// bits, and the cells the live-column recurrence reaches — none when the
// first element is out of reach.
func scanSpec(rows [][]float64, w int, tau, first float64) (hits []int, dists []float64, cells uint64) {
	for x, row := range rows {
		if row[len(row)-1] <= tau {
			hits = append(hits, x+1)
			dists = append(dists, row[len(row)-1])
		}
	}
	if first > tau {
		return nil, nil, 0
	}
	n := len(rows[0])
	plo, phi := 0, 0
	for x, row := range rows {
		lo, hi := 0, n
		if w >= 0 {
			lo, hi = min(max(x-w, 0), n), min(x+w+1, n)
		}
		mid := lo
		if x > 0 {
			lo = max(lo, plo)
			mid = max(lo, min(phi+1, hi))
		}
		y := mid
		for y < hi && ((x == 0 && y == 0) || (y > lo && row[y-1] <= tau)) {
			y++
		}
		cells += uint64(y - lo)
		plo, phi = -1, -1
		for c := lo; c < y; c++ {
			if row[c] <= tau {
				if plo < 0 {
					plo = c
				}
				phi = c + 1
			}
		}
		if plo < 0 {
			break
		}
	}
	return hits, dists, cells
}

// checkVerifier is dtw's: every start of s, to the end and to one end short
// of it, scanned by a verifier whose rows hold stale values no scan may
// read, must report the plain table's ends within tau with the same bits and
// charge exactly the cells the live-column recurrence reaches.
func checkVerifier(t *testing.T, q, s [][]float64, w int, tau float64) {
	t.Helper()
	var v dtw.Verifier
	wide := make([][]float64, len(q)+9)
	for i := range wide {
		wide[i] = []float64{0, 0}
	}
	v.Bind(Flatten(wide), 2, -1, dtw.Inf)
	prev, curr := v.Rows()
	for _, row := range [][]float64{prev[:cap(prev)], curr[:cap(curr)]} {
		for i := range row {
			row[i] = -1e300
		}
	}
	v.Bind(Flatten(q), 2, w, tau)
	var gotEnds []int
	var gotDists []float64
	hit := func(end int, dist float64) {
		gotEnds = append(gotEnds, end)
		gotDists = append(gotDists, dist)
	}
	for start := range s {
		for _, end := range []int{len(s), start + 1 + (len(s)-start)/2} {
			plain := newTable(q, w)
			rows := make([][]float64, 0, end-start)
			for _, p := range s[start:end] {
				plain.AddRowPoint(p)
				rows = append(rows, append([]float64(nil), plain.Row(plain.Depth()-1)...))
			}
			wantEnds, wantDists, wantCells := scanSpec(rows, w, tau, dtw.BasePoint(s[start], q[0]))
			gotEnds, gotDists = gotEnds[:0], gotDists[:0]
			before := v.Cells()
			v.Scan(Flatten(s), start, end, hit)
			cells := v.Cells() - before
			if len(gotEnds) != len(wantEnds) {
				t.Fatalf("w=%d tau=%v [%d,%d): ends %v, plain table %v", w, tau, start, end, gotEnds, wantEnds)
			}
			for i := range wantEnds {
				if gotEnds[i] != start+wantEnds[i] || math.Float64bits(gotDists[i]) != math.Float64bits(wantDists[i]) {
					t.Fatalf("w=%d tau=%v [%d,%d): hit %d is (%d, %v), plain table (%d, %v)", w, tau, start, end, i, gotEnds[i], gotDists[i], start+wantEnds[i], wantDists[i])
				}
			}
			if cells != wantCells {
				t.Fatalf("w=%d tau=%v [%d,%d): %d cells, the live-column recurrence reaches %d", w, tau, start, end, cells, wantCells)
			}
		}
	}
}

// The vector verifier against the plain vector table on random walks near
// the query, for windows -1 … n and thresholds from "exact hits only" to
// none, a tie at one subsequence's exact distance among them. (dtw's
// TestThresholdRowsMatchPlain is the scalar twin.)
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
		s := make([][]float64, 4*n+10)
		p = q[0]
		for i := range s {
			p = step(p)
			s[i] = p
		}
		tie, _ := newTable(q, -1).AddRowPoint(s[0])
		for w := -1; w <= n; w++ {
			for _, tau := range []float64{0, 0.5, 3, 12, tie, dtw.Inf} {
				checkVerifier(t, q, s, w, tau)
			}
		}
	}
}

// FuzzThresholdRows is dtw's FuzzThresholdRows for the vector verifier:
// query and sequence points cut from fuzz bytes (coordinates in quarter
// steps, so distances are exact), windows -1 … n, and thresholds 0, one
// step, middling, tied at the distance of a prefix of the sequence, and
// none.
func FuzzThresholdRows(f *testing.F) {
	f.Add([]byte{128, 128, 130, 126, 126, 128}, []byte{128, 128, 129, 131, 127, 128, 140, 128}, int8(-1), uint8(2+5*3))
	f.Add([]byte{128, 128, 128, 128}, []byte{128, 128, 15, 128, 132, 128, 7, 128}, int8(1), uint8(0))
	f.Add([]byte{100, 160, 128, 90}, []byte{100, 160, 128, 90, 39, 101, 161, 100}, int8(0), uint8(3+5*2))
	f.Add([]byte{1, 255, 3, 4}, []byte{200, 201, 202, 23, 1, 2}, int8(3), uint8(4))
	f.Fuzz(func(t *testing.T, qRaw, sRaw []byte, wRaw int8, tauSel uint8) {
		points := func(b []byte, max int) [][]float64 {
			b = b[:min(len(b), 2*max)]
			out := make([][]float64, len(b)/2)
			for j := range out {
				out[j] = []float64{float64(int(b[2*j])-128) / 4, float64(int(b[2*j+1])-128) / 4}
			}
			return out
		}
		q, s := points(qRaw, 8), points(sRaw, 16)
		if len(q) == 0 || len(s) == 0 {
			return
		}
		w := (int(wRaw)%(len(q)+2)+len(q)+2)%(len(q)+2) - 1
		tau := dtw.Inf
		switch tauSel % 5 {
		case 0:
			tau = 0
		case 1:
			tau = 0.25
		case 2:
			tau = float64(tauSel / 5)
		case 3:
			tab := newTable(q, w)
			for _, p := range s[:1+int(tauSel/5)%len(s)] {
				tau, _ = tab.AddRowPoint(p)
			}
		}
		checkVerifier(t, q, s, w, tau)
	})
}
