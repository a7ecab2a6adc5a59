package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// scanSpec is what a verification scan of the rows s[start:end] must do,
// derived from the plain table's rows over them (Row: every in-band cell,
// Inf outside the band) and the first element's base distance:
//
//   - the ends it reports are the rows whose last column is at most tau,
//     with those bits — Theorem 1 puts none after the first row whose
//     minimum exceeds tau;
//   - the cells it charges are the ones the live-column recurrence reaches
//     (THEORY.md §1b): in row x the band from the first live column of row
//     x-1 to one past its last, then rightwards while the cell to the left is
//     live — all of row 0 is that chain — stopping after the first row with
//     no live cell, and none at all when the first element is out of reach.
//
// A cell is live when the plain table holds it at most tau: the thresholded
// recurrence gives those cells the same bits and every other one a value
// above tau, so liveness can be read off the plain rows.
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
		lo, hi := band(n, w, x)
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

// poisonedVerifier returns a verifier bound to q, of points of dimension
// dim, w and tau whose rolling rows were last used by a wider query and have
// since been filled with a value that would win every min: a scan that reads
// a cell it — or Close — did not write comes out hugely negative.
func poisonedVerifier(q []float64, dim, w int, tau float64) *Verifier {
	v := &Verifier{}
	v.Bind(make([]float64, len(q)+9*dim), dim, -1, Inf)
	prev, curr := v.Rows()
	for _, row := range [][]float64{prev[:cap(prev)], curr[:cap(curr)]} {
		for i := range row {
			row[i] = -1e300
		}
	}
	v.Bind(q, dim, w, tau)
	return v
}

// checkVerifier scans every start of s, to the end of s and to one end
// short of it, on a poisoned verifier, and holds each scan to scanSpec over
// the plain table's rows: the same ends with the same distance bits, and
// exactly the cells the live-column recurrence reaches. Without a threshold
// (tau = Inf) that is every in-band cell, as the plain table charges. q and
// s are point-major, of dimension dim.
func checkVerifier(t *testing.T, q, s []float64, dim, w int, tau float64) {
	t.Helper()
	v := poisonedVerifier(q, dim, w, tau)
	var gotEnds []int
	var gotDists []float64
	hit := func(end int, dist float64) {
		gotEnds = append(gotEnds, end)
		gotDists = append(gotDists, dist)
	}
	sp := points(nil, s, dim)
	for start := range sp {
		for _, end := range []int{len(sp), start + 1 + (len(sp)-start)/2} {
			var plain Table
			plain.Bind(q, dim, w)
			rows := make([][]float64, 0, end-start)
			for _, p := range sp[start:end] {
				plain.AddRowPoint(p)
				rows = append(rows, append([]float64(nil), plain.Row(plain.Depth()-1)...))
			}
			wantEnds, wantDists, wantCells := scanSpec(rows, w, tau, BasePoint(sp[start], q[:dim]))

			gotEnds, gotDists = gotEnds[:0], gotDists[:0]
			before := v.Cells()
			v.Scan(s, start, end, hit)
			cells := v.Cells() - before
			if len(gotEnds) != len(wantEnds) {
				t.Fatalf("d=%d w=%d tau=%v [%d,%d): ends %v, plain table %v", dim, w, tau, start, end, gotEnds, wantEnds)
			}
			for i := range wantEnds {
				if gotEnds[i] != start+wantEnds[i] || math.Float64bits(gotDists[i]) != math.Float64bits(wantDists[i]) {
					t.Fatalf("d=%d w=%d tau=%v [%d,%d): hit %d is (%d, %v), plain table (%d, %v)", dim, w, tau, start, end, i, gotEnds[i], gotDists[i], start+wantEnds[i], wantDists[i])
				}
			}
			if cells != wantCells {
				t.Fatalf("d=%d w=%d tau=%v [%d,%d): %d cells, the live-column recurrence reaches %d", dim, w, tau, start, end, cells, wantCells)
			}
			if math.IsInf(tau, 1) && cells != plain.Cells() {
				t.Fatalf("d=%d w=%d [%d,%d): %d cells without a threshold, plain table %d", dim, w, start, end, cells, plain.Cells())
			}
		}
	}
}

// thresholdTau picks the threshold classes that matter: nothing but exact
// hits is live, one grid step, a middling budget, a tie — exactly the
// distance of one of the subsequences, which must be reported — and none at
// all.
func thresholdTau(sel uint8, q, s []float64, dim, w int) float64 {
	switch sel % 5 {
	case 0:
		return 0
	case 1:
		return 0.25
	case 2:
		return float64(sel / 5)
	case 3:
		return tableDistance(q, s[:(1+int(sel/5)%(len(s)/dim))*dim], dim, w)
	}
	return Inf
}

// FuzzThresholdRows checks the verifier against the plain table on every
// start of a fuzzed sequence, for windows -1 … n and thresholds 0, tiny,
// middling, tied and +Inf. shape bit 0 reads the bytes as points of
// dimension 2.
func FuzzThresholdRows(f *testing.F) {
	f.Add([]byte{128, 130, 126, 128}, []byte{128, 129, 131, 127, 128, 140, 128}, int8(-1), uint8(2+5*3), uint8(0))
	f.Add([]byte{128, 128, 128}, []byte{128, 128, 15, 128, 132, 128, 7, 128}, int8(1), uint8(0), uint8(0))
	f.Add([]byte{100, 160, 128, 90}, []byte{100, 160, 128, 90, 39, 101, 161}, int8(0), uint8(1), uint8(0))
	f.Add([]byte{1, 255, 3}, []byte{200, 201, 202, 23, 1, 2}, int8(3), uint8(4), uint8(0))
	f.Add([]byte{120, 124, 132, 128}, []byte{121, 123, 131, 129, 128, 116, 124, 140}, int8(-1), uint8(3+5*6), uint8(0))
	f.Add([]byte{128, 128, 130, 126, 126, 128}, []byte{128, 128, 129, 131, 127, 128, 140, 128}, int8(-1), uint8(2+5*3), uint8(1))
	f.Add([]byte{128, 128, 128, 128}, []byte{128, 128, 15, 128, 132, 128, 7, 128}, int8(1), uint8(0), uint8(1))
	f.Add([]byte{100, 160, 128, 90}, []byte{100, 160, 128, 90, 39, 101, 161, 100}, int8(0), uint8(3+5*2), uint8(1))
	f.Add([]byte{1, 255, 3, 4}, []byte{200, 201, 202, 23, 1, 2}, int8(3), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, qRaw, sRaw []byte, wRaw int8, tauSel, shape uint8) {
		dim := 1 + int(shape&1)
		q, s := bytesToSeq(qRaw, 12*dim), bytesToSeq(sRaw, 24*dim)
		if len(q) < dim || len(s) < dim {
			return
		}
		q, s = q[:len(q)/dim*dim], s[:len(s)/dim*dim]
		n := len(q) / dim
		w := (int(wRaw)%(n+2)+n+2)%(n+2) - 1
		checkVerifier(t, q, s, dim, w, thresholdTau(tauSel, q, s, dim, w))
	})
}

// The same property on long random walks near the query, where rows stay
// alive for many steps and the live columns drift right — the shape of a
// verification scan — over every window and threshold class, for values
// and for points of dimension 2 (the second coordinate in half-steps of
// -1, 0 or 1).
func TestThresholdRowsMatchPlain(t *testing.T) {
	for _, c := range []struct {
		dim  int
		seed int64
	}{{1, 29}, {2, 31}} {
		dim, rng := c.dim, rand.New(rand.NewSource(c.seed))
		walk := func(p []float64, n int) []float64 { // n steps from p
			var out []float64
			for i := 0; i < n; i++ {
				p = append([]float64(nil), p...)
				for k := range p {
					if k == 0 {
						p[k] += float64(rng.Intn(5)-2) / 2
					} else {
						p[k] += float64(rng.Intn(3)-1) / 2
					}
				}
				out = append(out, p...)
			}
			return out
		}
		for _, n := range []int{1, 2, 5, 12} {
			q := walk(make([]float64, dim), n)
			s := walk(q[:dim], 4*n+10)
			for w := -1; w <= n; w++ {
				var taus []float64
				if dim == 1 {
					for sel := uint8(0); sel < 10; sel++ {
						taus = append(taus, thresholdTau(sel, q, s, dim, w))
					}
				} else {
					taus = []float64{0, 0.5, 3, 12, tableDistance(q, s[:dim], dim, -1), Inf}
				}
				for _, tau := range taus {
					checkVerifier(t, q, s, dim, w, tau)
				}
			}
		}
	}
}
