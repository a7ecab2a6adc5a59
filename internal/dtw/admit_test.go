package dtw

import (
	"math"
	"testing"
)

// admitBound is Admit's bound written out from its definition (THEORY.md
// §13), at dimension dim under window w: +Inf when fewer than n - w points
// of s begin at start, else base(s[start], q[0]) plus, for every row i from
// 1 to n - w - 1, the gap between s's point there and the hull of the query
// points q[i-w .. i+w] — summed whole, with the hull recomputed per row.
func admitBound(q, s []float64, dim, w, start int) float64 {
	n, pts := len(q)/dim, len(s)/dim
	if start+n-w > pts {
		return Inf
	}
	sum := BasePoint(s[start*dim:(start+1)*dim], q[:dim])
	for i := 1; i < n-w; i++ {
		g := 0.0
		for k := 0; k < dim; k++ {
			lo, hi := Inf, -Inf
			for j := max(0, i-w); j <= min(n-1, i+w); j++ {
				lo, hi = min(lo, q[j*dim+k]), max(hi, q[j*dim+k])
			}
			g += BaseInterval(s[(start+i)*dim+k], lo, hi)
		}
		sum += g
	}
	return sum
}

// FuzzAdmissionBound holds the windowed admission bound to the scan it
// screens for, at dimension 1 and 2, under windows 1 to 4, on values in
// steps of 0.1. Soundness: at a zero threshold, a middling one, an
// infinite one and the exact smallest distance of each start — the ties —
// every start at which Scan reports a hit passes Admit. Exactness: Admit
// dismisses a start exactly when its bound, written out whole, exceeds the
// threshold raised by the margin (or its first point alone exceeds the
// threshold), so early abandon never changes a verdict; and it counts no
// more gap terms than the bound has rows.
func FuzzAdmissionBound(f *testing.F) {
	f.Add([]byte{128, 128, 128}, []byte{129, 128, 130, 127, 128, 128, 140, 128}, uint8(0))
	// 0.3+0.2+0.1, which rounds, at a window that leaves two rows.
	f.Add([]byte{128, 128, 128, 128}, []byte{128 + 3, 128 + 2, 128 + 1, 128}, uint8(1<<1))
	f.Add([]byte{100, 160, 128, 90, 93, 140}, []byte{100, 160, 128, 90, 39, 101, 161, 7, 100, 160, 128, 90, 93, 140}, uint8(2<<1|1))
	f.Add([]byte{120, 124, 132, 128, 140, 100, 110, 128}, []byte{121, 123, 131, 129, 128, 116, 124, 140, 100, 120, 124, 132}, uint8(3<<1))
	f.Add([]byte{1, 255, 3, 7, 9, 9, 200, 4}, []byte{200, 201, 202, 23, 1, 2, 1, 255, 3, 7, 9, 9, 200, 4}, uint8(3<<1|1))
	f.Fuzz(func(t *testing.T, qRaw, sRaw []byte, shape uint8) {
		dim := 1 + int(shape&1)
		w := 1 + int(shape>>1)%4
		q := tenths(qRaw, 8*dim)
		s := tenths(sRaw, 48*dim)
		if len(q) < dim || len(s) < dim {
			return
		}
		q, s = q[:len(q)/dim*dim], s[:len(s)/dim*dim]
		n, pts := len(q)/dim, len(s)/dim

		taus := []float64{0, 3, Inf}
		for p := 0; p < pts && len(taus) < 10; p++ {
			if d, ok := minScan(q, s, dim, w, p, pts); ok {
				taus = append(taus, d)
			}
		}
		var v Verifier
		for _, tau := range taus {
			v.Bind(q, dim, w, tau)
			for p := 0; p < pts; p++ {
				hit := false
				v.Scan(s, p, pts, func(int, float64) { hit = true })
				gaps := v.Gaps()
				admitted := v.Admit(s, p)
				if hit && !admitted {
					t.Fatalf("dim %d w=%d tau=%v: start %d has an answer, dismissed (bound %v)", dim, w, tau, p, admitBound(q, s, dim, w, p))
				}
				if math.IsInf(tau, 1) || n-w <= 1 {
					continue
				}
				bound := admitBound(q, s, dim, w, p)
				first := BasePoint(s[p*dim:(p+1)*dim], q[:dim])
				want := !(math.IsInf(bound, 1) || first > tau || bound > margin(tau, 3*n))
				if admitted != want {
					t.Fatalf("dim %d w=%d tau=%v: start %d admitted %v, bound %v (first point %v) says %v", dim, w, tau, p, admitted, bound, first, want)
				}
				if used := v.Gaps() - gaps; used > uint64(n-w-1) {
					t.Fatalf("dim %d w=%d: start %d counted %d gap terms, the bound has %d", dim, w, p, used, n-w-1)
				}
			}
		}
	})
}

// TestAdmitWithoutBound: without a window, under an infinite threshold and
// when the window lets one point be an answer, Admit is Dead's negation and
// sums no gap term.
func TestAdmitWithoutBound(t *testing.T) {
	q := []float64{1, 2, 3, 4}
	s := []float64{1, 9, 9, 9, 2, 3, 9, 1.5}
	for _, c := range []struct {
		w   int
		tau float64
	}{{-1, 1}, {1, Inf}, {3, 1}, {7, 0.5}} {
		var v Verifier
		v.Bind(q, 1, c.w, c.tau)
		for p := range s {
			if v.Admit(s, p) == v.Dead(s, p) {
				t.Errorf("w=%d tau=%v: start %d admitted %v, dead %v", c.w, c.tau, p, v.Admit(s, p), v.Dead(s, p))
			}
		}
		if v.Gaps() != 0 {
			t.Errorf("w=%d tau=%v: %d gap terms summed, want none", c.w, c.tau, v.Gaps())
		}
	}
}
