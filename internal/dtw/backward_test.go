package dtw

import (
	"math"
	"testing"
)

// minScan returns the smallest distance Scan reports for the subsequences
// of s that begin at point start and end at most at end, without a
// threshold, and whether the band lets any of them reach the query's end.
func minScan(q, s []float64, dim, w, start, end int) (float64, bool) {
	var v Verifier
	v.Bind(q, dim, w, Inf)
	best := Inf
	v.Scan(s, start, end, func(_ int, d float64) { best = min(best, d) })
	return best, !math.IsInf(best, 1)
}

// tenths is bytesToSeq in steps of 0.1, which no binary fraction holds:
// sums of them round, and differently in different orders.
func tenths(data []byte, max int) []float64 {
	out := bytesToSeq(data, max)
	for i := range out {
		out[i] = out[i] * 4 / 10
	}
	return out
}

// backward binds a fresh verifier at tau and returns the verdicts of one
// Backward call.
func backward(q, s []float64, dim, w int, tau float64, starts, ends []int32) []bool {
	var v Verifier
	v.Bind(q, dim, w, tau)
	live := make([]bool, len(starts))
	v.Backward(s, starts, ends, live, nil)
	return live
}

// FuzzBackwardBound holds the backward pass to the scan it screens for, at
// dimension 1 and 2, with and without a window, on values in steps of 0.1.
// Soundness: on a fuzzed set of starts with fuzzed ends, every start the
// scan finds an answer at is live, at a zero threshold, at a middling one
// and at the exact smallest distance of each start — the ties, where the
// two passes add the same base distances in opposite orders and the
// rounding margin must cover the difference. Exactness, without a window
// and against a query of more than one point: over every start to the end
// of the sequence the pass's distance lies within the margin of the
// smallest the scan reports, so a threshold that far below it dismisses
// the start.
func FuzzBackwardBound(f *testing.F) {
	f.Add([]byte{128, 128, 128}, []byte{129, 128, 130, 127, 128, 128, 140, 128}, uint8(0), uint64(0xff))
	// 0.3+0.2+0.1 is 0.6 forwards and 0.6000000000000001 backwards.
	f.Add([]byte{128, 128, 128}, []byte{128 + 3, 128 + 2, 128 + 1}, uint8(0), uint64(1))
	f.Add([]byte{100, 160, 128, 90}, []byte{100, 160, 128, 90, 39, 101, 161, 7, 100, 160, 128, 90}, uint8(2+4*2), uint64(0x0f0f))
	f.Add([]byte{120, 124, 132, 128, 140, 100}, []byte{121, 123, 131, 129, 128, 116, 124, 140, 100, 120, 124, 132}, uint8(1), uint64(0x5555))
	f.Add([]byte{1, 255, 3, 7}, []byte{200, 201, 202, 23, 1, 2, 1, 255, 3, 7, 9, 9}, uint8(3+4*1), uint64(0xffff))
	f.Add([]byte{128, 130}, make([]byte, 96), uint8(0), uint64(1<<40|1))
	f.Fuzz(func(t *testing.T, qRaw, sRaw []byte, shape uint8, pick uint64) {
		dim := 1 + int(shape&1)
		q := tenths(qRaw, 6*dim)
		s := tenths(sRaw, 48*dim)
		if len(q) < dim || len(s) < dim {
			return
		}
		q, s = q[:len(q)/dim*dim], s[:len(s)/dim*dim]
		n, pts := len(q)/dim, len(s)/dim
		w := -1
		if shape&2 != 0 {
			w = int(shape>>2) % (n + 1)
		}

		var starts, ends []int32
		for p := 0; p < pts; p++ {
			if pick>>(p%64)&1 == 0 {
				continue
			}
			end := pts
			if pick>>((p+32)%64)&1 != 0 {
				end = p + 1 + (pts-p)/2
			}
			starts = append(starts, int32(p))
			ends = append(ends, int32(end))
		}
		taus := []float64{0, 3}
		for i := range starts {
			if d, ok := minScan(q, s, dim, w, int(starts[i]), int(ends[i])); ok && len(taus) < 8 {
				taus = append(taus, d)
			}
		}
		for _, tau := range taus {
			live := backward(q, s, dim, w, tau, starts, ends)
			for i := range starts {
				if d, ok := minScan(q, s, dim, w, int(starts[i]), int(ends[i])); ok && d <= tau && !live[i] {
					t.Fatalf("dim %d w=%d tau=%v: start %d (end %d) has an answer at %v, dismissed", dim, w, tau, starts[i], ends[i], d)
				}
			}
		}

		if w >= 0 || n == 1 {
			return // a one-point query is left to Dead
		}
		starts, ends = starts[:0], ends[:0]
		for p := 0; p < pts; p++ {
			starts = append(starts, int32(p))
			ends = append(ends, int32(pts))
		}
		for i, p := range starts {
			d, _ := minScan(q, s, dim, w, int(p), pts)
			if !backward(q, s, dim, w, d, starts, ends)[i] {
				t.Fatalf("dim %d: start %d dismissed at its own smallest distance %v", dim, p, d)
			}
			below := d * (1 - 8*float64(pts+n)*0x1p-50)
			if below < d && backward(q, s, dim, w, below, starts, ends)[i] {
				t.Fatalf("dim %d: start %d live at %v, below its smallest distance %v by more than the margin", dim, p, below, d)
			}
		}
	})
}

// TestBackwardLoneStart: a start alone in a long sequence pays for the
// rows an answer of it could span, not for the rest of the sequence — 2|Q|
// rows without a window, |Q|+w with one — even when every cell is live.
func TestBackwardLoneStart(t *testing.T) {
	q := make([]float64, 20)
	s := make([]float64, 5000)
	n := len(q)
	for _, w := range []int{-1, 0, 3} {
		rows := 2 * n
		if w >= 0 {
			rows = n + w
		}
		for _, start := range []int32{0, 2500} {
			var v Verifier
			v.Bind(q, 1, w, 100)
			live := []bool{false}
			v.Backward(s, []int32{start}, []int32{int32(len(s))}, live, nil)
			if !live[0] {
				t.Errorf("w=%d: start %d of a constant match dismissed", w, start)
			}
			if want := uint64(rows * n); v.Cells() != want {
				t.Errorf("w=%d: start %d of %d costs %d backward cells, want %d (%d rows of %d)", w, start, len(s), v.Cells(), want, rows, n)
			}
		}
	}
}

// TestBackwardPollStops: a pass stops at the first poll that says so.
func TestBackwardPollStops(t *testing.T) {
	q := make([]float64, 4)
	s := make([]float64, 10*backwardPoll)
	var starts, ends []int32
	for p := range s {
		starts = append(starts, int32(p))
		ends = append(ends, int32(len(s)))
	}
	var v Verifier
	v.Bind(q, 1, -1, 1)
	polls := 0
	v.Backward(s, starts, ends, make([]bool, len(starts)), func() bool { polls++; return polls < 3 })
	if polls != 3 {
		t.Errorf("%d polls, want the pass to stop at the third", polls)
	}
}
