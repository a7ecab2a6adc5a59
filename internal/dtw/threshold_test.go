package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// thresholdOp is one step of a row-stack script: a row to add, or (add
// false) a truncation to the given depth, taken modulo the depth it meets.
type thresholdOp struct {
	add   bool
	v     float64
	depth int
}

// checkThresholdRows drives a table with threshold tau and a plain one over
// the same query, window and script, the thresholded one on storage full of
// stale values no kernel may read. After every row the two must agree on
// what a search asks — is the distance, is the row minimum at most tau, and
// if so on its bits — and whenever rows are about to be dropped, and at the
// end, on every cell: a cell the plain table holds at or below tau has the
// same bits in the thresholded one, every other reads above tau there.
// Without a threshold (tau = Inf) that is every bit of every cell, and the
// cell counters agree too.
func checkThresholdRows(t *testing.T, q []float64, w int, tau float64, ops []thresholdOp) {
	t.Helper()
	n := len(q)
	plain := NewTableWindow(q, w)
	thr := poisoned(q, w, len(ops)+1)
	thr.SetThreshold(tau)

	sameWithin := func(what string, x int, p, g float64) {
		t.Helper()
		if p <= tau {
			if math.Float64bits(g) != math.Float64bits(p) {
				t.Fatalf("w=%d tau=%v row %d %s: thresholded %v, plain %v <= tau", w, tau, x, what, g, p)
			}
		} else if !(g > tau) {
			t.Fatalf("w=%d tau=%v row %d %s: thresholded %v reads within tau, plain %v does not", w, tau, x, what, g, p)
		}
	}
	checkCells := func() {
		t.Helper()
		for x := 0; x < plain.Depth(); x++ {
			want := append([]float64(nil), plain.Row(x)...)
			got := thr.Row(x)
			for y := 0; y < n; y++ {
				sameWithin("cell", x, want[y], got[y])
			}
			sameWithin("LastColumn", x, plain.LastColumn(x), thr.LastColumn(x))
		}
	}
	for _, op := range ops {
		if !op.add {
			checkCells()
			d := op.depth % (plain.Depth() + 1)
			plain.Truncate(d)
			thr.Truncate(d)
			continue
		}
		x := plain.Depth()
		pd, pm := plain.AddRowValue(op.v)
		gd, gm := thr.AddRowValue(op.v)
		sameWithin("distance", x, pd, gd)
		sameWithin("row minimum", x, pm, gm)
		if thr.Depth() != plain.Depth() {
			t.Fatalf("depth %d, plain %d", thr.Depth(), plain.Depth())
		}
	}
	checkCells()
	if thr.Cells() > plain.Cells() || (math.IsInf(tau, 1) && thr.Cells() != plain.Cells()) {
		t.Fatalf("w=%d tau=%v: thresholded table computed %d cells, plain %d", w, tau, thr.Cells(), plain.Cells())
	}
}

// thresholdOps cuts a script from fuzz bytes: one in eight is a truncation.
func thresholdOps(raw []byte) []thresholdOp {
	if len(raw) > 64 {
		raw = raw[:64]
	}
	ops := make([]thresholdOp, len(raw))
	for i, b := range raw {
		if b%8 == 7 {
			ops[i] = thresholdOp{depth: int(b / 8)}
		} else {
			ops[i] = thresholdOp{add: true, v: float64(int(b)-128) / 4}
		}
	}
	return ops
}

// thresholdTau picks the threshold classes that matter: nothing but exact
// hits is live, one grid step, a middling budget, and none at all.
func thresholdTau(sel uint8) float64 {
	switch sel % 4 {
	case 0:
		return 0
	case 1:
		return 0.25
	case 2:
		return float64(sel / 4)
	}
	return Inf
}

// FuzzThresholdRows checks a thresholded table against a plain one under
// arbitrary AddRowValue / Truncate interleavings, for windows -1 … n and
// thresholds 0, tiny, middling and +Inf.
func FuzzThresholdRows(f *testing.F) {
	f.Add([]byte{128, 130, 126, 128}, []byte{128, 129, 131, 127, 128, 140, 128}, int8(-1), uint8(2+4*3))
	f.Add([]byte{128, 128, 128}, []byte{128, 128, 15, 128, 132, 128, 7, 128}, int8(1), uint8(0))
	f.Add([]byte{100, 160, 128, 90}, []byte{100, 160, 128, 90, 39, 101, 161}, int8(0), uint8(1))
	f.Add([]byte{1, 255, 3}, []byte{200, 201, 202, 23, 1, 2}, int8(3), uint8(3))
	f.Fuzz(func(t *testing.T, qRaw, opsRaw []byte, wRaw int8, tauSel uint8) {
		q := bytesToSeq(qRaw, 12)
		w := (int(wRaw)%(len(q)+2)+len(q)+2)%(len(q)+2) - 1
		checkThresholdRows(t, q, w, thresholdTau(tauSel), thresholdOps(opsRaw))
	})
}

// The same property on long random walks near the query, where rows stay
// alive for many steps and the live columns drift right — the shape of a
// verification scan — over every window and threshold class.
func TestThresholdRowsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 5, 12} {
		q := make([]float64, n)
		v := 0.0
		for i := range q {
			v += float64(rng.Intn(5)-2) / 2
			q[i] = v
		}
		for w := -1; w <= n; w++ {
			for _, tau := range []float64{0, 0.5, 3, 12, Inf} {
				ops := make([]thresholdOp, 6*n+10)
				v := q[0]
				for i := range ops {
					if rng.Intn(9) == 0 {
						ops[i] = thresholdOp{depth: rng.Intn(2 * n)}
						v = q[0]
						continue
					}
					v += float64(rng.Intn(5)-2) / 2
					ops[i] = thresholdOp{add: true, v: v}
				}
				checkThresholdRows(t, q, w, tau, ops)
			}
		}
	}
}

func TestSetThresholdOnRowsPanics(t *testing.T) {
	tab := NewTable([]float64{1, 2})
	tab.AddRowValue(1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetThreshold on a table that holds rows did not panic")
		}
	}()
	tab.SetThreshold(3)
}
