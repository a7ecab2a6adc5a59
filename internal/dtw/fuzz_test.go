package dtw

import (
	"math"
	"testing"
)

// bytesToSeq derives a bounded, finite float sequence from fuzz bytes.
func bytesToSeq(data []byte, max int) []float64 {
	if len(data) == 0 {
		return []float64{0}
	}
	if len(data) > max {
		data = data[:max]
	}
	out := make([]float64, len(data))
	for i, b := range data {
		out[i] = float64(int(b)-128) / 4
	}
	return out
}

// FuzzDistanceProperties checks the metric-adjacent invariants on arbitrary
// inputs: non-negativity, symmetry, identity, agreement between the
// rolling-array distance, the window-unbounded variant, and the
// incremental table.
func FuzzDistanceProperties(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{0}, []byte{255})
	f.Add([]byte{10, 10, 10, 10}, []byte{10})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		x := bytesToSeq(a, 16)
		y := bytesToSeq(b, 16)
		d := Distance(x, y)
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("distance %v", d)
		}
		if sym := Distance(y, x); math.Abs(d-sym) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", d, sym)
		}
		if self := Distance(x, x); self != 0 {
			t.Fatalf("self distance %v", self)
		}
		if w := DistanceWindow(x, y, len(x)+len(y)); math.Abs(d-w) > 1e-9 {
			t.Fatalf("wide window differs: %v vs %v", d, w)
		}
		tab := NewTable(y)
		var last float64
		for _, v := range x {
			last, _ = tab.AddRowValue(v)
		}
		if math.Abs(last-d) > 1e-9 {
			t.Fatalf("table %v != distance %v", last, d)
		}
	})
}

// FuzzIntervalLowerBound checks Theorem 2's core inequality on arbitrary
// interval inflations.
func FuzzIntervalLowerBound(f *testing.F) {
	f.Add([]byte{5, 9, 2}, []byte{9, 5}, uint8(3))
	f.Fuzz(func(t *testing.T, a, b []byte, widen uint8) {
		x := bytesToSeq(a, 12)
		y := bytesToSeq(b, 12)
		w := float64(widen) / 16
		ivs := make([]Interval, len(x))
		for i, v := range x {
			ivs[i] = Interval{Lo: v - w, Hi: v + w}
		}
		lb := DistanceIntervals(y, ivs)
		if exact := Distance(x, y); lb > exact+1e-9 {
			t.Fatalf("lower bound %v exceeds exact %v", lb, exact)
		}
	})
}
