package dtw

import "testing"

func benchSeqs(n, m int) ([]float64, []float64) {
	a := make([]float64, n)
	b := make([]float64, m)
	for i := range a {
		a[i] = float64(i%23) * 0.5
	}
	for i := range b {
		b[i] = float64(i%17) * 0.7
	}
	return a, b
}

func BenchmarkDistance232x20(b *testing.B) {
	x, q := benchSeqs(232, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, q)
	}
}

func BenchmarkDistanceWindow232x20w10(b *testing.B) {
	x, q := benchSeqs(232, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistanceWindow(x, q, 10)
	}
}

func BenchmarkDistanceEarlyAbandonTight(b *testing.B) {
	x, q := benchSeqs(232, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistanceEarlyAbandon(x, q, 1)
	}
}

func BenchmarkDistanceIntervals(b *testing.B) {
	x, q := benchSeqs(232, 20)
	ivs := make([]Interval, len(x))
	for i, v := range x {
		ivs[i] = Interval{Lo: v - 0.5, Hi: v + 0.5}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistanceIntervals(q, ivs)
	}
}

func BenchmarkTableAddRowValue(b *testing.B) {
	_, q := benchSeqs(1, 20)
	tab := NewTable(q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.AddRowValue(float64(i % 13))
		if tab.Depth() >= 512 {
			tab.Truncate(0)
		}
	}
}

func BenchmarkTableAddRowInterval(b *testing.B) {
	_, q := benchSeqs(1, 20)
	tab := NewTable(q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := float64(i % 13)
		tab.AddRowInterval(v-0.5, v+0.5)
		if tab.Depth() >= 512 {
			tab.Truncate(0)
		}
	}
}

// The row kernels must not allocate once the table's row storage is warm:
// AddRow* runs millions of times per search, and a hidden allocation per row
// would dominate the traversal. Guarded as a test (benchmarks can report but
// not assert), same warm-storage shape as the benchmarks above — without a
// threshold, as the filter pass and the scans add rows, and with one, as
// verification does (the live columns are a stack beside the rows).
func TestAddRowNoAllocs(t *testing.T) {
	_, q := benchSeqs(1, 20)
	for _, w := range []int{-1, 5} {
		for _, tau := range []float64{Inf, 40} {
			tab := NewTableWindow(q, w)
			tab.SetThreshold(tau)
			for i := 0; i < 512; i++ { // warm the row storage to full depth
				tab.AddRowValue(float64(i % 13))
			}
			tab.Truncate(0)
			i := 0
			if got := testing.AllocsPerRun(1000, func() {
				tab.AddRowValue(float64(i % 13))
				i++
				if tab.Depth() >= 512 {
					tab.Truncate(0)
				}
			}); got != 0 {
				t.Errorf("window=%d tau=%v: AddRowValue allocates %.1f per row on a warm table, want 0", w, tau, got)
			}
		}
		tab := NewTableWindow(q, w)
		for i := 0; i < 512; i++ {
			tab.AddRowInterval(0, 1)
		}
		tab.Truncate(0)
		i := 0
		if got := testing.AllocsPerRun(1000, func() {
			v := float64(i % 13)
			tab.AddRowInterval(v-0.5, v+0.5)
			i++
			if tab.Depth() >= 512 {
				tab.Truncate(0)
			}
		}); got != 0 {
			t.Errorf("window=%d: AddRowInterval allocates %.1f per row on a warm table, want 0", w, got)
		}
	}
}

func BenchmarkAlign64x64(b *testing.B) {
	x, q := benchSeqs(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Align(x, q)
	}
}
