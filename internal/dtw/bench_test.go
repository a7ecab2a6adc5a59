package dtw

import (
	"fmt"
	"testing"
)

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
// not assert), same warm-storage shape as the benchmarks above. Likewise the
// filter pass's base-row lookup with its AddRowBase row, and a verifier
// scan, backward pass and admission test, with and without a threshold.
func TestAddRowNoAllocs(t *testing.T) {
	_, q := benchSeqs(1, 20)
	for _, w := range []int{-1, 5} {
		kernels := []struct {
			name string
			add  func(tab *Table, v float64)
		}{
			{"AddRowValue", func(tab *Table, v float64) { tab.AddRowValue(v) }},
			{"AddRowInterval", func(tab *Table, v float64) { tab.AddRowInterval(v-0.5, v+0.5) }},
		}
		for _, k := range kernels {
			tab := NewTableWindow(q, w)
			for i := 0; i < 512; i++ { // warm the row storage to full depth
				k.add(tab, float64(i%13))
			}
			tab.Truncate(0)
			i := 0
			if got := testing.AllocsPerRun(1000, func() {
				k.add(tab, float64(i%13))
				i++
				if tab.Depth() >= 512 {
					tab.Truncate(0)
				}
			}); got != 0 {
				t.Errorf("window=%d: %s allocates %.1f per row on a warm table, want 0", w, k.name, got)
			}
		}

		tab := NewTableWindow(q, w)
		var bases BaseRows
		bases.Bind(len(q), 13)
		for i := 0; i < 512; i++ {
			tab.AddRowValue(0)
		}
		tab.Truncate(0)
		i := 0
		if got := testing.AllocsPerRun(1000, func() {
			row, cached := bases.Row(int32(i % 13))
			if !cached {
				for y, v := range q {
					row[y] = BaseInterval(v, float64(i%13)-0.5, float64(i%13)+0.5)
				}
			}
			tab.AddRowBase(row)
			i++
			if tab.Depth() >= 512 {
				tab.Truncate(0)
			}
		}); got != 0 {
			t.Errorf("window=%d: BaseRows.Row + AddRowBase allocate %.1f per row, want 0", w, got)
		}

		s, _ := benchSeqs(232, 1)
		for _, tau := range []float64{Inf, 40} {
			var v Verifier
			v.Bind(q, 1, w, tau)
			hits := 0
			hit := func(int, float64) { hits++ }
			start := 0
			if got := testing.AllocsPerRun(1000, func() {
				v.Scan(s, start, len(s), hit)
				start = (start + 1) % len(s)
			}); got != 0 {
				t.Errorf("window=%d tau=%v: Verifier.Scan allocates %.1f per start, want 0", w, tau, got)
			}
			starts, ends := []int32{3, 9, 40, 200}, []int32{232, 100, 232, 232}
			live := make([]bool, len(starts))
			more := func() bool { return true }
			if got := testing.AllocsPerRun(1000, func() {
				v.Backward(s, starts, ends, live, more)
			}); got != 0 {
				t.Errorf("window=%d tau=%v: Verifier.Backward allocates %.1f per pass, want 0", w, tau, got)
			}
			if got := testing.AllocsPerRun(1000, func() {
				v.Admit(s, start)
				start = (start + 1) % len(s)
			}); got != 0 {
				t.Errorf("window=%d tau=%v: Verifier.Admit allocates %.1f per start, want 0", w, tau, got)
			}
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

// benchPoints is benchSeqs with every value repeated as the dim coordinates
// of one point: every base distance is dim times the value's, exactly, so a
// threshold dim times as large leaves the same cells live.
func benchPoints(n, m, dim int) ([]float64, []float64) {
	a, b := benchSeqs(n, m)
	repeat := func(vals []float64) []float64 {
		out := make([]float64, 0, len(vals)*dim)
		for _, v := range vals {
			for k := 0; k < dim; k++ {
				out = append(out, v)
			}
		}
		return out
	}
	return repeat(a), repeat(b)
}

// BenchmarkVerifierScan scans every start of a walk of 232 points near a
// 20-point query at a threshold that keeps a few columns of each row live —
// the shape of the verification pass on a broad query — once per cell loop:
// /d1 over values, /d2 over the same walk as points of dimension 2 at twice
// the threshold, which computes the same cells.
func BenchmarkVerifierScan(b *testing.B) {
	for _, dim := range []int{1, 2} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			s, q := benchPoints(232, 20, dim)
			var v Verifier
			v.Bind(q, dim, -1, 9*float64(dim))
			hits := 0
			hit := func(int, float64) { hits++ }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for start := 0; start < len(s)/dim; start++ {
					v.Scan(s, start, len(s)/dim, hit)
				}
			}
			b.ReportMetric(float64(v.Cells())/float64(b.N), "cells/op")
		})
	}
}

// BenchmarkVerifierBackward runs the backward pass over every start of
// BenchmarkVerifierScan's walk, each to the end of it, at the same
// threshold — one pass over the whole walk, deciding every start before
// any forward row — once per cell loop: /d1 over values, /d2 over the same
// walk as points of dimension 2.
func BenchmarkVerifierBackward(b *testing.B) {
	for _, dim := range []int{1, 2} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			s, q := benchPoints(232, 20, dim)
			n := len(s) / dim
			starts, ends := make([]int32, n), make([]int32, n)
			for i := range starts {
				starts[i], ends[i] = int32(i), int32(n)
			}
			live := make([]bool, n)
			var v Verifier
			v.Bind(q, dim, -1, 9*float64(dim))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.Backward(s, starts, ends, live, nil)
			}
			b.ReportMetric(float64(v.Cells())/float64(b.N), "cells/op")
		})
	}
}

// BenchmarkVerifierAdmit runs the windowed admission bound over every start
// of BenchmarkVerifierScan's walk under window 2, at the same threshold —
// the test a candidate start pays before it may join the verification
// pass — once per loop: /d1 over values, /d2 over the same walk as points
// of dimension 2.
func BenchmarkVerifierAdmit(b *testing.B) {
	for _, dim := range []int{1, 2} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			s, q := benchPoints(232, 20, dim)
			var v Verifier
			v.Bind(q, dim, 2, 9*float64(dim))
			admitted := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for start := 0; start < len(s)/dim; start++ {
					if v.Admit(s, start) {
						admitted++
					}
				}
			}
			b.ReportMetric(float64(v.Gaps())/float64(b.N), "gaps/op")
			b.ReportMetric(float64(admitted)/float64(b.N), "admitted/op")
		})
	}
}
