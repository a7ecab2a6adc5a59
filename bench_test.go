package twsearch_test

import (
	"context"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/dtw"
	"twsearch/internal/workload"
)

func benchSeqPair(n, m int) ([]float64, []float64) {
	a := make([]float64, n)
	q := make([]float64, m)
	for i := range a {
		a[i] = float64(i%17) * 0.5
	}
	for i := range q {
		q[i] = float64(i%13) * 0.7
	}
	return a, q
}

// BenchmarkDTWDistance measures the raw O(n*m) dynamic program.
func BenchmarkDTWDistance(b *testing.B) {
	a, q := benchSeqPair(232, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dtw.Distance(a, q)
	}
}

// BenchmarkTableAddRow measures one incremental row append (the unit of
// filter work).
func BenchmarkTableAddRow(b *testing.B) {
	_, q := benchSeqPair(1, 20)
	tab := dtw.NewTable(q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.AddRowValue(float64(i % 10))
		if tab.Depth() > 256 {
			tab.Truncate(0)
		}
	}
}

// benchStockIndex builds a small shared index for the search benches.
func benchStockIndex(b *testing.B, sparse bool) (*core.Index, [][]float64) {
	b.Helper()
	data := workload.Stocks(workload.StockConfig{NumSequences: 60, Seed: 21})
	queries := workload.Queries(data, workload.QueryConfig{Count: 8, Seed: 22})
	ix, err := core.Build(data, filepath.Join(b.TempDir(), "bench.twt"), core.Options{
		Kind: categorize.KindMaxEntropy, Categories: 40, Sparse: sparse,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	return ix, queries
}

// BenchmarkSearchSparseEps5 measures a selective SimSearch-SSTc query.
func BenchmarkSearchSparseEps5(b *testing.B) {
	ix, queries := benchStockIndex(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(context.Background(), queries[i%len(queries)], 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSparseEps30 measures a permissive SimSearch-SSTc query.
func BenchmarkSearchSparseEps30(b *testing.B) {
	ix, queries := benchStockIndex(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(context.Background(), queries[i%len(queries)], 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDenseEps5 measures the dense SimSearch-STc variant.
func BenchmarkSearchDenseEps5(b *testing.B) {
	ix, queries := benchStockIndex(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(context.Background(), queries[i%len(queries)], 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeqScanEps5 measures the Theorem-1 abandoning baseline.
func BenchmarkSeqScanEps5(b *testing.B) {
	data := workload.Stocks(workload.StockConfig{NumSequences: 60, Seed: 21})
	queries := workload.Queries(data, workload.QueryConfig{Count: 8, Seed: 22})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SeqScan(data, queries[i%len(queries)], 5, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures the full disk construction pipeline.
func BenchmarkIndexBuild(b *testing.B) {
	data := workload.Stocks(workload.StockConfig{NumSequences: 60, Seed: 21})
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := core.Build(data, filepath.Join(dir, "build.twt"), core.Options{
			Kind: categorize.KindMaxEntropy, Categories: 40, Sparse: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		ix.RemoveFile()
	}
}
