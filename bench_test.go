package twsearch_test

import (
	"context"
	"path/filepath"
	"testing"

	"twsearch/internal/benchrun"
	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/dtw"
	"twsearch/internal/workload"
)

// benchScale keeps -bench runs quick; cmd/benchtables runs the same
// harness at the paper's full scale (-scale 1).
const benchScale = 0.06

func benchConfig(b *testing.B) benchrun.Config {
	b.Helper()
	return benchrun.Config{Scale: benchScale, Queries: 2, Dir: b.TempDir(), Seed: 9}
}

// BenchmarkTable1 regenerates Table 1 (index sizes vs category count).
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := benchrun.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.ST.InlineKB), "ST-inline-KB")
			b.ReportMetric(float64(res.Rows[0].SSTcME.InlineKB), "SSTcME10-inline-KB")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (query effort vs category count).
func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := benchrun.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ST.FilterCells, "ST-cells/query")
			b.ReportMetric(res.Rows[3].SSTcME.FilterCells, "SSTcME80-cells/query")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (SeqScan vs SimSearch-SSTc by eps).
func BenchmarkTable3(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := benchrun.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first := rows[0]
			b.ReportMetric(first.ScanFull.Cells(), "scanfull-cells-eps5")
			b.ReportMetric(first.SST80.Cells(), "sst80-cells-eps5")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (effort vs sequence length).
func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := benchrun.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].SST.Cells(), "sst-cells-len1000")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (effort vs sequence count).
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := benchrun.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].SST.Cells(), "sst-cells-10k")
		}
	}
}

// BenchmarkAblationSparse compares dense vs sparse trees (DESIGN.md A1).
func BenchmarkAblationSparse(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := benchrun.AblationSparse(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPruning measures Theorem-1 pruning (A5).
func BenchmarkAblationPruning(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := benchrun.AblationPruning(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindow measures the warping-window extension (A3).
func BenchmarkAblationWindow(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := benchrun.AblationWindow(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBufferPool measures pool size vs physical reads (A4).
func BenchmarkAblationBufferPool(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := benchrun.AblationBufferPool(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro benchmarks on the core primitives ---

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

// BenchmarkSeqScanFullEps5 measures the paper's no-abandon baseline.
func BenchmarkSeqScanFullEps5(b *testing.B) {
	data := workload.Stocks(workload.StockConfig{NumSequences: 60, Seed: 21})
	queries := workload.Queries(data, workload.QueryConfig{Count: 8, Seed: 22})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SeqScanFull(data, queries[i%len(queries)], 5, -1); err != nil {
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
