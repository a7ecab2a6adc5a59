package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
	"twsearch/internal/sequence"
	"twsearch/internal/workload"
)

// benchSearch builds a stock-walk index once and replays a fixed list of
// queries cut from the data, serially, through the default 256-page pool,
// reporting the engine's cost per tree node visited and per DP cell
// (filter and post-processing) beside ns/op. The walks and the places the
// queries are cut from are fixed by constants, so two commits time the same
// traversal: `make profile-search` profiles exactly these loops.
func benchSearch(b *testing.B, sequences, qlen int, eps float64, opts Options) {
	data := workload.Stocks(workload.StockConfig{NumSequences: sequences, Seed: 1717})
	ix, err := Build(data, filepath.Join(b.TempDir(), "bench.twt"), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries := cutQueries(data, 40, qlen)
	var nodes, cells uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := search(ix, queries[i%len(queries)], eps)
		if err != nil {
			b.Fatal(err)
		}
		nodes += st.NodesVisited
		cells += st.FilterCells + st.PostCells
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// cutQueries cuts count queries of about qlen values out of the data, the
// sequences and the places within them spread evenly.
func cutQueries(data *sequence.Dataset, count, qlen int) [][]float64 {
	rng := rand.New(rand.NewSource(1718))
	queries := make([][]float64, count)
	for i := range queries {
		_, frac := math.Modf((float64(i) + 0.5) * 0.6180339887498949)
		vals := data.Values(int(frac * float64(data.Len())))
		n := min(qlen-qlen/4+rng.Intn(qlen/2+1), len(vals))
		start := rng.Intn(len(vals) - n + 1)
		queries[i] = vals[start : start+n]
	}
	return queries
}

// benchEncodings runs benchSearch once per node record encoding, as the
// sub-benchmarks /v1 and /v2: the same tree, traversal and answers, read
// from records of either format.
func benchEncodings(b *testing.B, sequences, qlen int, eps float64, opts Options) {
	for _, enc := range []disktree.Encoding{disktree.EncodingV1, disktree.EncodingV2} {
		opts.Encoding = enc
		b.Run(enc.String(), func(b *testing.B) { benchSearch(b, sequences, qlen, eps, opts) })
	}
}

// BenchmarkSearchSelective is shaped like the benchmark's `selective`
// workload: a dense 200-category tree many times the pool, window 2,
// 40-value queries with a handful of answers each — node reads, envelope
// gates and banded filter rows do the work.
func BenchmarkSearchSelective(b *testing.B) {
	benchEncodings(b, 1090, 40, 4, Options{Kind: categorize.KindMaxEntropy, Categories: 200, Window: 2})
}

// BenchmarkSearchBroad is shaped like the benchmark's `broad` workload: a
// sparse 20-category tree that fits the pool, no window, 20-value queries
// with thousands of answers each — full-width filter rows and the exact
// post-processing scan do the work.
func BenchmarkSearchBroad(b *testing.B) {
	benchEncodings(b, 273, 20, 9, Options{Kind: categorize.KindMaxEntropy, Categories: 20, Sparse: true})
}
