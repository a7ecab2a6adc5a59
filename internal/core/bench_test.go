package core

import (
	"fmt"
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

// BenchmarkSearchExact is BenchmarkSearchBroad's data and queries over
// the paper's plain ST: a sparse identity tree, whose filter rows are exact
// and whose answers verification decides like every other tree's.
func BenchmarkSearchExact(b *testing.B) {
	benchEncodings(b, 273, 20, 9, Options{Kind: categorize.KindIdentity, Sparse: true})
}

// trajectoryWalks generates n two-dimensional random walks of points
// samples each, point-major — unit-variance steps per axis, rounded to
// hundredths, from starts spread evenly over a 100×100 field.
func trajectoryWalks(rng *rand.Rand, n, points int) *sequence.Dataset {
	d := sequence.NewDatasetDim(2)
	for i := 0; i < n; i++ {
		_, fx := math.Modf((float64(i) + 0.5) * 0.6180339887498949)
		_, fy := math.Modf((float64(i) + 0.5) * 0.7548776662466927)
		x, y := fx*100, fy*100
		walk := make([]float64, 0, 2*points)
		for j := 0; j < points; j++ {
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			walk = append(walk, math.Round(x*100)/100, math.Round(y*100)/100)
		}
		d.MustAdd(sequence.Sequence{ID: fmt.Sprintf("traj-%05d", i), Values: walk})
	}
	return d
}

// BenchmarkSearchTrajectory is shaped like the benchmark's `trajectory`
// workload: 800 walks of 200 points, a grid of 12 categories per axis,
// window 3, and range queries of about 24 points cut from the walks with
// Gaussian noise of 0.25 per coordinate, at ε 20 — the kernel's filter
// rows at dimension 2 and the verifier's point loop, over a tree in each
// record encoding, as /v1 and /v2.
func BenchmarkSearchTrajectory(b *testing.B) {
	rng := rand.New(rand.NewSource(1719))
	data := trajectoryWalks(rng, 800, 200)
	queries := make([][]float64, 40)
	for i := range queries {
		walk := data.Values(rng.Intn(data.Len()))
		n := 18 + rng.Intn(13)
		start := rng.Intn(len(walk)/2 - n + 1)
		q := make([]float64, 2*n)
		for j := range q {
			q[j] = walk[2*start+j] + rng.NormFloat64()*0.25
		}
		queries[i] = q
	}
	for _, enc := range []disktree.Encoding{disktree.EncodingV1, disktree.EncodingV2} {
		b.Run(enc.String(), func(b *testing.B) {
			ix, err := Build(data, filepath.Join(b.TempDir(), "traj.twt"), Options{Categories: 12, Window: 3, Encoding: enc})
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			var nodes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := search(ix, queries[i%len(queries)], 20)
				if err != nil {
					b.Fatal(err)
				}
				nodes += st.NodesVisited
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
