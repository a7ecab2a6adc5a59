package multivar_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"twsearch/internal/core"
	"twsearch/internal/dtw"
	. "twsearch/internal/multivar"
	"twsearch/internal/sequence"
)

// The engine's result types, under the names these tests use.
type (
	Match = core.Match
	Stats = core.SearchStats
	Ref   = sequence.Ref
)

// build is core.Build over a vector dataset: the index follows its
// dimension.
func build(data *Dataset, path string, opts core.Options) (*core.Index, error) {
	return core.Build(data.Dataset, path, opts)
}

// searchKNN is the k-NN search over one index, as the shard coordinator
// runs it over one shard: core.RunKNN over the index's range search,
// bounded by its DistanceBound.
func searchKNN(ctx context.Context, ix *core.Index, q []float64, k int) ([]Match, Stats, error) {
	dim := ix.Data.Dim()
	if err := core.CheckQuery(q, dim); err != nil {
		return nil, Stats{}, err
	}
	return core.RunKNN(ctx, k, core.QueryStep(q, dim), ix.DistanceBound(q), func(m Match) float64 { return m.Distance }, func(ctx context.Context, eps float64) ([]Match, Stats, error) {
		return ix.Search(ctx, q, eps)
	})
}

// mustAdd adds s to d; the tests' sequences are valid by construction.
func mustAdd(d *Dataset, s Sequence) {
	if _, err := d.Add(s); err != nil {
		panic(err)
	}
}

// points returns sequence i of d, a *Dataset or a *sequence.Dataset, as
// rows.
func points(d interface {
	Values(int) []float64
	Dim() int
}, i int) [][]float64 {
	vals, dim := d.Values(i), d.Dim()
	var rows [][]float64
	for j := 0; j < len(vals); j += dim {
		rows = append(rows, vals[j:j+dim:j+dim])
	}
	return rows
}

// newTable returns a table over the query points q, of q's dimension, under
// window w.
func newTable(q [][]float64, w int) *dtw.Table {
	var t dtw.Table
	t.Bind(Flatten(q), len(q[0]), w)
	return &t
}

var bg = context.Background()

func mMatchesBitIdentical(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ref != b[i].Ref ||
			math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// mExactStats strips Stats to the counters a search pins exactly
// (everything but wall clock and the index-wide pool deltas).
func mExactStats(s Stats) [8]uint64 {
	return [8]uint64{s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates, s.FalseAlarms, s.Answers, s.EnvelopePruned, s.LBCells}
}

func randomVecDataset(rng *rand.Rand, nSeq, maxLen, dim int) *Dataset {
	d := NewDataset(dim)
	for i := 0; i < nSeq; i++ {
		n := 2 + rng.Intn(maxLen-1)
		points := make([][]float64, n)
		v := make([]float64, dim)
		for k := range v {
			v[k] = float64(rng.Intn(10))
		}
		for j := range points {
			p := make([]float64, dim)
			for k := range p {
				v[k] += float64(rng.Intn(3) - 1)
				p[k] = v[k]
			}
			points[j] = p
		}
		mustAdd(d, Sequence{ID: fmt.Sprintf("m%d", i), Points: points})
	}
	return d
}

func randomVecQuery(rng *rand.Rand, maxLen, dim int) [][]float64 {
	n := 1 + rng.Intn(maxLen)
	q := make([][]float64, n)
	v := make([]float64, dim)
	for k := range v {
		v[k] = float64(rng.Intn(10))
	}
	for j := range q {
		p := make([]float64, dim)
		for k := range p {
			v[k] += float64(rng.Intn(3) - 1)
			p[k] = v[k]
		}
		q[j] = p
	}
	return q
}
