package multivar

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

// workScalarData is a fixed-seed set of integer random walks and a query.
func workScalarData() (*sequence.Dataset, []float64) {
	rng := rand.New(rand.NewSource(2001))
	data := sequence.NewDataset()
	for i := 0; i < 16; i++ {
		vals := make([]float64, 60+rng.Intn(40))
		v := float64(rng.Intn(20))
		for j := range vals {
			v += float64(rng.Intn(5) - 2)
			vals[j] = v
		}
		data.MustAdd(sequence.Sequence{ID: fmt.Sprintf("s%d", i), Values: vals})
	}
	q := make([]float64, 10)
	v := 10.0
	for j := range q {
		v += float64(rng.Intn(5) - 2)
		q[j] = v
	}
	return data, q
}

// workVectorData is its 2-D counterpart; the query is a stretch of one
// trajectory, nudged.
func workVectorData() (*Dataset, [][]float64) {
	rng := rand.New(rand.NewSource(2003))
	data := NewDataset(2)
	walk := func(n int) [][]float64 {
		x, y := float64(rng.Intn(12)), float64(rng.Intn(12))
		out := make([][]float64, n)
		for j := range out {
			x += float64(rng.Intn(3) - 1)
			y += float64(rng.Intn(3) - 1)
			out[j] = []float64{x, y}
		}
		return out
	}
	for i := 0; i < 16; i++ {
		data.MustAdd(Sequence{ID: fmt.Sprintf("v%d", i), Points: walk(60 + rng.Intn(40))})
	}
	q := make([][]float64, 9)
	for j := range q {
		p := data.Points(3)[10+j]
		q[j] = []float64{p[0] + float64(rng.Intn(3)-1), p[1]}
	}
	return data, q
}

// TestEngineWorkPinned pins the work, not just the answers: on fixed-seed
// data, each kernel × index shape must visit the nodes, compute the cells,
// raise the candidates and cut the rows that core.Index.Search and
// multivar.Index.Search did at the commit before the two engines became one
// (the literals were captured there).
// No benchmark workload exposes the vector kernel's counters, so this is
// what shows the shared traversal does the same work for vectors.
//
// Three columns were re-captured when verification was cut to the cost of
// its answers, the other five repeating exactly: Candidates and with it
// FalseAlarms, because a leaf under a qualifying path is now emitted once,
// not once per qualifying edge above it (scalar/dense: 222 emissions verify
// to 281 answers, so no emission counts as false); and PostCells, because a
// start dead on its first element grows no row, a verification row computes
// only the cells a path within eps can reach, and a row is charged what it
// computed — under a window, its band, no longer the query's length. The
// identity rows keep their candidates (exact indexes emit per depth) and
// move only in PostCells (vector/identity verifies every candidate; the
// scalar identity index verifies none).
//
// Re-captured (all but scalar/identity) when a reached leaf went to
// verification whole: its label's filter rows become exact cells, its starts
// candidates.
func TestEngineWorkPinned(t *testing.T) {
	dir := t.TempDir()
	sdata, sq := workScalarData()
	vdata, vq := workVectorData()
	const seps, veps = 9, 13.5
	// NodesVisited, FilterCells, PostCells, Candidates, FalseAlarms,
	// Answers, EnvelopePruned, LBCells.
	type counters [8]uint64
	rows := []struct {
		name   string
		scalar *core.Options
		vector *Options
		want   counters
	}{
		{"scalar/dense", &core.Options{Kind: categorize.KindMaxEntropy, Categories: 12}, nil,
			counters{668, 3650, 15950, 350, 69, 281, 18, 383}},
		{"scalar/sparse", &core.Options{Kind: categorize.KindMaxEntropy, Categories: 8, Sparse: true}, nil,
			counters{472, 2820, 18135, 1043, 762, 281, 23, 305}},
		{"scalar/sparse+window", &core.Options{Kind: categorize.KindMaxEntropy, Categories: 8, Sparse: true, Window: 4}, nil,
			counters{472, 2820, 14655, 1043, 914, 129, 23, 305}},
		{"scalar/identity", &core.Options{Kind: categorize.KindIdentity}, nil,
			counters{725, 19100, 0, 281, 0, 281, 128, 2038}},
		{"vector/dense", nil, &Options{Kind: categorize.KindMaxEntropy, CatsPerDim: 4},
			counters{862, 4797, 10391, 490, 445, 45, 32, 565}},
		{"vector/sparse", nil, &Options{Kind: categorize.KindMaxEntropy, CatsPerDim: 3, Sparse: true},
			counters{423, 2898, 12607, 1185, 1140, 45, 10, 332}},
		{"vector/sparse+window", nil, &Options{Kind: categorize.KindEqualLength, CatsPerDim: 4, Sparse: true, Window: 4},
			counters{317, 2169, 11812, 1202, 1162, 40, 10, 251}},
		{"vector/identity", nil, &Options{Kind: categorize.KindIdentity},
			counters{1287, 3312, 12079, 855, 810, 45, 75, 443}},
	}
	for i, r := range rows {
		path := filepath.Join(dir, fmt.Sprintf("w%d.twt", i))
		var search func() (Stats, error)
		if r.scalar != nil {
			ix, err := core.Build(sdata, path, *r.scalar)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			defer ix.Close()
			search = func() (Stats, error) {
				_, st, err := ix.Search(bg, sq, seps)
				return st, err
			}
		} else {
			ix, err := Build(vdata, path, *r.vector)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			defer ix.Close()
			search = func() (Stats, error) {
				_, st, err := ix.Search(bg, vq, veps)
				return st, err
			}
		}
		st, err := search()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := counters{st.NodesVisited, st.FilterCells, st.PostCells, st.Candidates,
			st.FalseAlarms, st.Answers, st.EnvelopePruned, st.LBCells}
		if got != r.want {
			t.Errorf("%s: counters %v, want %v", r.name, got, r.want)
		}
	}
}
