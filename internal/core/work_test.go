package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
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

// workVectorData is its 2-D counterpart, point-major; the query is a
// stretch of one trajectory, nudged.
func workVectorData() (*sequence.Dataset, []float64) {
	rng := rand.New(rand.NewSource(2003))
	data := sequence.NewDatasetDim(2)
	walk := func(n int) []float64 {
		x, y := float64(rng.Intn(12)), float64(rng.Intn(12))
		out := make([]float64, 0, 2*n)
		for j := 0; j < n; j++ {
			x += float64(rng.Intn(3) - 1)
			y += float64(rng.Intn(3) - 1)
			out = append(out, x, y)
		}
		return out
	}
	for i := 0; i < 16; i++ {
		data.MustAdd(sequence.Sequence{ID: fmt.Sprintf("v%d", i), Values: walk(60 + rng.Intn(40))})
	}
	q := make([]float64, 0, 2*9)
	for j := 0; j < 9; j++ {
		p := data.Values(3)[2*(10+j):]
		q = append(q, p[0]+float64(rng.Intn(3)-1), p[1])
	}
	return data, q
}

// TestEngineWorkPinned pins the work, not just the answers: on fixed-seed
// data, each kernel × index shape must visit the nodes, compute the cells,
// raise the candidates and cut the rows that core.Index.Search and
// multivar.Index.Search did at the commit before the two engines became one
// (the literals were captured there).
// No benchmark workload exposes the counters at dimension 2, so this is
// what shows the one traversal and kernel do the same work for points.
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
//
// PostCells re-captured (all but scalar/identity, which verifies nothing)
// when a backward pass per sequence came to dismiss the starts without an
// answer before any forward row: its cells are charged to PostCells, and
// the forward rows of the dismissed starts are no longer computed (scalar
// 15950 → 11817, 18135 → 12259, 14655 → 9675; vector 10391 → 3728, 12607 →
// 4127, 11812 → 3946, 12079 → 4093). The other seven columns repeat.
//
// PostCells and LBCells re-captured in the two windowed rows when
// admission came to sum the windowed envelope bound (THEORY.md §13): the
// starts it dismisses skip the backward pass, and its gap terms are
// envelope gap evaluations (scalar PostCells 9675 → 8731, LBCells 305 →
// 2562; vector 3946 → 2740, 251 → 2473). The other six columns, and every
// column of the other six rows, repeat.
//
// Re-captured, the scalar/identity row alone, when the identity tree came
// to verify its reached leaves like every other tree instead of walking
// their labels, and to hand its collected starts to verification instead
// of delivering its exact filter distances: [725 19100 0 281 0 281 128
// 2038] → [725 2970 11847 381 100 281 73 370]. NodesVisited and Answers
// repeat; the leaf labels' filter rows and gap terms become verification
// cells, and a candidate is now a start, not an answer. Every other row
// repeats.
func TestEngineWorkPinned(t *testing.T) {
	dir := t.TempDir()
	sdata, sq := workScalarData()
	vdata, vq := workVectorData()
	const seps, veps = 9.0, 13.5
	// NodesVisited, FilterCells, PostCells, Candidates, FalseAlarms,
	// Answers, EnvelopePruned, LBCells.
	type counters [8]uint64
	rows := []struct {
		name   string
		scalar *Options
		vector *Options
		want   counters
	}{
		{"scalar/dense", &Options{Kind: categorize.KindMaxEntropy, Categories: 12}, nil,
			counters{668, 3650, 11817, 350, 69, 281, 18, 383}},
		{"scalar/sparse", &Options{Kind: categorize.KindMaxEntropy, Categories: 8, Sparse: true}, nil,
			counters{472, 2820, 12259, 1043, 762, 281, 23, 305}},
		{"scalar/sparse+window", &Options{Kind: categorize.KindMaxEntropy, Categories: 8, Sparse: true, Window: 4}, nil,
			counters{472, 2820, 8731, 1043, 914, 129, 23, 2562}},
		{"scalar/identity", &Options{Kind: categorize.KindIdentity}, nil,
			counters{725, 2970, 11847, 381, 100, 281, 73, 370}},
		{"vector/dense", nil, &Options{Kind: categorize.KindMaxEntropy, Categories: 4},
			counters{862, 4797, 3728, 490, 445, 45, 32, 565}},
		{"vector/sparse", nil, &Options{Kind: categorize.KindMaxEntropy, Categories: 3, Sparse: true},
			counters{423, 2898, 4127, 1185, 1140, 45, 10, 332}},
		{"vector/sparse+window", nil, &Options{Kind: categorize.KindEqualLength, Categories: 4, Sparse: true, Window: 4},
			counters{317, 2169, 2740, 1202, 1162, 40, 10, 2473}},
		{"vector/identity", nil, &Options{Kind: categorize.KindIdentity},
			counters{1287, 3312, 4093, 855, 810, 45, 75, 443}},
	}
	for i, r := range rows {
		path := filepath.Join(dir, fmt.Sprintf("w%d.twt", i))
		data, opts, q, eps := sdata, r.scalar, sq, seps
		if r.vector != nil {
			data, opts, q, eps = vdata, r.vector, vq, veps
		}
		ix, err := Build(data, path, *opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		defer ix.Close()
		_, st, err := search(ix, q, eps)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := exactStats(st); got != r.want {
			t.Errorf("%s: counters %v, want %v", r.name, got, r.want)
		}
	}
}
