package multivar

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"twsearch/internal/categorize"
)

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

// mExactStats strips Stats to the counters that are exact under parallelism
// (everything but wall clock and the index-wide pool deltas).
func mExactStats(s Stats) [8]uint64 {
	return [8]uint64{s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates, s.FalseAlarms, s.Answers, s.EnvelopePruned, s.LBCells}
}

// TestMultivarParallelDeterministic holds the vector kernel to the parallel
// driver's contract: every worker count returns matches, order, and exact
// stats byte-identical to the serial traversal, across dense/sparse and
// windowed index shapes.
func TestMultivarParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	dir := t.TempDir()
	variants := []struct {
		name string
		opts Options
	}{
		{"dense(ME,4)", Options{Kind: categorize.KindMaxEntropy, CatsPerDim: 4}},
		{"dense(ME,3,w3)", Options{Kind: categorize.KindMaxEntropy, CatsPerDim: 3, Window: 3}},
		{"sparse(ME,3)", Options{Kind: categorize.KindMaxEntropy, CatsPerDim: 3, Sparse: true}},
		{"sparse(EL,4,w4)", Options{Kind: categorize.KindEqualLength, CatsPerDim: 4, Sparse: true, Window: 4}},
	}
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}

	for vi, v := range variants {
		data := randomVecDataset(rng, 6, 30, 2)
		ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("mix-%d.twt", vi)), v.opts)
		if err != nil {
			t.Fatalf("%s: Build: %v", v.name, err)
		}
		for qi := 0; qi < 3; qi++ {
			q := randomVecQuery(rng, 8, 2)
			eps := float64(rng.Intn(8)) + 0.5

			wantM, wantS, err := ix.SearchOpts(bg, q, eps, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: serial Search: %v", v.name, err)
			}
			var wantVisit []Match
			wantVS, err := ix.SearchVisitOpts(bg, q, eps, func(m Match) bool {
				wantVisit = append(wantVisit, m)
				return true
			}, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: serial SearchVisit: %v", v.name, err)
			}
			wantK, wantKS, err := ix.SearchKNNOpts(bg, q, 4, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: serial SearchKNN: %v", v.name, err)
			}

			rng.Shuffle(len(workerCounts), func(i, j int) {
				workerCounts[i], workerCounts[j] = workerCounts[j], workerCounts[i]
			})
			for _, par := range workerCounts {
				opts := SearchOptions{Parallelism: par}

				gotM, gotS, err := ix.SearchOpts(bg, q, eps, opts)
				if err != nil {
					t.Fatalf("%s par=%d: SearchOpts: %v", v.name, par, err)
				}
				if !mMatchesBitIdentical(gotM, wantM) {
					t.Fatalf("%s par=%d q%d: Search diverged from serial: %d matches vs %d",
						v.name, par, qi, len(gotM), len(wantM))
				}
				if mExactStats(gotS) != mExactStats(wantS) {
					t.Fatalf("%s par=%d q%d: Search stats diverged: %v vs %v",
						v.name, par, qi, mExactStats(gotS), mExactStats(wantS))
				}

				var gotVisit []Match
				gotVS, err := ix.SearchVisitOpts(bg, q, eps, func(m Match) bool {
					gotVisit = append(gotVisit, m)
					return true
				}, opts)
				if err != nil {
					t.Fatalf("%s par=%d: SearchVisitOpts: %v", v.name, par, err)
				}
				if !mMatchesBitIdentical(gotVisit, wantVisit) {
					t.Fatalf("%s par=%d q%d: visitor delivery order diverged from serial (%d vs %d answers)",
						v.name, par, qi, len(gotVisit), len(wantVisit))
				}
				if mExactStats(gotVS) != mExactStats(wantVS) {
					t.Fatalf("%s par=%d q%d: SearchVisit stats diverged: %v vs %v",
						v.name, par, qi, mExactStats(gotVS), mExactStats(wantVS))
				}

				gotK, gotKS, err := ix.SearchKNNOpts(bg, q, 4, opts)
				if err != nil {
					t.Fatalf("%s par=%d: SearchKNNOpts: %v", v.name, par, err)
				}
				if !mMatchesBitIdentical(gotK, wantK) {
					t.Fatalf("%s par=%d q%d: KNN diverged from serial", v.name, par, qi)
				}
				if mExactStats(gotKS) != mExactStats(wantKS) {
					t.Fatalf("%s par=%d q%d: KNN stats diverged: %v vs %v",
						v.name, par, qi, mExactStats(gotKS), mExactStats(wantKS))
				}
			}
		}
		if n := ix.Tree.PinnedPages(); n != 0 {
			t.Fatalf("%s: %d pages pinned after the searches: a node reader was left open", v.name, n)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultivarParallelVisitorEarlyStop: a stopping visitor halts the workers
// cleanly and the pre-stop deliveries are the serial prefix.
func TestMultivarParallelVisitorEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	data := randomVecDataset(rng, 6, 30, 2)
	ix, err := Build(data, filepath.Join(t.TempDir(), "mix.twt"),
		Options{Kind: categorize.KindMaxEntropy, CatsPerDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomVecQuery(rng, 6, 2)
	const eps = 14.5

	var all []Match
	if _, err := ix.SearchVisitOpts(bg, q, eps, func(m Match) bool {
		all = append(all, m)
		return true
	}, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Skipf("workload produced only %d answers; early-stop needs a few", len(all))
	}

	for _, par := range []int{2, 3} {
		stopAfter := len(all) / 2
		var got []Match
		_, err := ix.SearchVisitOpts(bg, q, eps, func(m Match) bool {
			got = append(got, m)
			return len(got) < stopAfter
		}, SearchOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(got) != stopAfter {
			t.Fatalf("par=%d: delivered %d answers after stop at %d", par, len(got), stopAfter)
		}
		if !mMatchesBitIdentical(got, all[:stopAfter]) {
			t.Fatalf("par=%d: pre-stop deliveries are not the serial prefix", par)
		}
		if n := ix.Tree.PinnedPages(); n != 0 {
			t.Fatalf("par=%d: %d pages pinned after the visitor stopped the search", par, n)
		}
	}
}

// TestMultivarTableFork: a fork continues row-for-row bit-identical to its
// parent, and CopyFrom rebuilds a worker's entry state without disturbing
// the cell counter.
func TestMultivarTableFork(t *testing.T) {
	rng := rand.New(rand.NewSource(439))
	dim := 3
	q := randomVecQuery(rng, 9, dim)
	mkPoint := func() []float64 {
		p := make([]float64, dim)
		for k := range p {
			p[k] = rng.Float64() * 10
		}
		return p
	}

	for _, w := range []int{-1, 2} {
		parent := NewTableWindow(q, w)
		for i := 0; i < 3; i++ {
			parent.AddRowPoint(mkPoint())
		}
		fork := parent.Fork(parent.Depth())
		if fork.Cells() != 0 {
			t.Fatalf("w=%d: fork starts with %d cells, want 0", w, fork.Cells())
		}

		worker := NewTableWindow(q, w)
		worker.AddRowPoint(mkPoint()) // dirty the worker before CopyFrom
		preCells := worker.Cells()
		worker.CopyFrom(fork)
		if worker.Cells() != preCells {
			t.Fatalf("w=%d: CopyFrom changed the cell counter", w)
		}

		// Parent and worker must now extend identically.
		for i := 0; i < 4; i++ {
			p := mkPoint()
			pd, pm := parent.AddRowPoint(p)
			wd, wm := worker.AddRowPoint(p)
			if math.Float64bits(pd) != math.Float64bits(wd) ||
				math.Float64bits(pm) != math.Float64bits(wm) {
				t.Fatalf("w=%d row %d: fork continuation diverged: (%v,%v) vs (%v,%v)",
					w, i, pd, pm, wd, wm)
			}
			pr, wr := parent.Row(parent.Depth()-1), worker.Row(worker.Depth()-1)
			for y := range pr {
				if math.Float64bits(pr[y]) != math.Float64bits(wr[y]) {
					t.Fatalf("w=%d row %d col %d: cell diverged", w, i, y)
				}
			}
		}
	}
}
